"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

A short smoke run prints every metric that BENCHMARK.json names, and for
each workload one corrupted output is counted as a failed operation.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from workloads import TRANSPORT_POOL, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_smoke_all_workloads_print_every_end_to_end_metric():
    lines = bench("--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0")
    result = json.loads(lines[-1])
    assert result["correct"] is True
    names = [w["name"] for w in SPEC["workloads"]]
    for wl in names:
        for metric in SPEC["end_to_end"]:
            got = result["metrics"][f"{wl}/{metric['name']}"]
            assert got["unit"] == metric["unit"] and got["value"] > 0
        assert any(line.startswith(f"{wl}: attempted ") for line in lines)


def test_smoke_traced_run_prints_every_per_layer_metric():
    result = json.loads(bench("--workload", "points", "--seed", "3", "--seconds", "1", "--trace", "1")[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["tower.Cyclo12.mul.calls"]["value"] > 0


def flip_first_leaf(value):
    """Change one leaf of a JSON value: negate a boolean, bump a number, extend a string."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "1"
    if isinstance(value, list):
        return [flip_first_leaf(value[0])] + value[1:]
    if isinstance(value, dict):
        key = sorted(value)[0]
        return {**value, key: flip_first_leaf(value[key])}
    raise TypeError(type(value))


def run_corrupted(wl, slot, corrupt):
    """One operation through the benchmark's accounting, with its output corrupted."""
    execute = wl.execute
    wl.execute = lambda item: corrupt(execute(item))
    tally = run.Tally()
    try:
        run.run_slot(wl, slot, tally)
    finally:
        wl.execute = execute
    return tally


def make(name, seed=3):
    wl = WORKLOADS[name](ROOT, seed)
    wl.setup()
    return wl


def test_transport_counts_a_corrupted_matrix_as_failed():
    wl = make("transport")
    slot = wl.slots()[0]
    intact = run.Tally()
    run.run_slot(wl, slot, intact)
    assert (intact.attempted, intact.failed) == (1, 0)

    def corrupt(out):
        back = out[-1]
        flipped = ((back[0][0] + 1,) + back[0][1:],) + back[1:]
        return out[:-1] + (flipped,)

    tally = run_corrupted(wl, slot, corrupt)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


def test_transport_pool_does_not_depend_on_the_seed():
    a, b = make("transport", 3), make("transport", 4)
    items_a = [slot.draw() for slot in a.slots()]
    items_b = [slot.draw() for slot in b.slots()]
    assert len(items_a) == TRANSPORT_POOL
    assert [i.data for i in items_a] != [i.data for i in items_b]
    assert sorted(i.data for i in items_a) == sorted(i.data for i in items_b)


def test_transport_counts_the_known_fault_as_failed_not_wrong():
    wl = make("transport")
    tally = run.Tally()
    for slot in wl.slots():
        run.run_slot(wl, slot, tally)
    assert (tally.attempted, tally.wrong) == (TRANSPORT_POOL, 0)
    assert set(tally.errors) <= {"InvariantViolation: no descent in row four"}
    assert tally.failed == sum(tally.errors.values())


def test_points_counts_a_corrupted_moebius_image_as_failed():
    wl = make("points")
    slot = wl.slots()[0]

    def corrupt(out):
        flags, tau, back, moved, report = out
        moved = ((moved[0][0] + 1, moved[0][1]), moved[1])
        return flags, tau, back, moved, report

    tally = run_corrupted(wl, slot, corrupt)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


def corrupt_envelope(out):
    code, stdout, stderr = out
    doc = json.loads(stdout)
    doc["outputs"] = flip_first_leaf(doc["outputs"])
    return code, json.dumps(doc) + "\n", stderr


@pytest.mark.parametrize("index", range(14))
def test_cli_cold_counts_a_corrupted_envelope_as_failed(index):
    wl = make("cli-cold")
    slot = wl.slots()[index]
    intact = run.Tally()
    run.run_slot(wl, slot, intact)
    assert (intact.attempted, intact.failed) == (1, 0), slot.kind
    tally = run_corrupted(wl, slot, corrupt_envelope)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1), slot.kind


def test_cli_cold_counts_a_corrupted_transport_word_as_failed():
    wl = make("cli-cold")
    slot = next(s for s in wl.slots() if s.kind == "correspond.o2h")

    def corrupt(out):
        code, stdout, stderr = out
        doc = json.loads(stdout)
        kind, payload = doc["outputs"]["word"][0]
        if kind == "gA":
            payload[0][0][0] += 1
        else:
            payload[0] += 1
        return code, json.dumps(doc) + "\n", stderr

    tally = run_corrupted(wl, slot, corrupt)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)


def test_certify_repeats_its_first_verify_seed():
    seeds = [slot.draw().expect for slot in make("certify").slots()]
    assert len(seeds) == 3 and seeds[0] == seeds[2] != seeds[1]


def test_certify_counts_a_corrupted_report_as_failed():
    wl = make("certify")
    slot = wl.slots()[0]

    def corrupt(out):
        code, stdout, stderr = out
        doc = json.loads(stdout)
        doc["outputs"]["suites"][0]["checks"][0]["passed"] = False
        return code, json.dumps(doc, sort_keys=True) + "\n", stderr

    tally = run_corrupted(wl, slot, corrupt)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
