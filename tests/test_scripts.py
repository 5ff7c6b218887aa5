"""The scripts under scripts/ run at seed 0 and print their summaries."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_coset_census(capsys):
    assert load("coset_census").main(["--samples", "50", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "samples=50 seed=0 length<=6"
    assert lines[-3:] == [
        "distinct cosets observed: 15",
        "  tabulated (base + half-shifts): 5",
        "  beyond the tabulated translates: 10",
    ]


def test_invariant_weights(capsys):
    assert load("invariant_weights").main(["--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    weights = dict(line.split()[:2] for line in lines[2:10])
    assert weights == {
        "I8": "c^8", "I16": "c^16", "I24": "c^24", "I32": "c^32", "I40": "c^40",
        "I100": "c^100", "delta_sing": "c^32", "delta_km": "c^-3",
    }
    for line in lines[-2:]:
        lhs, rhs = line.split("  ==  ")
        assert lhs.rpartition(" = ")[2] == rhs.rpartition(" = ")[2]
