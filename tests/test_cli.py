"""Command line: envelope shape, exit codes, format round trips, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessk3 import cli, lattice, verify
from hessk3.correspond import herm_to_orth, orth_word_matrix
from hessk3.domain import Q0
from hessk3.eisenstein import ONE, ZERO, Eisenstein
from hessk3.errors import InputTypeError
from hessk3.hermitian import W_MAT, m2e, token_matrix, token_power, word_matrix
from hessk3.lattice import G1, is_orthogonal, mat_id, translation_h
from hessk3.tower import Cyclo12

ENVELOPE_KEYS = {"command", "inputs", "outputs", "status", "diagnostics"}


def run_cli(argv, stdin_doc=None, monkeypatch=None, capsys=None):
    if stdin_doc is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(stdin_doc)))
    rc = cli.main(argv)
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 1, "expected exactly one JSON line"
    doc = json.loads(lines[0])
    assert set(doc) == ENVELOPE_KEYS
    return rc, doc


def eis_rows(m):
    return [[[x.a, x.b] for x in row] for row in m]


def test_invariants_ok(capsys, monkeypatch):
    rc, doc = run_cli(["invariants", "--lambda", "1,1,1,1,1"], capsys=capsys)
    assert rc == 0
    assert doc["status"] == "ok"
    assert doc["command"] == "invariants"
    out = doc["outputs"]
    assert out["I8"] == "-15"
    assert out["delta_sing"] == "-1215"
    assert out["delta_km"] == "5"
    assert out["eckardt"] is True
    assert out["kummer"] is False
    assert doc["inputs"]["lambda"] == ["1", "1", "1", "1", "1"]


def test_invariants_rational_input(capsys, monkeypatch):
    rc, doc = run_cli(["invariants", "--lambda", "1,1,1,1,1/16"], capsys=capsys)
    assert rc == 0
    assert doc["outputs"]["singular"] is True


def test_invariants_negative_first_entry_as_separate_word(capsys):
    _, joined = run_cli(["invariants", "--lambda=-1,2,3,4,5"], capsys=capsys)
    rc, split = run_cli(["invariants", "--lambda", "-1,2,3,4,5"], capsys=capsys)
    assert rc == 0
    assert split == joined
    assert split["inputs"]["lambda"] == ["-1", "2", "3", "4", "5"]


@pytest.mark.parametrize(
    "argv",
    [[], ["invariants"], ["orth", "bogus"], ["verify", "--seed", "x"], ["invariants", "--lambda"]],
)
def test_usage_errors_are_one_exit_2_envelope(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == ""
    [line] = out.splitlines()
    doc = json.loads(line)
    assert set(doc) == ENVELOPE_KEYS
    assert doc["command"] == "usage"
    assert doc["status"] == "error"
    assert doc["inputs"] == {"argv": argv}
    assert len(doc["diagnostics"]) == 1


@pytest.mark.parametrize("argv", [["-h"], ["orth", "--help"], ["verify", "-h"]])
def test_help_is_one_exit_0_envelope(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == ""
    [line] = out.splitlines()
    doc = json.loads(line)
    assert (doc["command"], doc["status"], doc["inputs"]) == ("help", "ok", {"argv": argv})
    assert doc["outputs"]["text"].startswith("usage: hessk3")


def test_invariants_usage_error(capsys, monkeypatch):
    rc, doc = run_cli(["invariants", "--lambda", "1,2,3"], capsys=capsys)
    assert rc == 2
    assert doc["status"] == "error"
    assert doc["diagnostics"]


def test_orth_check(capsys, monkeypatch):
    rc, doc = run_cli(
        ["orth", "check"], stdin_doc={"matrix": [list(r) for r in G1]},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 0
    out = doc["outputs"]
    assert out["is_isometry"] is True
    assert out["determinant"] == 1
    assert out["orientation"] == "plus"
    assert out["block_parity"] == "diagonal"
    assert out["in_k3_kernel"] is False
    assert doc["command"] == "orth.check"


def test_orth_check_tests_the_isometry_once(capsys, monkeypatch):
    calls = []

    def counted(g):
        calls.append(g)
        return is_orthogonal(g)

    monkeypatch.setattr(lattice, "is_orthogonal", counted)
    rc, doc = run_cli(
        ["orth", "check"], stdin_doc={"matrix": [list(r) for r in G1]},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 0
    assert "in_enr_kernel" in doc["outputs"]
    assert len(calls) == 1


def test_orth_check_failure_exit_code(capsys, monkeypatch):
    bad = [[2 if i == j else 0 for j in range(6)] for i in range(6)]
    rc, doc = run_cli(
        ["orth", "check"], stdin_doc={"matrix": bad}, monkeypatch=monkeypatch, capsys=capsys
    )
    assert rc == 1
    assert doc["status"] == "ok"
    assert doc["outputs"] == {"is_isometry": False}


def test_orth_decompose_round_trip(capsys, monkeypatch):
    g = translation_h(1, 0, -2, 1)
    rc, doc = run_cli(
        ["orth", "decompose"], stdin_doc={"matrix": [list(r) for r in g]},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 0
    word = [(name, p) for name, p in doc["outputs"]["word"]]
    assert orth_word_matrix(word) == g


def test_orth_decompose_rejects_outsiders(capsys, monkeypatch):
    from hessk3.lattice import U1

    rc, doc = run_cli(
        ["orth", "decompose"], stdin_doc={"matrix": [list(r) for r in U1]},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 2
    assert doc["status"] == "error"


def test_orth_to_s5(capsys, monkeypatch):
    rc, doc = run_cli(
        ["orth", "to-s5"], stdin_doc={"matrix": [list(r) for r in G1]},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 0
    assert doc["outputs"]["permutation"] == [3, 1, 4, 0, 2]


def test_orth_disc_action(capsys, monkeypatch):
    rc, doc = run_cli(
        ["orth", "disc-action"], stdin_doc={"matrix": [list(r) for r in mat_id(6)]},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 0
    assert doc["outputs"]["generator_images"] == [
        ["0", "0", "1/2", "0", "0", "0"],
        ["0", "0", "0", "1/2", "0", "0"],
        ["0", "0", "0", "0", "1/6", "1/3"],
        ["0", "0", "0", "0", "1/3", "1/6"],
    ]


def test_herm_check_and_exit_codes(capsys, monkeypatch):
    rc, doc = run_cli(
        ["herm", "check"], stdin_doc={"matrix": eis_rows(token_matrix(("gBu", (1, 0, 0, 0))))},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 0
    assert doc["outputs"]["membership"] == "gamma1"
    rc, doc = run_cli(
        ["herm", "check"], stdin_doc={"matrix": eis_rows(W_MAT)},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 1
    assert doc["outputs"]["membership"] == "none"


def test_herm_decompose_round_trip(capsys, monkeypatch):
    g = word_matrix([("gBu", (1, 0, 2, -1)), ("gBl", (0, 1, 0, 0))])
    rc, doc = run_cli(
        ["herm", "decompose"], stdin_doc={"matrix": eis_rows(g)},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 0
    word = cli.parse_herm_word(doc["outputs"]["word"], "word")
    assert word_matrix(word) == g


def test_herm_mod2_and_coset(capsys, monkeypatch):
    rc, doc = run_cli(
        ["herm", "mod2"], stdin_doc={"matrix": eis_rows(mat_id(4, ONE, ZERO))},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 0
    assert doc["outputs"]["matrix_f4"] == [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    rc, doc = run_cli(
        ["herm", "coset"], stdin_doc={"matrix": eis_rows(token_matrix(("gBu", (0, 0, 0, 1))))},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 0
    assert doc["outputs"]["coset"] == 3


def test_map_round_trip(capsys, monkeypatch):
    z_doc = [cli._json_value(x) for x in Q0]
    rc, doc = run_cli(
        ["map", "z-to-tau"], stdin_doc={"z": z_doc}, monkeypatch=monkeypatch, capsys=capsys
    )
    assert rc == 0
    tau_doc = doc["outputs"]["tau"]
    rc, doc = run_cli(
        ["map", "tau-to-z"], stdin_doc={"tau": tau_doc}, monkeypatch=monkeypatch, capsys=capsys
    )
    assert rc == 0
    assert doc["outputs"]["z"] == z_doc


def test_map_rejects_lower_half_space(capsys, monkeypatch):
    tau = [[["0", "0", "-2", "0"], ["0", "0", "0", "0"]], [["0", "0", "0", "0"], ["0", "0", "-2", "0"]]]
    rc, doc = run_cli(
        ["map", "tau-to-z"], stdin_doc={"tau": tau}, monkeypatch=monkeypatch, capsys=capsys
    )
    assert rc == 2
    assert doc["status"] == "error"


def test_correspond_round_trip(capsys, monkeypatch):
    g = translation_h(0, 0, 1, 0)
    rc, doc = run_cli(
        ["correspond", "o2h"], stdin_doc={"matrix": [list(r) for r in g]},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 0
    assert doc["outputs"]["uses_t"] is False
    assert doc["outputs"]["uses_w"] is False
    back_doc = {"word": doc["outputs"]["word"]}
    rc, doc = run_cli(
        ["correspond", "h2o"], stdin_doc=back_doc, monkeypatch=monkeypatch, capsys=capsys
    )
    assert rc == 0
    assert tuple(tuple(r) for r in doc["outputs"]["matrix"]) == g


def test_heegner_inline_tau(capsys, monkeypatch):
    tau = [[["0", "0", "2", "0"], ["0", "0", "0", "0"]], [["0", "0", "0", "0"], ["0", "0", "2", "0"]]]
    rc, doc = run_cli(["heegner", "--tau", json.dumps(tau)], capsys=capsys)
    assert rc == 0
    assert doc["outputs"] == {"node": False, "eckardt": True, "ns": True, "km": False}


def test_heegner_bad_inline_json(capsys, monkeypatch):
    rc, doc = run_cli(["heegner", "--tau", "not json"], capsys=capsys)
    assert rc == 2
    assert doc["status"] == "error"
    assert doc["command"] == "heegner"


@pytest.mark.parametrize("order", ["tau-first", "input-first"])
def test_heegner_takes_tau_or_input_not_both(order, tmp_path, capsys):
    # the file holds a lower half-space point, which --tau used to hide
    lower = [[["0", "0", "-2", "0"], ["0", "0", "0", "0"]], [["0", "0", "0", "0"], ["0", "0", "-2", "0"]]]
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"tau": lower}))
    upper = json.dumps([[[str(-int(x)) for x in e] for e in row] for row in lower])
    options = [["--tau", upper], ["--input", str(path)]]
    argv = ["heegner"] + sum(options if order == "tau-first" else options[::-1], [])
    rc, doc = run_cli(argv, capsys=capsys)
    assert rc == 2
    assert (doc["command"], doc["status"], doc["inputs"]) == ("usage", "error", {"argv": argv})
    [message] = doc["diagnostics"]
    assert "not allowed with argument" in message


_UNIT_BLOCK = [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]
_NON_UNIT_BLOCK = [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]


@pytest.mark.parametrize(
    "word, message",
    [
        ([["gBu", [1, 0, 0, 0]], ["gA", _NON_UNIT_BLOCK]], "matrix must have unit determinant"),
        ([["gA", [[[1, 0], [0, 0]], [[0, 0], 1]]]], "word[0].payload[1][1]: expected a two-element integer array"),
        ([["gBl", [0, 0, 0.5, 0]]], "word[0].payload[2]: expected an integer, got float"),
        ([["gBu", [1, 2, 3, 4]], ["gC", [1, 2, 3, 4]]], "word[1]: unknown token kind 'gC'"),
        ([["gA", _UNIT_BLOCK], ["gA", _NON_UNIT_BLOCK], ["gA", _UNIT_BLOCK]], "matrix must have unit determinant"),
        (
            [["gBu", [1, 0, 0, 0]], ["gBu", [0, True, 0, 0]], ["gBu", [0, 0, 1, 0]]],
            "word[1].payload[1]: expected an integer, got bool",
        ),
    ],
)
def test_h2o_refuses_a_bad_token_anywhere_in_a_run(word, message, capsys, monkeypatch):
    # the parser refuses malformed tokens; a unit-determinant failure comes
    # from herm_to_orth, which checks every token of a run before its product
    rc, doc = run_cli(["correspond", "h2o"], stdin_doc={"word": word}, monkeypatch=monkeypatch, capsys=capsys)
    assert (rc, doc["status"], doc["diagnostics"]) == (2, "error", [message])


_TOKEN_ENTRIES = {
    "token_matrix": token_matrix,
    "token_power": lambda tok: token_power(tok, -1),
    "word_matrix": lambda tok: word_matrix([tok]),
    "herm_to_orth": lambda tok: herm_to_orth(False, False, [tok]),
}
# each bad token with its JSON form, the error each library entry point
# raises on it (keyed by the entry points that raise it) and the one
# diagnostic of `correspond h2o`; the library reads every token through
# one check, the CLI refuses a malformed one while parsing
BAD_TOKENS = {
    "unknown-kind": (
        ("gC", (1, 2, 3, 4)),
        ["gC", [1, 2, 3, 4]],
        {tuple(_TOKEN_ENTRIES): (ValueError, "unknown token kind 'gC'")},
        "word[0]: unknown token kind 'gC'",
    ),
    "non-unit-gA": (
        ("gA", m2e(((1, 0), (0, 2)))),
        ["gA", [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]],
        {
            ("token_matrix", "word_matrix"): (ValueError, "gA block must have unit determinant"),
            ("token_power",): (ValueError, "determinant is not a unit"),
            ("herm_to_orth",): (ValueError, "matrix must have unit determinant"),
        },
        "matrix must have unit determinant",
    ),
    "non-eisenstein-entry": (
        ("gA", ((ONE, ZERO), (ZERO, 1))),
        ["gA", [[[1, 0], [0, 0]], [[0, 0], 1]]],
        {tuple(_TOKEN_ENTRIES): (InputTypeError, "matrix entry: expected an Eisenstein integer")},
        "word[0].payload[1][1]: expected a two-element integer array",
    ),
    "three-parameters": (
        ("gBu", (1, 2, 3)),
        ["gBu", [1, 2, 3]],
        {tuple(_TOKEN_ENTRIES): (ValueError, "expected four translation parameters")},
        "word[0]: translation payload must be four integers",
    ),
    "five-parameters": (
        ("gBl", (1, 2, 3, 4, 5)),
        ["gBl", [1, 2, 3, 4, 5]],
        {tuple(_TOKEN_ENTRIES): (ValueError, "expected four translation parameters")},
        "word[0]: translation payload must be four integers",
    ),
    "float-parameter": (
        ("gBu", (0, 0, 0.5, 0)),
        ["gBu", [0, 0, 0.5, 0]],
        {tuple(_TOKEN_ENTRIES): (InputTypeError, "translation parameter: expected an integer, got float")},
        "word[0].payload[2]: expected an integer, got float",
    ),
}


@pytest.mark.parametrize("entry", [*_TOKEN_ENTRIES, "cli"])
@pytest.mark.parametrize("name", sorted(BAD_TOKENS))
def test_a_bad_token_raises_one_error_at_each_entry_point(name, entry, capsys, monkeypatch):
    tok, doc_tok, errors, diagnostic = BAD_TOKENS[name]
    if entry == "cli":
        rc, doc = run_cli(["correspond", "h2o"], stdin_doc={"word": [doc_tok]}, monkeypatch=monkeypatch, capsys=capsys)
        assert (rc, doc["status"], doc["diagnostics"]) == (2, "error", [diagnostic])
        return
    [want] = [error for entries, error in errors.items() if entry in entries]
    with pytest.raises(Exception) as caught:
        _TOKEN_ENTRIES[entry](tok)
    assert (type(caught.value), str(caught.value)) == want


def test_output_too_long_to_print_is_an_input_error(capsys, monkeypatch):
    # the translation corner squares the payload, past the digit limit of
    # int-to-str conversion, so the envelope itself cannot be printed
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-to-str digit limit")
    word = [["gBu", [0, 0, 10 ** (limit - 1), 0]]]
    rc, doc = run_cli(
        ["correspond", "h2o"], stdin_doc={"word": word}, monkeypatch=monkeypatch, capsys=capsys
    )
    assert rc == 2
    assert (doc["command"], doc["status"], doc["inputs"]) == ("correspond.h2o", "error", {})
    assert "digits" in doc["diagnostics"][0]


def test_one_encoder_writes_the_exact_formats():
    assert cli._json_value(Fraction(-3, 4)) == "-3/4"
    assert cli._json_value(Eisenstein(2, -1)) == [2, -1]
    assert cli._json_value(Cyclo12(1, Fraction(1, 2), 0, -3)) == ["1", "1/2", "0", "-3"]
    # no fallback to str(): a value with no JSON form is a fault, not output
    for x in (object(), 1j, {1}):
        with pytest.raises(TypeError, match="no JSON form"):
            cli._json_value(x)


def test_malformed_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{broken"))
    rc = cli.main(["orth", "check"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert rc == 2
    assert doc["status"] == "error"
    assert doc["command"] == "orth.check"


def test_missing_field(capsys, monkeypatch):
    rc, doc = run_cli(
        ["orth", "check"], stdin_doc={"wrong": 1}, monkeypatch=monkeypatch, capsys=capsys
    )
    assert rc == 2
    assert "matrix" in doc["diagnostics"][0]


def test_map_rejects_unnormalized_point(capsys, monkeypatch):
    z = [[str(c) for c in (2 * x).coords()] for x in Q0]
    rc, doc = run_cli(["map", "z-to-tau"], stdin_doc={"z": z}, monkeypatch=monkeypatch, capsys=capsys)
    assert rc == 2
    assert doc["status"] == "error"
    assert "chart normalized" in doc["diagnostics"][0]


@pytest.mark.parametrize("value", ["false", 0, None, [], "true"])
@pytest.mark.parametrize("flag", ["uses_t", "uses_w"])
def test_h2o_flags_must_be_json_booleans(flag, value, capsys, monkeypatch):
    rc, doc = run_cli(
        ["correspond", "h2o"], stdin_doc={flag: value, "word": []},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 2
    assert doc["diagnostics"] == [f"{flag}: expected a JSON boolean, got {type(value).__name__}"]


def test_h2o_flags_default_to_false(capsys, monkeypatch):
    rc, doc = run_cli(
        ["correspond", "h2o"], stdin_doc={"uses_w": False, "word": []},
        monkeypatch=monkeypatch, capsys=capsys,
    )
    assert rc == 0
    assert doc["inputs"]["uses_t"] is False and doc["inputs"]["uses_w"] is False
    assert doc["outputs"]["matrix"] == [list(r) for r in mat_id(6)]


DEEP_ARRAY = "[" * 5000 + "]" * 5000


def test_deep_stdin_document_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(DEEP_ARRAY))
    rc = cli.main(["orth", "check"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["status"] == "error"
    assert doc["diagnostics"][0].startswith("input document: maximum recursion depth")


def test_deep_inline_tau_is_an_input_error(capsys):
    rc, doc = run_cli(["heegner", "--tau", DEEP_ARRAY], capsys=capsys)
    assert rc == 2
    assert doc["command"] == "heegner"
    assert doc["diagnostics"][0].startswith("tau: maximum recursion depth")


def test_unknown_suite_is_a_usage_error(capsys):
    rc, doc = run_cli(["verify", "--suite", "nonsense"], capsys=capsys)
    assert rc == 2
    assert doc["command"] == "usage"
    assert "invalid choice: 'nonsense'" in doc["diagnostics"][0]


@pytest.mark.parametrize(
    "suite, check_id",
    [
        ("group-iso", "psi-multiplicative-typo"),
        # another suite's check: its size used to be ignored, with a passing report
        ("delta-km", "psi-multiplicative"),
    ],
)
def test_suite_sizes_must_name_sized_checks(suite, check_id):
    # a misspelt id would otherwise run the check at its default size
    with pytest.raises(ValueError, match=f"^no sized check '{check_id}' in {suite}$"):
        verify.run_suite(suite, 0, {check_id: 1})


@pytest.mark.parametrize("seed", [None, "abc", 1.5, True])
def test_suite_seeds_must_be_integers(seed):
    # None used to seed from the operating system and report "seed": null
    with pytest.raises(TypeError, match="seed: expected an integer"):
        verify.run_suite("delta-sing", seed)


@pytest.mark.parametrize(
    "check_id, size",
    [
        ("psi-multiplicative", 0),
        ("psi-multiplicative", -5),
        ("psi-multiplicative", True),
        ("psi-multiplicative", (5, 2)),
        ("gamma0-words-mod2-in-gl2f4", (5, 0)),
        ("gamma0-words-mod2-in-gl2f4", 5),
        ("gamma0-words-mod2-in-gl2f4", (5,)),
        ("gamma0-words-mod2-in-gl2f4", (5, 1.5)),
    ],
)
def test_suite_sizes_must_have_the_shape_of_their_default(check_id, size):
    # a count below one used to pass its check without a single draw
    with pytest.raises(ValueError, match=f"size of '{check_id}'"):
        verify.run_suite("group-iso", 0, {check_id: size})


def test_verify_suite_runs(capsys, monkeypatch):
    rc, doc = run_cli(["verify", "--suite", "delta-sing", "--seed", "3"], capsys=capsys)
    assert rc == 0
    assert doc["outputs"]["passed"] is True
    assert doc["outputs"]["suite"] == "delta-sing"
    assert all(set(c) == {"check_id", "passed", "detail"} for c in doc["outputs"]["checks"])


@pytest.mark.parametrize("seed", [2, 6, 7, 28])
def test_decompose_fuzz_seeds_that_once_stalled_in_row_four(seed, capsys):
    rc, doc = run_cli(["verify", "--suite", "decompose-fuzz", "--seed", str(seed)], capsys=capsys)
    assert rc == 0
    assert doc["outputs"]["passed"] is True


def test_verify_reports_are_byte_deterministic_across_processes():
    cmd = [sys.executable, "-m", "hessk3.cli", "verify", "--suite", "delta-sing", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.strip()


@pytest.mark.parametrize(
    "argv, stdin_doc",
    [
        (["orth", "check"], {"matrix": [list(r) for r in G1]}),
        (["verify", "--suite", "delta-sing"], None),
    ],
)
def test_a_closed_stdout_exits_two_without_a_traceback(argv, stdin_doc):
    # the reader of the pipe closes it before the envelope is written: the
    # write fails, and the exit code says so with nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hessk3.cli", *argv],
            input=json.dumps(stdin_doc or {}).encode(),
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"")


# sha256 of the stdout of `hessk3 verify --suite all --seed N`, N = 0..9: a
# change to any report byte (a check id, its order, a detail or a count)
# shows here, and a change that means to make one rewrites these digests
# and says why
VERIFY_ALL_SHA256 = (
    "69a96665e0a955256b233e35ab22af66d179ae1cbcb75dd2c5693e01f6c37498",
    "4c9efa59041bdde40d3f23ba9cbdfc9dd2e4fe70341468326de9ced5ac1fe62d",
    "c4cb1c606ae77a9dc39dc1b29e9a0906e250f8cc9c24306fee23c2e2d58f12f7",
    "bb9124556a65b661b50813c3f3e69a9580759161a0fdfeaeb51fd3904aeca7ed",
    "0e5506791ef4bc3b2ecca9ceae06286b127da213475d0128531c3be0e743a660",
    "cead7c03d4ac299416d3be3d32daa7a74f07d0a61233de2aca0bcca9c3087330",
    "658244a6d1f4ef50770d32e43c53a541254dac5e901d6517e6d6e8af85bfa40c",
    "ec6ac3e94d89ed6304c5ab54901ebf32a0ae4b07ed6f69689f2e19c94274d9a6",
    "02e944f88447533615576a8ab020d4c911ce392e58b49904e59e8e1c8802c72c",
    "386b0cf30a81c097d6d318ca5cbce9a98e66be8b3ed703c8bf0013f8695508cf",
)


@pytest.mark.parametrize("seed", range(len(VERIFY_ALL_SHA256)))
def test_verify_all_stdout_is_pinned(seed, capsys):
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "all", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == VERIFY_ALL_SHA256[seed]


# -- the envelope contract under fuzzing ------------------------------------------

_ACTIONS = {
    "invariants": [],
    "orth": ["check", "decompose", "disc-action", "to-s5"],
    "herm": ["check", "decompose", "mod2", "coset"],
    "map": ["z-to-tau", "tau-to-z"],
    "correspond": ["o2h", "h2o"],
    "heegner": [],
}
# each runs in under 0.1 s; `verify --suite all` takes about 2 s a run
_QUICK_SUITES = ["delta-km", "enr-iso", "heegner"]

_small = st.integers(-3, 3)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_tokens = st.sampled_from(
    [*_ACTIONS, *(a for acts in _ACTIONS.values() for a in acts), "--input", "--lambda", "--tau",
     "--suite", "--seed", "-h", "--help", "--", "-", "1,2,3,4,5", "-1,2,3,4,5", "x"]
) | st.text(max_size=8)


def _square(entry, n):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


_rational = _small | _small.map(str) | st.sampled_from(["1/2", "-2/3", "1/0", "x", 0.5])
_field = st.lists(_rational, min_size=4, max_size=4)
_eis = st.lists(_small, min_size=2, max_size=2)
_herm_token = (
    st.tuples(st.just("gA"), _square(_eis, 2))
    | st.tuples(st.sampled_from(["gBu", "gBl"]), st.lists(_small, min_size=4, max_size=4))
    | _json
).map(lambda t: list(t) if isinstance(t, tuple) else t)


def _valid_documents():
    from hessk3 import sampling
    from hessk3.domain import psi

    z = sampling.sample_chart_point(sampling.make_rng(0))
    tau = [[cli._json_value(x) for x in row] for row in psi(z)]
    return [
        {"matrix": [list(r) for r in G1]},
        {"matrix": eis_rows(W_MAT)},
        {"word": [["gBu", [1, 0, 0, 0]], ["gA", [[[1, 0], [0, 0]], [[1, 0], [1, 0]]]]]},
        {"z": [cli._json_value(x) for x in z]},
        {"tau": tau},
    ]


_shaped = {
    "orth": st.fixed_dictionaries({"matrix": _square(_small, 6)}),
    "herm": st.fixed_dictionaries({"matrix": _square(_eis, 4)}),
    "h2o": st.fixed_dictionaries(
        {"word": st.lists(_herm_token, max_size=4)}, optional={"uses_t": _json, "uses_w": _json}
    ),
    "z-to-tau": st.fixed_dictionaries({"z": st.lists(_field, min_size=6, max_size=6)}),
    "tau-to-z": st.fixed_dictionaries({"tau": _square(_field, 2)}),
}
_shaped["o2h"] = _shaped["orth"]
_shaped["heegner"] = _shaped["tau-to-z"]
_stdin = (
    st.one_of(*_shaped.values(), st.sampled_from(_valid_documents()), _json).map(json.dumps)
    | st.text(max_size=20)
)


@st.composite
def _invocations(draw):
    """(argv, stdin): random tokens, or a subcommand with its action, a
    document mostly of the shape it reads, and now and then a stray token."""
    kind = draw(st.sampled_from(["tokens", "verify", "command", "command"]))
    if kind == "tokens":
        return draw(st.lists(_tokens, max_size=5)), draw(_stdin)
    if kind == "verify":
        seed = draw(st.sampled_from(["0", "7", "-1", "x"]))
        suite = draw(st.sampled_from(_QUICK_SUITES + ["bogus"]))
        return ["verify", "--suite", suite, "--seed", seed], ""
    cmd = draw(st.sampled_from(list(_ACTIONS)))
    argv = [cmd]
    if _ACTIONS[cmd]:
        argv.append(draw(st.sampled_from(_ACTIONS[cmd])))
    if cmd == "invariants":
        entry = _small.map(str) | st.sampled_from(["1/2", "-2/3", "1/0", "x"])
        parts = st.lists(entry, min_size=5, max_size=5) | st.lists(entry, max_size=6)
        argv += ["--lambda", draw(parts.map(",".join))]
    if cmd == "heegner" and draw(st.booleans()):
        argv += ["--tau", draw(_square(_field, 2).map(json.dumps) | st.text(max_size=8))]
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(_tokens))
    shape = _shaped.get(argv[-1], _shaped.get(cmd))
    if shape is not None and draw(st.integers(0, 3)):
        return argv, json.dumps(draw(shape))
    return argv, draw(_stdin)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_invocations())
def test_any_argv_and_stdin_give_one_envelope(invocation):
    argv, stdin_text = invocation
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    assert rc in (0, 1, 2)
    assert err.getvalue() == ""
    [line] = out.getvalue().splitlines()
    assert set(json.loads(line)) == ENVELOPE_KEYS
