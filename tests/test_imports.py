"""What a cold process loads: each CLI subcommand imports only the modules
it runs."""

import json
import os
import subprocess
import sys

import pytest

import hessk3
from hessk3 import cli, verify

_I6 = [[int(i == j) for j in range(6)] for i in range(6)]
_I4 = [[[int(i == j), 0] for j in range(4)] for i in range(4)]
_ZERO = ["0", "0", "0", "0"]
_TAU = [[["0", "0", "2", "0"], _ZERO], [_ZERO, ["0", "0", "2", "0"]]]

# one command line, with its stdin document, per subcommand kind
KINDS = {
    "invariants": (["invariants", "--lambda=1,2,3,4,5"], None),
    "orth check": (["orth", "check"], {"matrix": _I6}),
    "orth decompose": (["orth", "decompose"], {"matrix": _I6}),
    "herm check": (["herm", "check"], {"matrix": _I4}),
    "map tau-to-z": (["map", "tau-to-z"], {"tau": _TAU}),
    "correspond o2h": (["correspond", "o2h"], {"matrix": _I6}),
    "heegner": (["heegner", "--tau", json.dumps(_TAU)], None),
    "verify": (["verify", "--suite", "disc-group"], None),
    "help": (["--help"], None),
}

# runs one command and writes its exit code and the modules it loaded to stderr
_CHILD = """
import json, sys
from hessk3.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("hessk3.") or m == "dataclasses")
print(json.dumps([code, loaded]), file=sys.stderr)
"""


@pytest.fixture(scope="module")
def loaded():
    """Subcommand kind -> the modules a fresh process loaded to run it; the
    processes start side by side."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hessk3.__file__)))
    pipes = {"stdin": subprocess.PIPE, "stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    procs = {
        kind: subprocess.Popen([sys.executable, "-c", _CHILD, *argv], env=env, text=True, **pipes)
        for kind, (argv, _) in KINDS.items()
    }
    out = {}
    for kind, proc in procs.items():
        doc = KINDS[kind][1]
        _, err = proc.communicate("" if doc is None else json.dumps(doc), timeout=60)
        code, modules = json.loads(err.splitlines()[-1])
        assert code == 0, (kind, err)
        out[kind] = set(modules)
    return out


def test_no_command_loads_dataclasses(loaded):
    assert [kind for kind, modules in loaded.items() if "dataclasses" in modules] == []


def test_only_verify_loads_the_suites_and_samplers(loaded):
    suites = {"hessk3.verify", "hessk3.sampling"}
    assert {kind for kind, modules in loaded.items() if modules & suites} == {"verify"}
    assert suites <= loaded["verify"]


def test_commands_load_only_the_layers_they_run(loaded):
    def names(*modules):
        return {f"hessk3.{m}" for m in modules}

    assert loaded["invariants"] & names("hermitian", "correspond", "domain", "tower", "heegner") == set()
    assert loaded["orth check"] & names("correspond", "hermitian", "domain", "tower", "cubic") == set()
    assert "hessk3.correspond" in loaded["orth decompose"]


def test_cli_suite_names_are_verifys_suites():
    # the CLI states the names itself, so that parsing does not import verify
    assert cli._SUITES == tuple(sorted(verify.SUITES))
