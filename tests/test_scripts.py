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

