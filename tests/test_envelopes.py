"""Golden envelopes of the command line.

tests/data/envelopes.json holds one invocation per line: its argv, its
stdin text, and the exit code and stdout that `cli.main` gave when the
file was written.  The test replays each invocation in process and
compares the stdout bytes and the exit code, so a change to the front end
is checked for byte identity without running the old code next to the
new.  The inputs were drawn once from hessk3.sampling at SEED and are
stored as literal documents, so a change to the samplers cannot move them.

Help text is wrapped to the terminal width, which both the writer and the
replay fix at COLUMNS.

Regenerate only when a change to an envelope is intended:

    PYTHONPATH=src python3 tests/test_envelopes.py
"""

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

from hessk3 import cli, sampling
from hessk3.domain import psi
from hessk3.eisenstein import Eisenstein
from hessk3.hermitian import J_MAT, word_matrix
from hessk3.tower import Cyclo12

SEED = 2010
# the number of drawn invocations
SAMPLED = 45
COLUMNS = "80"
DATA = Path(__file__).parent / "data" / "envelopes.json"


def _plain(x):
    """A library value as it is written in an input document."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Eisenstein):
        return [x.a, x.b]
    if isinstance(x, Cyclo12):
        return [str(c) for c in x.coords()]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_plain(y) for y in x]
    return x


def _document(*argv, **fields):
    return list(argv), json.dumps(_plain(fields))


def _sampled(rng):
    """Four invariants, and three of every other action but verify, on drawn inputs."""
    s = sampling
    points = (s.sample_chart_point, s.sample_node_point, s.sample_eckardt_point, s.sample_ns_point, s.sample_km_point)

    def orth():
        return s.sample_orth_plus(rng, rng.randint(1, 6))

    def gamma1():
        return word_matrix(s.sample_hgamma1_word(rng, rng.randint(1, 4)))

    def gamma0():
        return word_matrix(s.sample_hgamma0_word(rng, rng.randint(1, 4)))

    def point():
        return rng.choice(points)(rng)

    cases = [(["invariants", "--lambda=" + ",".join(map(str, s.sample_lambda(rng)))], None) for _ in range(3)]
    cases.append((["invariants", "--lambda=" + ",".join(map(str, s.sample_lambda(rng, distinct=False)))], None))
    for _ in range(3):
        cases += [
            _document("orth", "check", matrix=orth()),
            _document("orth", "decompose", matrix=s.sample_orth_so0(rng, rng.randint(1, 6))),
            _document("orth", "disc-action", matrix=orth()),
            _document("orth", "to-s5", matrix=orth()),
            _document("herm", "check", matrix=rng.choice((gamma0, gamma1))()),
            _document("herm", "decompose", matrix=gamma1()),
            _document("herm", "mod2", matrix=gamma0()),
            _document("herm", "coset", matrix=gamma0()),
            _document("map", "z-to-tau", z=point()),
            _document("map", "tau-to-z", tau=psi(point())),
            _document("correspond", "o2h", matrix=orth()),
            _document(
                "correspond", "h2o",
                uses_t=bool(rng.randrange(2)), uses_w=bool(rng.randrange(2)),
                word=s.sample_hgamma0_word(rng, rng.randint(1, 4)),
            ),
            (["heegner", "--tau", json.dumps(_plain(psi(point())))], None),
        ]
    cases += [_document("heegner", tau=psi(point())) for _ in range(2)]
    return cases


# help, usage and input errors, the negative answers, and one verify suite
_FIXED = [
    (["--help"], None),
    (["verify", "--help"], None),
    (["orth", "--help"], None),
    ([], None),
    (["orth", "bogus"], None),
    (["verify", "--suite", "nonsense"], None),
    (["invariants", "--lambda", "-1,2,3,4,5"], None),
    (["invariants", "--lambda=0,1,2,3,4"], None),
    (["invariants", "--lambda=1,2,3"], None),
    (["invariants", "--lambda=1,x,3,4,5"], None),
    _document("orth", "check", matrix=[[2 * int(i == j) for j in range(6)] for i in range(6)]),
    _document("orth", "check", matrix=[[1, 2], [3, 4]]),
    _document("herm", "check", matrix=J_MAT),
    _document("herm", "check", matrix=[[[2 * int(i == j), 0] for j in range(4)] for i in range(4)]),
    _document("herm", "decompose", matrix=J_MAT),
    (["orth", "check"], '{"matrix": [[1, 0'),
    (["herm", "check"], "{}"),
    (["map", "z-to-tau"], "[]"),
    (["correspond", "h2o"], '{"uses_t": "false", "word": []}'),
    (["verify", "--suite", "delta-sing"], None),
]


def _run(argv, stdin):
    """cli.main on argv with stdin as its input: the exit code and stdout."""
    out = io.StringIO()
    with (
        mock.patch.dict(os.environ, COLUMNS=COLUMNS),
        mock.patch.object(sys, "stdin", io.StringIO(stdin or "")),
        contextlib.redirect_stdout(out),
    ):
        code = cli.main(argv)
    return code, out.getvalue()


def write():
    lines = []
    for argv, stdin in _sampled(random.Random(SEED)) + _FIXED:
        code, stdout = _run(argv, stdin)
        case = {"argv": argv, "stdin": stdin, "code": code, "stdout": stdout}
        lines.append(json.dumps(case, separators=(",", ":")))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("[\n" + ",\n".join(lines) + "\n]\n")


def _cases():
    return json.loads(DATA.read_text())


def test_envelopes_match_the_golden_file():
    cases = _cases()
    assert len(cases) == SAMPLED + len(_FIXED)
    assert [c["argv"] for c in cases if _run(c["argv"], c["stdin"]) != (c["code"], c["stdout"])] == []


def test_the_golden_file_covers_every_action_and_exit_code():
    cases = _cases()
    commands = {json.loads(c["stdout"])["command"] for c in cases}
    actions = {f"{name}.{action}" for name, (_, actions, _) in cli._DOCUMENT_COMMANDS.items() for action in actions}
    assert actions | {"invariants", "heegner", "verify", "help", "usage"} <= commands
    assert {c["code"] for c in cases} == {0, 1, 2}


if __name__ == "__main__":
    write()
