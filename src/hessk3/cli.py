"""JSON command line.

Every subcommand prints a single envelope

    {"command": ..., "inputs": ..., "outputs": ..., "status": ..., "diagnostics": [...]}

with sorted keys and no timestamps, so identical inputs give identical
bytes.  Numeric formats: rationals are "p/q" strings (plain integers
allowed on input), Eisenstein integers are [a, b] pairs, field elements
are 4-tuples of rational strings (coefficients of 1, sqrt3, i, sqrt3 i),
matrices are row-major nested lists.  The encoder _json_value is the one
home of these formats: each subcommand returns the library's values as
they are, and the envelope is serialized once.

Exit codes: 0 on success, 1 when a membership or verification check comes
back negative or an internal invariant trips, 2 for unusable input or a
usage error (whose envelope has command "usage" and echoes the arguments),
and 2 with no output when the envelope cannot be written (a closed pipe).
Each subcommand returns its inputs, outputs and exit code, and main is
the one place that prints an envelope.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .eisenstein import Eisenstein
from .errors import InvariantViolation, integer, rational

__all__ = ["main"]

# verify.SUITES in sorted order, so that parsing a command line does not
# import verify; a test keeps the two in step
_SUITES = (
    "decompose-fuzz",
    "delta-km",
    "delta-sing",
    "disc-group",
    "enr-iso",
    "group-iso",
    "heegner",
    "quotient-group",
)


# -- input parsing --------------------------------------------------------------


def _fail(field: str, reason: str):
    raise ValueError(f"{field}: {reason}")


def parse_rational(v, field: str) -> Fraction:
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            _fail(field, f"bad rational {v!r} ({exc})")
    return rational(v, field)


def parse_flag(doc: dict, name: str) -> bool:
    """A JSON boolean; a missing key means false."""
    v = doc.get(name, False)
    if not isinstance(v, bool):
        _fail(name, f"expected a JSON boolean, got {type(v).__name__}")
    return v


def parse_eisenstein(v, field: str) -> Eisenstein:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        _fail(field, "expected a two-element integer array")
    return Eisenstein(integer(v[0], field + "[0]"), integer(v[1], field + "[1]"))


def parse_tower(v, field: str) -> Cyclo12:
    from .tower import Cyclo12

    if not isinstance(v, (list, tuple)) or len(v) != 4:
        _fail(field, "expected a four-element array of rational strings")
    return Cyclo12(*(parse_rational(x, f"{field}[{i}]") for i, x in enumerate(v)))


def _parse_matrix(v, field: str, n: int, entry, shape: str, row_of: str = "entries"):
    if not isinstance(v, (list, tuple)) or len(v) != n:
        _fail(field, f"expected a {n}x{n} {shape}")
    rows = []
    for i, row in enumerate(v):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            _fail(field, f"row {i} is not a list of {n} {row_of}")
        rows.append(tuple(entry(x, f"{field}[{i}][{j}]") for j, x in enumerate(row)))
    return tuple(rows)


def parse_int_matrix(v, field: str, n: int):
    return _parse_matrix(v, field, n, integer, "integer matrix", "integers")


def parse_eis_matrix(v, field: str, n: int):
    return _parse_matrix(v, field, n, parse_eisenstein, "matrix of [a, b] pairs")


def parse_tower_matrix(v, field: str, n: int):
    return _parse_matrix(v, field, n, parse_tower, "matrix of field elements")


def parse_point(v, field: str):
    # domain.chart_point checks the number of coordinates
    if not isinstance(v, (list, tuple)):
        _fail(field, "expected six field elements")
    return tuple(parse_tower(x, f"{field}[{i}]") for i, x in enumerate(v))


def parse_herm_word(v, field: str):
    if not isinstance(v, (list, tuple)):
        _fail(field, "expected a list of tokens")
    word = []
    for i, tok in enumerate(v):
        where = f"{field}[{i}]"
        if not isinstance(tok, (list, tuple)) or len(tok) != 2:
            _fail(where, "expected [kind, payload]")
        kind = tok[0]
        if kind == "gA":
            word.append(("gA", parse_eis_matrix(tok[1], where + ".payload", 2)))
        elif kind in ("gBu", "gBl"):
            payload = tok[1]
            if not isinstance(payload, (list, tuple)) or len(payload) != 4:
                _fail(where, "translation payload must be four integers")
            word.append((kind, tuple(integer(x, f"{where}.payload[{j}]") for j, x in enumerate(payload))))
        else:
            _fail(where, f"unknown token kind {kind!r}")
    return word


def parse_json(text: str, field: str):
    # the decoder recurses once per nesting level, so a deep enough
    # document raises RecursionError rather than JSONDecodeError
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{field}: {exc}") from None


def load_document(args) -> dict:
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    doc = parse_json(text, "input document")
    if not isinstance(doc, dict):
        raise ValueError("input document: expected a JSON object")
    return doc


def field_of(doc: dict, name: str):
    if name not in doc:
        raise ValueError(f"{name}: missing from the input document")
    return doc[name]


# -- output formatting ---------------------------------------------------------


def _json_value(x):
    """The one home of the exact formats: json.dumps calls it for each value
    that is not already JSON (tuples, NamedTuples included, are arrays)."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Eisenstein):
        return [x.a, x.b]
    from .tower import Cyclo12

    if isinstance(x, Cyclo12):
        return [str(c) for c in x.coords()]
    raise TypeError(f"no JSON form for {type(x).__name__}")


def emit(command: str, inputs, outputs, code: int, status: str = "ok", diagnostics=()) -> int:
    doc = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "status": status,
        "diagnostics": list(diagnostics),
    }
    text = json.dumps(doc, sort_keys=True, default=_json_value)
    try:
        print(text, flush=True)
    except OSError:
        # stdout is gone (a reader that closed its pipe): no envelope can
        # be written, and stdout goes to devnull so that the flush at exit
        # cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


# -- subcommands ----------------------------------------------------------------


def cmd_invariants(args):
    from . import cubic

    # cubic.classify checks the number of coefficients
    lam = tuple(parse_rational(p.strip(), f"lambda[{i}]") for i, p in enumerate(args.lam.split(",")))
    outputs = cubic.classify(lam)._asdict()
    outputs.update((k.upper(), v) for k, v in outputs.pop("invariants")._asdict().items())
    return {"lambda": lam}, outputs, 0


def cmd_orth(args):
    from . import lattice

    g = parse_int_matrix(field_of(load_document(args), "matrix"), "matrix", 6)
    inputs = {"matrix": g}
    if args.action == "check":
        # one isometry test; the rest take it as known
        ok = lattice.is_orthogonal(g)
        outputs = {"is_isometry": ok}
        if ok:
            outputs["determinant"] = lattice.det_int(g)
            outputs["orientation"] = lattice._orientation(g)
            outputs["block_parity"] = lattice._block_parity(g)
            if outputs["orientation"] == "plus":
                outputs["in_k3_kernel"] = lattice._in_k3(g)
                outputs["in_enr_kernel"] = lattice._in_enr(g)
        return inputs, outputs, 0 if ok else 1
    if args.action == "decompose":
        from . import correspond

        return inputs, {"word": correspond.decompose_so0(g)}, 0
    if args.action == "disc-action":
        # an element is stored as 6x mod 6; print the coset vector x
        rows = [[Fraction(r, 6) for r in img] for img in lattice.disc_action(g)]
        return inputs, {"generator_images": rows}, 0
    return inputs, {"permutation": lattice.to_s5(g)}, 0


def cmd_herm(args):
    from . import hermitian

    h = parse_eis_matrix(field_of(load_document(args), "matrix"), "matrix", 4)
    inputs = {"matrix": h}
    if args.action == "check":
        level = hermitian.membership(h)
        return inputs, {"membership": level}, 0 if level != "none" else 1
    if args.action == "decompose":
        return inputs, {"word": hermitian.decompose_hgamma1(h)}, 0
    if args.action == "mod2":
        return inputs, {"matrix_f4": hermitian.f_mod2(h)}, 0
    return inputs, {"coset": hermitian.coset_classify(h)}, 0


def cmd_map(args):
    from .domain import psi, psi_inv

    doc = load_document(args)
    if args.action == "z-to-tau":
        z = parse_point(field_of(doc, "z"), "z")
        return {"z": z}, {"tau": psi(z)}, 0
    tau = parse_tower_matrix(field_of(doc, "tau"), "tau", 2)
    return {"tau": tau}, {"z": psi_inv(tau)}, 0


def cmd_correspond(args):
    from . import correspond

    doc = load_document(args)
    if args.action == "o2h":
        g = parse_int_matrix(field_of(doc, "matrix"), "matrix", 6)
        uses_t, uses_w, word = correspond.orth_to_herm(g)
        return {"matrix": g}, {"uses_t": uses_t, "uses_w": uses_w, "word": word}, 0
    word = parse_herm_word(field_of(doc, "word"), "word")
    uses_t = parse_flag(doc, "uses_t")
    uses_w = parse_flag(doc, "uses_w")
    inputs = {"uses_t": uses_t, "uses_w": uses_w, "word": word}
    return inputs, {"matrix": correspond.herm_to_orth(uses_t, uses_w, word)}, 0


def cmd_heegner(args):
    from . import heegner

    if args.tau is not None:
        raw = parse_json(args.tau, "tau")
    else:
        raw = field_of(load_document(args), "tau")
    tau = parse_tower_matrix(raw, "tau", 2)
    return {"tau": tau}, heegner.heegner_membership(tau)._asdict(), 0


def cmd_verify(args):
    from . import verify

    if args.suite == "all":
        report = verify.run_all(args.seed)
    else:
        report = verify.run_suite(args.suite, args.seed)
    return {"suite": args.suite, "seed": args.seed}, report, 0 if report["passed"] else 1


# the subcommands that read one JSON document and take an action
_DOCUMENT_COMMANDS = {
    "orth": ("6x6 isometry tools", ["check", "decompose", "disc-action", "to-s5"], cmd_orth),
    "herm": ("4x4 Hermitian group tools", ["check", "decompose", "mod2", "coset"], cmd_herm),
    "map": ("chart point to half-space matrix and back", ["z-to-tau", "tau-to-z"], cmd_map),
    "correspond": ("transport between the two groups", ["o2h", "h2o"], cmd_correspond),
}

_INPUT_HELP = "JSON document path (default stdin)"


# -- wiring ----------------------------------------------------------------------


class _Help(Exception):
    """-h or --help was given; carries the help text."""


class _Parser(argparse.ArgumentParser):
    # a usage error becomes an exit-2 envelope, not usage text on stderr,
    # and help an exit-0 envelope, not text and a SystemExit; subparsers
    # inherit the class
    def error(self, message):
        raise ValueError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())


def _bind_lambda(argv: list) -> list:
    """Join "--lambda VALUE" into "--lambda=VALUE": as a word of its own, a
    value such as -1,2,3,4,5 reads as an unknown option."""
    if "--lambda" in argv[:-1]:
        i = argv.index("--lambda")
        return argv[:i] + [f"--lambda={argv[i + 1]}"] + argv[i + 2 :]
    return argv


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hessk3", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="classical invariants and loci of a quintuple")
    p.add_argument("--lambda", dest="lam", required=True, metavar="R,R,R,R,R")
    p.set_defaults(func=cmd_invariants)

    for name, (text, actions, func) in _DOCUMENT_COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("action", choices=actions)
        p.add_argument("--input", help=_INPUT_HELP)
        p.set_defaults(func=func)

    p = sub.add_parser("heegner", help="divisor membership of a half-space point")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--tau", help="inline JSON 2x2 matrix of field elements")
    source.add_argument("--input", help=_INPUT_HELP)
    p.set_defaults(func=cmd_heegner)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", default="all", choices=[*_SUITES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and print its one envelope; returns the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command, inputs = "usage", {"argv": argv}
    try:
        args = build_parser().parse_args(_bind_lambda(argv))
        command, inputs = args.command, {}
        if getattr(args, "action", None):
            command = f"{command}.{args.action}"
        # printing stays inside the try: an output integer too long for
        # str() is an input error like any other
        return emit(command, *args.func(args))
    except _Help as exc:
        return emit("help", inputs, {"text": str(exc)}, 0)
    except InvariantViolation as exc:
        return emit(command, inputs, None, 1, "error", [str(exc)])
    except (ValueError, OSError) as exc:
        return emit(command, inputs, None, 2, "error", [str(exc)])


if __name__ == "__main__":
    sys.exit(main())
