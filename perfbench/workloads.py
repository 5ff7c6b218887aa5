"""The four workloads: their seeded inputs, the timed operation, and the checks.

A workload is a fixed list of slots; one round runs each slot once.  A slot
draws its next input from the workload's seeded stream, so the same seed
gives the same inputs in the same order.  `execute` is the timed part and
calls only the program; `check` is untimed and compares the output with
values the benchmark computes itself (`exact`) or with properties the
method must have.

The known `decompose_hgamma1` fault ("no descent in row four") is reached
by about one input in 250 of `transport` and one in 950 of `herm
decompose`, so an input stream that depended on the seed would make the
failed share differ from seed to seed.  The inputs that can reach it
therefore come from fixed streams that do not depend on the seed: the
`transport` pool, run in a seeded order, and the `herm decompose` inputs of
`cli-cold`.  An operation that reaches the fault is counted as failed, like
any other operation that raises or exits with an error.
"""

from __future__ import annotations

import json
import os
import random
import sys

import exact
import hostspeed

# Word lengths of the transported O+ elements: from 4 (short) to 12 (long),
# in turn through the pool.
TRANSPORT_LENGTHS = tuple(range(4, 13))
# The transport pool: entry k is `sample_orth_plus` of the fixed stream
# random.Random(0) at length TRANSPORT_LENGTHS[k % 9]; a round is the whole pool.
TRANSPORT_POOL = 45 * len(TRANSPORT_LENGTHS)

# Verify seeds for `certify`: 0 to 39 without 2, 6, 7 and 28, whose
# decompose-fuzz suite reaches the decompose_hgamma1 fault, so that their
# verify runs exit 1 on those seeds only (see README.md, "The known fault").
VERIFY_SEEDS = tuple(n for n in range(40) if n not in (2, 6, 7, 28))

LOCI = ("node", "eckardt", "ns", "km", "generic")


class Item:
    __slots__ = ("kind", "data", "expect")

    def __init__(self, kind, data, expect=None):
        self.kind = kind
        self.data = data
        self.expect = expect


class Slot:
    def __init__(self, kind, draw):
        self.kind = kind
        self.draw = draw


# -- conversions between the program's types and the benchmark's -----------


def eis_pairs(m):
    return tuple(tuple((x.a, x.b) for x in row) for row in m)


def herm_word_pairs(word):
    return [(k, eis_pairs(p)) if k == "gA" else (k, tuple(p)) for k, p in word]


def field_coords(x):
    return (x.a, x.b, x.c, x.d)


def point_coords(z):
    return tuple(field_coords(x) for x in z)


def tau_coords(tau):
    return tuple(tuple(field_coords(x) for x in row) for row in tau)


def fmt_field(x):
    return [str(c) for c in x]


def fmt_herm_word(word):
    return [[k, [[list(x) for x in row] for row in p]] if k == "gA" else [k, list(p)] for k, p in word]


def parse_herm_word(raw):
    return [
        (k, tuple(tuple(tuple(x) for x in row) for row in p)) if k == "gA" else (k, tuple(p))
        for k, p in raw
    ]


# -- the workloads -------------------------------------------------------------


class Workload:
    name = ""
    cold = False
    # operations per run: a fixed number of rounds, or None for whole rounds
    # until --seconds have passed
    rounds = None
    # whether a run holds enough operations for a 90th percentile
    tail = True
    # rounds in a traced run, and how many of the slots it runs (None: all);
    # fixed, so that its span counts repeat exactly
    trace_rounds = 1
    trace_slots = None

    def __init__(self, root: str, seed: int):
        self.root = root
        self.seed = seed
        self.host_samples: list = []  # calibration kernel times around the current op
        self.rng = random.Random(2 * seed)
        self.warm_rng = random.Random(2 * seed + 1)

    def setup(self) -> None:
        """Import the program and warm it up; everything before the first timed op."""

    def slots(self) -> list:
        raise NotImplementedError

    def execute(self, item):
        raise NotImplementedError

    def check(self, item, output) -> bool:
        raise NotImplementedError

    def failure(self, output):
        """Why an operation that returned `output` failed, or None if it did not."""
        return None


class Transport(Workload):
    name = "transport"

    def setup(self):
        from hessk3 import correspond, hermitian, sampling

        self.correspond, self.hermitian, self.sampling = correspond, hermitian, sampling
        self.pool: list = []
        self.pool_rng = random.Random(0)
        # warm up on the pool's first length-4 and length-12 entries, the same
        # at every seed, so that set-up time does not depend on the seed
        for k in (0, len(TRANSPORT_LENGTHS) - 1):
            self.execute(self.entry(k))

    def entry(self, k):
        """Pool entry k, drawn (untimed) the first time an operation needs it or a later one."""
        while len(self.pool) <= k:
            length = TRANSPORT_LENGTHS[len(self.pool) % len(TRANSPORT_LENGTHS)]
            self.pool.append(Item(length, self.sampling.sample_orth_plus(self.pool_rng, length)))
        return self.pool[k]

    def slots(self):
        order = list(range(TRANSPORT_POOL))
        self.rng.shuffle(order)
        return [Slot(TRANSPORT_LENGTHS[k % len(TRANSPORT_LENGTHS)], lambda k=k: self.entry(k)) for k in order]

    def execute(self, item):
        c, h = self.correspond, self.hermitian
        uses_t, uses_w, word = c.orth_to_herm(item.data)
        mat = h.word_matrix(word)
        lift, tail = h.decompose_hgamma0(mat)
        back = c.herm_to_orth(uses_t, uses_w, word)
        return uses_t, uses_w, word, mat, lift, tail, back

    def check(self, item, output):
        uses_t, uses_w, word, mat, lift, tail, back = output
        g = item.data
        if not (exact.is_isometry(back) and (back == g or back == tuple(tuple(-x for x in r) for r in g))):
            return False
        if uses_t != (exact.det(g) == -1):
            return False
        h = exact.word_product(herm_word_pairs(word))
        if h != eis_pairs(mat) or not exact.is_j_unitary(h):
            return False
        lifted = exact.token_matrix(("gA", eis_pairs(lift)))
        return exact.emat_mul(lifted, exact.word_product(herm_word_pairs(tail))) == h


class Points(Workload):
    name = "points"
    trace_rounds = 20

    def setup(self):
        from hessk3 import cubic, domain, heegner, hermitian, sampling
        from hessk3.eisenstein import Eisenstein

        self.cubic, self.domain, self.heegner, self.hermitian = cubic, domain, heegner, hermitian
        self.sampling, self.eisenstein = sampling, Eisenstein
        self.samplers = {
            "node": sampling.sample_node_point,
            "eckardt": sampling.sample_eckardt_point,
            "ns": sampling.sample_ns_point,
            "km": sampling.sample_km_point,
            "generic": sampling.sample_chart_point,
        }
        for locus in LOCI:
            self.execute(self._draw(locus, self.warm_rng))

    def _draw(self, locus, rng):
        s = self.sampling
        z = self.samplers[locus](rng)
        lam = s.sample_lambda(rng)
        g = self.hermitian.word_matrix(s.sample_hgamma1_word(rng, rng.randint(1, 4)))
        g_inv = tuple(tuple(self.eisenstein(*x) for x in row) for row in exact.j_inverse(eis_pairs(g)))
        return Item(locus, (z, lam, g, g_inv))

    def slots(self):
        return [Slot(locus, lambda locus=locus: self._draw(locus, self.rng)) for locus in LOCI]

    def execute(self, item):
        z, lam, g, _ = item.data
        flags = self.heegner.perp_equivalence(z)
        tau = self.domain.psi(z)
        back = self.domain.psi_inv(tau)
        moved = self.hermitian.moebius(g, tau)
        report = self.cubic.classify(lam)
        return flags, tau, back, moved, report

    def check(self, item, output):
        flags, tau, back, moved, report = output
        z, lam, g, g_inv = item.data
        zc = point_coords(z)
        if point_coords(back) != zc or tau_coords(tau) != exact.psi(zc):
            return False
        want = exact.chart_flags(zc)
        if want != exact.tau_flags(exact.psi(zc)):
            return False
        if item.kind != "generic" and not want[item.kind]:
            return False
        if {k: getattr(flags, k) for k in want} != want:
            return False
        if tau_coords(self.hermitian.moebius(g_inv, moved)) != tau_coords(tau):
            return False
        return report_matches(report, exact.invariants(lam))


def report_matches(report, want) -> bool:
    inv = report.invariants
    got = {
        "I8": inv.i8,
        "I16": inv.i16,
        "I24": inv.i24,
        "I32": inv.i32,
        "I40": inv.i40,
        "I100": inv.i100,
        "delta_sing": report.delta_sing,
        "delta_km": report.delta_km,
        "sylvester_degenerate": report.sylvester_degenerate,
        "singular": report.singular,
        "eckardt": report.eckardt,
        "kummer": report.kummer,
    }
    return got == want


# -- cold workloads: one fresh process per operation ------------------------


class ColdWorkload(Workload):
    cold = True

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.traced = False
        self.child_traces: list = []  # one tracer snapshot per traced process

    def command(self, args):
        if self.traced:
            return [sys.executable, os.path.join(self.root, "perfbench", "trace_child.py"), *args]
        return [sys.executable, "-m", "hessk3.cli", *args]

    def execute(self, item):
        args, stdin = item.data
        code, stdout, stderr = hostspeed.run_child(self.command(args), stdin, self.root, self.env, self.host_samples)
        if self.traced:
            stderr, _, last = stderr.rstrip("\n").rpartition("\n")
            self.child_traces.append(json.loads(last))
        return code, stdout, stderr

    def failure(self, output):
        """A process that exits with an error envelope has failed, not given a wrong output."""
        code, stdout, _ = output
        env = envelope(stdout)
        if code != 0 and env is not None and env["status"] == "error":
            return f"exit {code}: " + "; ".join(map(str, env["diagnostics"]))
        return None


def envelope(stdout):
    """The one JSON object a CLI command prints, or None."""
    lines = stdout.splitlines()
    if len(lines) != 1:
        return None
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError:
        return None
    keys = {"command", "inputs", "outputs", "status", "diagnostics"}
    return doc if isinstance(doc, dict) and set(doc) == keys else None


class Certify(ColdWorkload):
    name = "certify"
    suites = 8
    # three ~14 s operations, verify seeds A, B, A: a fixed count, so every
    # run makes the cross-seed check-id comparison and the byte-for-byte
    # comparison of a repeated seed, whatever the host's speed
    rounds = 1
    tail = False
    trace_slots = 1

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.check_ids = None
        self.stdout_by_seed: dict = {}

    def slots(self):
        first, second = self.rng.sample(VERIFY_SEEDS, 2)
        return [Slot("verify", lambda n=n: self._item(n)) for n in (first, second, first)]

    @staticmethod
    def _item(verify_seed):
        return Item("verify", (["verify", "--suite", "all", "--seed", str(verify_seed)], ""), expect=verify_seed)

    def check(self, item, output):
        code, stdout, _ = output
        env = envelope(stdout)
        if code != 0 or env is None or env["status"] != "ok":
            return False
        report = env["outputs"]
        if report.get("seed") != item.expect or report.get("passed") is not True:
            return False
        suites = report["suites"]
        if len(suites) != self.suites or not all(s["passed"] for s in suites):
            return False
        if not all(c["passed"] for s in suites for c in s["checks"]):
            return False
        ids = [(s["suite"], tuple(c["check_id"] for c in s["checks"])) for s in suites]
        if self.check_ids is None:
            self.check_ids = ids
        elif ids != self.check_ids:
            return False
        first = self.stdout_by_seed.setdefault(item.expect, stdout)
        return first == stdout


class CliCold(ColdWorkload):
    name = "cli-cold"

    def setup(self):
        from hessk3 import correspond, sampling
        from hessk3.eisenstein import Eisenstein

        self.sampling, self.correspond, self.eisenstein = sampling, correspond, Eisenstein
        self.tokens = correspond.ORTH_TOKEN_MATS
        # `herm decompose` inputs: a fixed stream, one input per round (see the module docstring)
        self.decompose_rng = random.Random(0)

    def program_word(self, pairs):
        """A Hermitian word of (kind, payload) pairs as the program's tokens."""
        return [
            (k, tuple(tuple(self.eisenstein(*x) for x in row) for row in p)) if k == "gA" else (k, p)
            for k, p in pairs
        ]

    def slots(self):
        return [Slot(name, lambda fn=fn: self._item(fn)) for name, fn in self.commands()]

    def _item(self, fn):
        args, stdin, check = fn(self.rng)
        return Item(args[0], (args, stdin), expect=check)

    def check(self, item, output):
        code, stdout, _ = output
        env = envelope(stdout)
        return code == 0 and env is not None and env["status"] == "ok" and item.expect(env["outputs"])

    def commands(self):
        s = self.sampling

        def orth_doc(g):
            return json.dumps({"matrix": [list(r) for r in g]})

        def herm_doc(h):
            return json.dumps({"matrix": [[list(x) for x in row] for row in h]})

        def invariants(rng):
            lam = s.sample_lambda(rng)
            want = {k: (None if v is None else v if isinstance(v, bool) else str(v)) for k, v in exact.invariants(lam).items()}
            # "--lambda=" form: a leading minus sign would read as an option
            return ["invariants", "--lambda=" + ",".join(str(x) for x in lam)], "", lambda out: out == want

        def orth_check(rng):
            g = s.sample_orth_plus(rng, rng.randint(2, 6))
            want = {
                "is_isometry": True,
                "determinant": int(exact.det(g)),
                "orientation": "plus",
                "block_parity": exact.block_parity(g),
                "in_k3_kernel": exact.acts_trivially(g, exact.DISC_GROUP),
                "in_enr_kernel": exact.acts_trivially(g, exact.TWO_TORSION),
            }
            return ["orth", "check"], orth_doc(g), lambda out: out == want

        def orth_decompose(rng):
            g = s.sample_orth_so0(rng, rng.randint(2, 6))

            def ok(out):
                prod = exact.identity(6)
                for name, p in out["word"]:
                    prod = exact.mat_mul(prod, exact.mat_pow(self.tokens[name], p))
                return prod == g

            return ["orth", "decompose"], orth_doc(g), ok

        def orth_disc_action(rng):
            g = s.sample_orth_plus(rng, rng.randint(2, 6))
            want = [[str(x) for x in exact.disc_image(g, d)] for d in exact.DISC_GENS]
            return ["orth", "disc-action"], orth_doc(g), lambda out: out == {"generator_images": want}

        def orth_to_s5(rng):
            g = s.sample_orth_plus(rng, rng.randint(2, 6))
            want = {"permutation": list(exact.s5_permutation(g))}
            return ["orth", "to-s5"], orth_doc(g), lambda out: out == want

        def gamma0(rng, extra=()):
            word = herm_word_pairs(s.sample_hgamma0_word(rng, rng.randint(1, 5)))
            return exact.word_product(word + list(extra))

        def herm_check(rng):
            h = gamma0(rng)
            want = {"membership": exact.level(h)}
            return ["herm", "check"], herm_doc(h), lambda out: out == want and want["membership"] in ("gamma0", "gamma1")

        def herm_decompose(_):
            rng = self.decompose_rng
            h = exact.word_product(herm_word_pairs(s.sample_hgamma1_word(rng, rng.randint(1, 5))))
            return ["herm", "decompose"], herm_doc(h), lambda out: exact.word_product(parse_herm_word(out["word"])) == h

        def herm_mod2(rng):
            h = gamma0(rng)
            return ["herm", "mod2"], herm_doc(h), lambda out: out == {"matrix_f4": exact.mod2(h)}

        def herm_coset(rng):
            h = gamma0(rng, [("gBu", tuple(rng.randint(-1, 1) for _ in range(4)))])
            want = {"coset": exact.coset(h)}
            return ["herm", "coset"], herm_doc(h), lambda out: out == want

        def chart_point(rng):
            locus = rng.choice(LOCI)
            sampler = s.sample_chart_point if locus == "generic" else getattr(s, f"sample_{locus}_point")
            return locus, point_coords(sampler(rng))

        def fmt_tau(tau):
            return [[fmt_field(x) for x in row] for row in tau]

        def map_z_to_tau(rng):
            _, z = chart_point(rng)
            doc = json.dumps({"z": [fmt_field(x) for x in z]})
            return ["map", "z-to-tau"], doc, lambda out: out == {"tau": fmt_tau(exact.psi(z))}

        def map_tau_to_z(rng):
            _, z = chart_point(rng)
            doc = json.dumps({"tau": fmt_tau(exact.psi(z))})
            return ["map", "tau-to-z"], doc, lambda out: out == {"z": [fmt_field(x) for x in z]}

        def correspond_o2h(rng):
            g = s.sample_orth_plus(rng, rng.randint(2, 8))
            minus_g = tuple(tuple(-x for x in r) for r in g)

            def ok(out):
                # the word and flags map back to +-g, the round trip `transport` checks
                word = parse_herm_word(out["word"])
                back = self.correspond.herm_to_orth(out["uses_t"], out["uses_w"], self.program_word(word))
                return (
                    out["uses_t"] == (exact.det(g) == -1)
                    and exact.level(exact.word_product(word)) in ("gamma0", "gamma1")
                    and exact.is_isometry(back)
                    and back in (g, minus_g)
                )

            return ["correspond", "o2h"], orth_doc(g), ok

        def correspond_h2o(rng):
            word = herm_word_pairs(s.sample_hgamma0_word(rng, rng.randint(1, 5)))
            uses_t, uses_w = bool(rng.randrange(2)), bool(rng.randrange(2))
            doc = json.dumps({"uses_t": uses_t, "uses_w": uses_w, "word": fmt_herm_word(word)})
            h = exact.word_product(word)

            def ok(out):
                # an isometry whose transport gives back the flags and the word, up to a unit
                g = tuple(tuple(r) for r in out["matrix"])
                if not (exact.is_isometry(g) and exact.det(g) == (-1 if uses_t else 1)):
                    return False
                back_t, back_w, back = self.correspond.orth_to_herm(g)
                return (back_t, back_w) == (uses_t, uses_w) and exact.equal_mod_units(
                    exact.word_product(herm_word_pairs(back)), h
                )

            return ["correspond", "h2o"], doc, ok

        def heegner(rng):
            locus, z = chart_point(rng)
            tau = exact.psi(z)
            want = exact.tau_flags(tau)

            def ok(out):
                return out == want and (locus == "generic" or out[locus])

            return ["heegner", "--tau", json.dumps(fmt_tau(tau))], "", ok

        return [
            ("invariants", invariants),
            ("orth.check", orth_check),
            ("orth.decompose", orth_decompose),
            ("orth.disc-action", orth_disc_action),
            ("orth.to-s5", orth_to_s5),
            ("herm.check", herm_check),
            ("herm.decompose", herm_decompose),
            ("herm.mod2", herm_mod2),
            ("herm.coset", herm_coset),
            ("map.z-to-tau", map_z_to_tau),
            ("map.tau-to-z", map_tau_to_z),
            ("correspond.o2h", correspond_o2h),
            ("correspond.h2o", correspond_h2o),
            ("heegner", heegner),
        ]


WORKLOADS = {w.name: w for w in (Certify, Transport, Points, CliCold)}
