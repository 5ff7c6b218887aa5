"""Golden words of the four decompositions.

tests/data/words.json holds COUNT seeded inputs for each of decompose_so0,
orth_to_herm, decompose_hgamma1 and decompose_hgamma0, together with the
word each returned when the file was written.  The test recomputes every
word from the stored input, so a refactor of the word layer is checked for
byte identity without running the old code next to the new.  The inputs
are stored, not re-sampled, so a change to the samplers cannot move them.

The same inputs pin the cost of the word layer: each public entry point
certifies its answer once, so the number of matrix products it takes is
bounded, and a second proof of the same answer fails the bound.  The
verify suites that run the entry points are bounded the same way.

Regenerate only when a change to the words is intended:

    PYTHONPATH=src python3 tests/test_words.py
"""

import functools
import json
import random
import sys
from pathlib import Path

import pytest

from hessk3 import lattice, sampling, verify
from hessk3.correspond import decompose_so0, orth_to_herm
from hessk3.eisenstein import Eisenstein
from hessk3.hermitian import decompose_hgamma0, decompose_hgamma1, word_matrix

SEED = 2010
COUNT = 40
DATA = Path(__file__).parent / "data" / "words.json"

FUNCTIONS = {
    "decompose_so0": decompose_so0,
    "orth_to_herm": orth_to_herm,
    "decompose_hgamma1": decompose_hgamma1,
    "decompose_hgamma0": decompose_hgamma0,
}


def _enc(x):
    if isinstance(x, Eisenstein):
        return [x.a, x.b]
    if isinstance(x, (tuple, list)):
        return [_enc(y) for y in x]
    return x


def _dec(m):
    """A stored matrix: integer rows, or rows of [a, b] Eisenstein pairs."""
    return tuple(tuple(x if isinstance(x, int) else Eisenstein(*x) for x in r) for r in m)


def _inputs(rng):
    draws = {
        "decompose_so0": lambda: sampling.sample_orth_so0(rng, rng.randint(1, 10)),
        "orth_to_herm": lambda: sampling.sample_orth_plus(rng, rng.randint(1, 10)),
        "decompose_hgamma1": lambda: word_matrix(sampling.sample_hgamma1_word(rng, rng.randint(1, 5))),
        # a leading gA of an unconstrained matrix spreads the inputs over
        # GL2(F4), so the section lifts are pinned too
        "decompose_hgamma0": lambda: word_matrix(
            [("gA", sampling.sample_gl2_matrix(rng, 8))] + sampling.sample_hgamma0_word(rng, rng.randint(0, 4))
        ),
    }
    return {name: [draw() for _ in range(COUNT)] for name, draw in draws.items()}


def write():
    rng = random.Random(SEED)
    lines = []
    for name, xs in _inputs(rng).items():
        for x in xs:
            case = {"function": name, "input": _enc(x), "word": _enc(FUNCTIONS[name](x))}
            lines.append(json.dumps(case, separators=(",", ":")))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("[\n" + ",\n".join(lines) + "\n]\n")


def _cases(name):
    return [c for c in json.loads(DATA.read_text()) if c["function"] == name]


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_words_match_the_golden_file(name):
    cases = _cases(name)
    assert len(cases) == COUNT
    for case in cases:
        assert _enc(FUNCTIONS[name](_dec(case["input"]))) == case["word"]


# At most this many n x n products over the COUNT stored inputs, as (n, total).
# A word's matrix and its image take one large product per run of
# same-kind tokens, not one per token (hermitian._runs).
PRODUCT_CEILINGS = {
    "orth_to_herm": (6, 755),
    "decompose_so0": (6, 912),
    "decompose_hgamma1": (4, 265),
    "decompose_hgamma0": (4, 268),
}

# At most this many n x n products in one verify suite at seed 0 with the
# default sizes, as {n: total}.  The suites rest on the entry points'
# certificates, and a value a check shows, or one that rows share, is
# computed once, so a check that proves an answer a second time fails the
# bound.  No table is cached across calls, so the counts do not depend on
# what ran before in the process.  The 2x2 counts include the products of
# the blocks of each gA run, each of which saves a 4x4 or 6x6 product; the
# samplers take none, and the matrix action one per call.
SUITE_PRODUCT_CEILINGS = {
    "decompose-fuzz": {6: 1982, 4: 1189, 2: 745},
    "enr-iso": {6: 206, 2: 25},
    "group-iso": {6: 200, 4: 30, 2: 233},
    "heegner": {4: 9, 2: 12},
    "quotient-group": {6: 888},
}


def _product_sizes(monkeypatch) -> list:
    """The sizes of the matrix products taken from here on, in order."""
    exact = lattice.mat_mul
    sizes = []

    def counted(a, b):
        sizes.append(len(a))
        return exact(a, b)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("hessk3") and getattr(module, "mat_mul", None) is exact:
            monkeypatch.setattr(module, "mat_mul", counted)
    return sizes


@pytest.mark.parametrize("name", sorted(PRODUCT_CEILINGS))
def test_one_certificate_per_answer_bounds_the_products(name, monkeypatch):
    size, ceiling = PRODUCT_CEILINGS[name]
    sizes = _product_sizes(monkeypatch)
    for case in _cases(name):
        FUNCTIONS[name](_dec(case["input"]))
    assert sizes.count(size) <= ceiling


@pytest.mark.parametrize("suite", sorted(SUITE_PRODUCT_CEILINGS))
def test_suites_prove_each_answer_once(suite, monkeypatch):
    sizes = _product_sizes(monkeypatch)
    verify.run_suite(suite, 0)
    ceilings = SUITE_PRODUCT_CEILINGS[suite]
    counts = {n: sizes.count(n) for n in ceilings}
    assert all(counts[n] <= ceilings[n] for n in ceilings), counts


# Word length against the largest entry bit length of the input: for each
# function, (a, b) with tokens <= a * bits + b, b the least intercept for
# slope a over the stored inputs and the seeded long inputs below.  Every
# descent step at least halves an integer entry or lowers a norm product,
# so words grow linearly in bits; the gate pins that workload.  Measured
# worst ratios on the stored inputs, all at small inputs: 7.0 tokens per
# bit for decompose_so0, 4.1 for orth_to_herm, 2.0 for both Hermitian ones.
LENGTH_BOUNDS = {
    "decompose_so0": (3, 20),
    "orth_to_herm": (3, 8),
    "decompose_hgamma1": (2, 0),
    "decompose_hgamma0": (2, 0),
}


@functools.cache
def _long_inputs() -> dict:
    """Five inputs per function from words of each of three long lengths."""
    rng = random.Random(11)
    out = {name: [] for name in FUNCTIONS}
    for length in (16, 32, 48):
        for _ in range(5):
            out["decompose_so0"].append(sampling.sample_orth_so0(rng, length))
            out["orth_to_herm"].append(sampling.sample_orth_plus(rng, length))
            out["decompose_hgamma1"].append(word_matrix(sampling.sample_hgamma1_word(rng, length // 2)))
            out["decompose_hgamma0"].append(word_matrix(sampling.sample_hgamma0_word(rng, length // 2)))
    return out


def _bits(m) -> int:
    """The largest bit length of an entry, or of an Eisenstein coordinate."""
    coords = (c for r in m for x in r for c in ((x.a, x.b) if isinstance(x, Eisenstein) else (x,)))
    return max(abs(c).bit_length() for c in coords)


def _word(name, answer):
    """The token word in a function's answer."""
    if name == "orth_to_herm":
        return answer[2]
    return answer[1] if name == "decompose_hgamma0" else answer


@pytest.mark.parametrize("name", sorted(LENGTH_BOUNDS))
def test_words_grow_linearly_in_the_input_bits(name):
    a, b = LENGTH_BOUNDS[name]
    for x in [_dec(case["input"]) for case in _cases(name)] + _long_inputs()[name]:
        assert len(_word(name, FUNCTIONS[name](x))) <= a * _bits(x) + b


if __name__ == "__main__":
    write()
