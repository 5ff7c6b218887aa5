#!/usr/bin/env python3
"""Coset census for the embedded level-two subgroup.

Samples random products of embedded level-two elements and the four
half-shift avatars, then groups the samples into right cosets of the
embedded base subgroup with the exact test  h1 * h2^{-1} in base
(upper-right block even).  coset_classify tabulates the base coset and
the four half-shift translates; the census reports how many cosets
beyond those five the sampled products reach, and cross-checks that
every tabulated label is consistent with the exact pairwise test.

Usage: python3 scripts/coset_census.py --samples 400 --seed 0
"""

import argparse
import sys
from collections import Counter

from hessk3.eisenstein import ONE, ZERO
from hessk3.hermitian import (
    B_COSETS,
    J_MAT,
    blocks,
    coset_classify,
    embed_from_hgamma0,
    from_blocks,
    word_matrix,
)
from hessk3.lattice import mat_conj_transpose, mat_id, mat_mul, mat_neg
from hessk3.sampling import make_rng, sample_hgamma0_word


def unitary_inverse(h):
    # h* J h = J, so h^{-1} = J^{-1} h* J with J^{-1} = -J
    return mat_mul(mat_mul(mat_neg(J_MAT), mat_conj_transpose(h)), J_MAT)


def in_base(h) -> bool:
    _, b, _, _ = blocks(h)
    return all(x.mod2() == (0, 0) for row in b for x in row)


def shift_avatar(b):
    one = mat_id(2, ONE, ZERO)
    return from_blocks(one, b, mat_id(2, ZERO, ZERO), one)


def build_pool(rng, steps):
    pool = [shift_avatar(b) for b in B_COSETS]
    for _ in range(steps):
        g = word_matrix(sample_hgamma0_word(rng, rng.randint(1, 3)))
        pool.append(embed_from_hgamma0(g))
    pool.extend([unitary_inverse(h) for h in list(pool)])
    return pool


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--length", type=int, default=6, help="factors per product")
    args = ap.parse_args(argv)

    rng = make_rng(args.seed)
    pool = build_pool(rng, steps=8)

    reps = []  # (representative, inverse, label) per coset discovered
    counts = Counter()
    for _ in range(args.samples):
        h = mat_id(4, ONE, ZERO)
        for _ in range(rng.randint(1, args.length)):
            h = mat_mul(h, rng.choice(pool))
        label = "base" if in_base(h) else coset_classify(h)
        for k, (_, rep_inv, rep_label) in enumerate(reps):
            if in_base(mat_mul(h, rep_inv)):
                if rep_label != label:
                    print(f"INCONSISTENT: {label} vs {rep_label}", file=sys.stderr)
                    return 1
                counts[k] += 1
                break
        else:
            reps.append((h, unitary_inverse(h), label))
            counts[len(reps) - 1] += 1

    print(f"samples={args.samples} seed={args.seed} length<={args.length}")
    tabulated = 0
    beyond = 0
    for k, (_, _, label) in enumerate(reps):
        tag = label if label != "uncovered" else "-"
        print(f"  coset {k:2d}  label={tag!s:>4}  members={counts[k]}")
        if label == "uncovered":
            beyond += 1
        else:
            tabulated += 1
    print(f"distinct cosets observed: {len(reps)}")
    print(f"  tabulated (base + half-shifts): {tabulated}")
    print(f"  beyond the tabulated translates: {beyond}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
