#!/usr/bin/env python3
"""Weight table for the classical invariants and the two discriminants.

Evaluates every invariant at a random five-tuple and at its rescaling by
c, prints the exact ratio as a power of c, and demonstrates the two
discriminant identities at the same point: the product form of the
singular-locus discriminant, and the bridge form of the Kummer one.

Usage: python3 scripts/invariant_weights.py --seed 0 --scale 3/2
"""

import argparse
import sys
from fractions import Fraction

from hessk3 import cubic
from hessk3.poly import elem_sym_polys
from hessk3.sampling import make_rng, sample_lambda


def power_of(ratio: Fraction, c: Fraction) -> str:
    # c > 1; peel factors of c off the exact ratio until it hits 1
    if ratio <= 0:
        return "not a pure power"
    k = 0
    while ratio != 1 and abs(k) < 200:
        if ratio > 1:
            ratio /= c
            k += 1
        else:
            ratio *= c
            k -= 1
    return f"c^{k}" if ratio == 1 else "not a pure power"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", type=Fraction, default=Fraction(3, 2))
    args = ap.parse_args(argv)
    c = args.scale
    if c <= 1:
        ap.error("scale must be a rational greater than one")

    rng = make_rng(args.seed)
    lam = sample_lambda(rng)
    scaled = tuple(x * c for x in lam)
    print(f"lambda = ({', '.join(str(x) for x in lam)}),  c = {c}")

    inv = cubic.classical_invariants(lam)
    inv_c = cubic.classical_invariants(scaled)
    rows = [(f"I{w}", getattr(inv, f"i{w}"), getattr(inv_c, f"i{w}"))
            for w in (8, 16, 24, 32, 40, 100)]
    rows.append(("delta_sing", cubic.delta_sing(lam), cubic.delta_sing(scaled)))
    rows.append(("delta_km", cubic.delta_km(lam), cubic.delta_km(scaled)))
    print(f"{'invariant':>10}  {'weight':>7}  value")
    for name, v, vc in rows:
        weight = power_of(vc / v, c) if v else "0"
        print(f"{name:>10}  {weight:>7}  {v}")

    s5 = elem_sym_polys()[4].eval(lam)
    bridge = cubic.delta_km_bridge_poly().eval(lam)
    lhs = s5 ** 3 * cubic.delta_km(lam)
    print(f"sigma5^3 * delta_km = {lhs}  ==  bridge form = {bridge}")
    kummer = cubic._kummer_form(inv)
    print(f"I8*I24 + 8*I32 = {kummer}  ==  sigma5^4 * bridge = {s5 ** 4 * bridge}")
    return 0 if lhs == bridge and kummer == s5 ** 4 * bridge else 1


if __name__ == "__main__":
    sys.exit(main())
