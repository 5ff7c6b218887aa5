"""Exact tools for a rank-six Eisenstein period lattice.

Everything is integer or Fraction arithmetic: the Eisenstein ring, the
degree-four coefficient field, the reference lattice of signature (2, 4)
with its discriminant form, the Hermitian matrix group acting on a 2x2
half-space, the two-way dictionary between them, quintic invariants with
the singularity and Kummer discriminants, Heegner-type divisor tests, and
seeded verification suites covering all of it.

Each public name is read from its home module (`from hessk3 import
lattice`), so importing one module compiles only what it uses.
"""

__version__ = "0.1.0"
