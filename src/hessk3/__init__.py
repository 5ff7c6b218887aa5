"""Exact tools for a rank-six Eisenstein period lattice.

Everything is integer or Fraction arithmetic: the Eisenstein ring, the
degree-four coefficient field, the reference lattice of signature (2, 4)
with its discriminant form, the Hermitian matrix group acting on a 2x2
half-space, the two-way dictionary between them, quintic invariants with
the singularity and Kummer discriminants, Heegner-type divisor tests, and
seeded verification suites covering all of it.
"""

from .correspond import (
    DICTIONARY_PAIRS,
    decompose_so0,
    equal_mod_center,
    herm_to_orth,
    is_so0,
    orth_to_herm,
    orth_word_matrix,
    psi_hom,
)
from .cubic import classical_invariants, classify, delta_km, delta_sing
from .eisenstein import Eisenstein, canonical_associate, eis_divmod, eis_gcd_ext
from .errors import InvariantViolation, require
from .heegner import chart_flags, heegner_membership, perp_equivalence
from .hermitian import (
    coset_classify,
    decompose_hgamma0,
    decompose_hgamma1,
    membership,
    moebius,
    word_matrix,
)
from .lattice import GRAM, is_in_enr, is_in_k3, orthogonal_complement, to_s5
from .tower import Cyclo12
from .verify import run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "Cyclo12",
    "DICTIONARY_PAIRS",
    "Eisenstein",
    "GRAM",
    "InvariantViolation",
    "canonical_associate",
    "chart_flags",
    "classical_invariants",
    "classify",
    "coset_classify",
    "decompose_hgamma0",
    "decompose_hgamma1",
    "decompose_so0",
    "delta_km",
    "delta_sing",
    "eis_divmod",
    "eis_gcd_ext",
    "equal_mod_center",
    "heegner_membership",
    "herm_to_orth",
    "is_in_enr",
    "is_in_k3",
    "is_so0",
    "membership",
    "moebius",
    "orth_to_herm",
    "orth_word_matrix",
    "orthogonal_complement",
    "perp_equivalence",
    "psi_hom",
    "require",
    "run_all",
    "run_suite",
    "to_s5",
    "word_matrix",
    "__version__",
]
