"""Exact tools for a rank-six Eisenstein period lattice.

Everything is integer or Fraction arithmetic: the Eisenstein ring, the
degree-four coefficient field, the reference lattice of signature (2, 4)
with its discriminant form, the Hermitian matrix group acting on a 2x2
half-space, the two-way dictionary between them, quintic invariants with
the singularity and Kummer discriminants, Heegner-type divisor tests, and
seeded verification suites covering all of it.

Each public name loads its home module on first use, so importing the
package (or one of its modules) compiles only what is used.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it provides here
_EXPORTS = {
    "correspond": (
        "DICTIONARY_PAIRS",
        "decompose_so0",
        "equal_mod_center",
        "herm_to_orth",
        "is_so0",
        "orth_to_herm",
        "orth_word_matrix",
        "psi_hom",
    ),
    "cubic": ("classical_invariants", "classify", "delta_km", "delta_sing"),
    "eisenstein": ("Eisenstein", "canonical_associate", "eis_divmod", "eis_gcd_ext"),
    "errors": ("InvariantViolation", "require"),
    "heegner": ("chart_flags", "heegner_membership", "perp_equivalence"),
    "hermitian": (
        "coset_classify",
        "decompose_hgamma0",
        "decompose_hgamma1",
        "membership",
        "moebius",
        "word_matrix",
    ),
    "lattice": ("GRAM", "is_in_enr", "is_in_k3", "orthogonal_complement", "to_s5"),
    "tower": ("Cyclo12",),
    "verify": ("run_all", "run_suite"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    """A public name, read from its home module, which loads on first use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
