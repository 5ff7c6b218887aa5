"""Per-layer metrics from a tracer snapshot, all per operation.

Each module's self time is the time inside its wrapped functions minus the
time of the wrapped calls they make; the functions below are the ones whose
numbers the README ties to an end-to-end metric.
"""

from __future__ import annotations

from tracer import MODULES

SUITES = (
    "decompose-fuzz",
    "delta-km",
    "delta-sing",
    "disc-group",
    "enr-iso",
    "group-iso",
    "heegner",
    "quotient-group",
)

TIMED = (
    "lattice.enumerate_disc_orthogonal",
    *(f"verify.{s}" for s in SUITES),
    "correspond.decompose_so0",
    "hermitian.decompose_hgamma1",
    "domain.psi",
    "domain.psi_inv",
    "heegner.perp_equivalence",
    "hermitian.moebius",
    "cubic.classify",
    "cli.main",
)

COUNTED = (
    "lattice.disc_act",
    "lattice.mat_mul",
    "lattice.mat_inverse_int",
    "lattice.is_orthogonal",
    "correspond.psi_hom",
    "hermitian.he_mul",
    "eisenstein.Eisenstein.mul",
    "tower.Cyclo12.mul",
    "tower.Cyclo12.inverse",
)


def per_layer(snapshot: dict, import_ms: float, overhead_pct: float) -> dict:
    ops = snapshot["ops"]
    stats = snapshot["stats"]

    def total(name, field):
        return stats.get(name, (0, 0, 0, 0))[field]

    out = {}
    for module in MODULES:
        mine = [v for k, v in stats.items() if k.startswith(module + ".")]
        out[f"{module}.self_ms"] = (sum(v[2] for v in mine) / 1e6 / ops, "ms/op")
        out[f"{module}.calls"] = (sum(v[0] for v in mine) / ops, "calls/op")
    for name in TIMED:
        out[f"{name}.ms"] = (total(name, 1) / 1e6 / ops, "ms/op")
    for name in COUNTED:
        out[f"{name}.calls"] = (total(name, 0) / ops, "calls/op")
    calls = total("lattice.is_orthogonal", 0)
    distinct = snapshot["distinct"].get("lattice.is_orthogonal", 0)
    out["lattice.is_orthogonal.distinct_share"] = (distinct / calls if calls else 1.0, "share")
    out["hermitian.decompose_hgamma1.failures"] = (total("hermitian.decompose_hgamma1", 3) / ops, "raised/op")
    out["cli.import_ms"] = (import_ms, "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
