"""Shared fixtures and the acceptance report.

Tests in test_acceptance.py are named test_cNN_*; each runs a
hessk3.verify suite at its criterion's seed and gate sizes (c12 excepted),
and the hook below collects their outcomes per criterion and prints one
PASS/FAIL line each at the end of the run.  Clauses marked
xfail(strict=True) assert a commonly stated literal form that the
computation refutes; they count as documented, not as failures, and
flipping one (an unexpected pass) fails the run.
"""

import re
from collections import defaultdict

from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

CRITERIA = {
    "c01": "singularity discriminant: product form equals the invariant form",
    "c02": "discriminant automorphisms: 240 total, image 120, kernel 2",
    "c03": "five generators induce the expected five-class permutations",
    "c04": "2x2 to 6x6 homomorphism: images, kernel, mod-2 criterion",
    "c05": "dictionary pairs act identically on twenty chart points",
    "c06": "decomposition round trips, transport mod centers",
    "c07": "mod-2 image order 180, even action on the projective line",
    "c08": "congruence words land in the two-torsion stabilizer; W-prime law",
    "c09": "divisor tests: three descriptions agree, complements match",
    "c10": "Kummer discriminant bridge identity and locus coincidence",
    "c11": "ten nodes, ten lines, and the coordinate-swap involution",
    "c12": "translations add exhaustively for parameters up to two",
}

_PATTERN = re.compile(r"test_(c\d\d)")
_outcomes = defaultdict(lambda: {"passed": 0, "failed": 0, "xfailed": 0, "skipped": 0})


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    match = _PATTERN.search(report.nodeid)
    if not match:
        return
    cid = match.group(1)
    if report.when == "call":
        if hasattr(report, "wasxfail"):
            key = "xfailed" if report.skipped else "failed"
        elif report.passed:
            key = "passed"
        elif report.failed:
            key = "failed"
        else:
            key = "skipped"
        _outcomes[cid][key] += 1
    elif report.when in ("setup", "teardown") and report.failed:
        _outcomes[cid]["failed"] += 1


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(CRITERIA):
        counts = _outcomes.get(cid)
        if counts is None:
            continue
        verdict = "FAIL" if counts["failed"] else "PASS"
        note = ""
        if counts["xfailed"]:
            note = f" ({counts['xfailed']} documented failing clause{'s' if counts['xfailed'] > 1 else ''})"
        terminalreporter.write_line(f"{cid} {verdict}  {CRITERIA[cid]}{note}")
