"""The verify suites as tables: one row per check id, sized by SIZES, and
reported in row order."""

from hessk3 import sampling, verify


def test_the_tables_are_consistent():
    tables = {
        name: list(table(sampling.make_rng(0), verify._SUITE_SIZES[name]))
        for name, table in verify.TABLES.items()
    }
    ids = [row.check_id for rows in tables.values() for row in rows]
    assert len(ids) == len(set(ids)) == 73
    for name, rows in tables.items():
        # a suite's sizes name exactly the draws of its rows, and a count
        # shared by several rows sits under the first of them
        sized = {row.sized_by for row in rows} - {None}
        assert sized == set(verify._SUITE_SIZES[name]), name
        for key in sized:
            assert next(row for row in rows if row.sized_by == key).check_id == key
    report = verify.run_all(0)
    assert [c["check_id"] for r in report["suites"] for c in r["checks"]] == [
        row.check_id for name in sorted(tables) for row in tables[name]
    ]
