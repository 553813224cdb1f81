"""Tests for the experiment harness (small scales for speed)."""

import pytest

from repro.bench import (
    ExperimentReport,
    degree_profile,
    figure13_speedups,
    format_table,
    geometric_mean,
    table1_split_properties,
    table3_datasets,
    table4_performance,
    table5_udt_space,
    table6_virtual_space,
    table7_transform_time,
    table8_sssp_profile,
)


class TestReportUtilities:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([2.0, 0.0]) == pytest.approx(2.0)  # zeros skipped

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "c": 3.5}])
        lines = text.splitlines()
        assert "a" in lines[0] and "c" in lines[0]
        assert "-" in lines[1]
        assert len(lines) == 4

    def test_format_empty(self):
        assert "(no rows)" in format_table([], title="t")

    def test_report_roundtrip(self):
        report = ExperimentReport("X", "desc")
        report.add_row(a=1, b=2.0)
        report.extras["note"] = 5
        text = report.to_text()
        assert "X: desc" in text and "note" in text
        assert report.column("a") == [1]


class TestTable1:
    def test_all_measured_match_predicted(self):
        report = table1_split_properties(degrees=(10, 100), degree_bounds=(3, 7))
        assert report.extras["all_match"]
        assert len(report.rows) == 2 * 2 * 4  # d x K x topologies


class TestTable3:
    def test_six_rows_with_paper_columns(self):
        report = table3_datasets(scale=0.1)
        assert len(report.rows) == 6
        for row in report.rows:
            assert row["nodes"] > 0
            assert row["paper_edges"] >= 31_000_000


class TestTable4Small:
    def test_sssp_row_shape(self):
        report = table4_performance(
            algorithms=("sssp",), datasets=("pokec",), scale=0.25
        )
        row = report.rows[0]
        assert set(row) >= {"mw", "cusha", "gunrock", "tigr-v+", "best"}

    def test_missing_primitives_render_dash(self):
        report = table4_performance(
            algorithms=("sswp", "bc"), datasets=("pokec",), scale=0.25
        )
        by_alg = {r["algorithm"]: r for r in report.rows}
        assert by_alg["sswp"]["gunrock"] == "-"
        assert by_alg["bc"]["mw"] == "-"
        assert by_alg["bc"]["cusha"] == "-"


class TestSpaceTables:
    def test_table5_small_overhead_decreasing(self):
        report = table5_udt_space(scale=0.25, degree_bounds=(50, 500))
        for row in report.rows:
            k50 = float(row["K=50"].rstrip("%"))
            k500 = float(row["K=500"].rstrip("%"))
            assert 100.0 <= k500 <= k50 < 130.0

    def test_table6_band(self):
        report = table6_virtual_space(scale=0.25, degree_bounds=(4, 8, 32))
        for row in report.rows:
            k4 = float(row["K=4"].rstrip("%"))
            k8 = float(row["K=8"].rstrip("%"))
            k32 = float(row["K=32"].rstrip("%"))
            assert k4 > k8 > k32 > 100.0
            assert 125.0 < k4 < 160.0


class TestTable7:
    def test_virtual_much_cheaper(self):
        # best-of-15 per side: both builds are sub-millisecond here, and
        # one host hiccup on a single 45 us virtual timing is worth 2x
        report = table7_transform_time(scale=0.25, repeats=15)
        assert report.extras["min_ratio"] > 3.0


class TestTable8:
    def test_shape_matches_paper(self):
        report = table8_sssp_profile(scale=0.5)
        rows = {(r["variant"], r["worklist"]): r for r in report.rows}
        # physical splitting raises iteration counts; virtual does not
        assert rows[("physical", "without")]["iterations"] > rows[("original", "without")]["iterations"]
        assert rows[("virtual", "without")]["iterations"] == rows[("original", "without")]["iterations"]
        # both transformations raise warp efficiency
        orig = float(rows[("original", "without")]["warp_efficiency"].rstrip("%"))
        phys = float(rows[("physical", "without")]["warp_efficiency"].rstrip("%"))
        virt = float(rows[("virtual", "without")]["warp_efficiency"].rstrip("%"))
        assert phys > 2 * orig and virt > 2 * orig
        # the worklist slashes instruction counts
        assert rows[("original", "with")]["instructions"] < 0.5 * rows[("original", "without")]["instructions"]


class TestFigure13:
    def test_ordering_small_scale(self):
        report = figure13_speedups(datasets=("livejournal",), scale=0.5)
        udt = report.extras["geomean_tigr-udt"]
        v = report.extras["geomean_tigr-v"]
        vplus = report.extras["geomean_tigr-v+"]
        assert vplus > v > 1.0
        assert udt > 0.5  # physical can dip near 1 at small scale


class TestDegreeProfile:
    def test_majority_below_20(self):
        report = degree_profile(scale=0.5)
        below = [float(r["frac_below_20"].rstrip("%")) for r in report.rows
                 if r["dataset"] in ("pokec", "livejournal", "sinaweibo")]
        assert all(b > 80.0 for b in below)
