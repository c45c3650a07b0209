"""The bench regression gate: check_against_baseline semantics."""

import pytest

from repro.analysis.benchreport import (
    COLD_FALLBACK_CEILING,
    DEFAULT_CHECK_TOLERANCE,
    check_against_baseline,
    load_report,
    write_report,
)


def replay_row(warm=10.0, cold=2.0, identical=True):
    return {"warm_speedup": warm, "cold_speedup": cold,
            "bit_identical": identical}


def report_with(rows):
    return {"cached_replay": rows}


BASELINE = report_with({
    "lcc:powerlaw-m": replay_row(warm=8.0),
    "lcc:rmat-s10": replay_row(warm=14.0),
    "tc:powerlaw-m": replay_row(warm=12.0),
})


class TestGate:
    def test_passes_when_fresh_meets_baseline(self):
        fresh = report_with({"lcc:powerlaw-s": replay_row(warm=9.0),
                             "tc:powerlaw-s": replay_row(warm=11.0)})
        assert check_against_baseline(fresh, BASELINE) == []

    def test_graph_names_not_matched_only_kernels(self):
        """CI quick graphs differ from the committed full-size baseline."""
        fresh = report_with({"lcc:tiny-x": replay_row(warm=4.0),
                             "tc:tiny-x": replay_row(warm=4.0)})
        # floors: lcc 0.25*8=2.0, tc 0.25*12=3.0 -> both pass at 4.0
        assert check_against_baseline(fresh, BASELINE) == []

    def test_worst_graph_is_the_contract(self):
        fresh = report_with({"lcc:a": replay_row(warm=50.0),
                             "lcc:b": replay_row(warm=0.5),
                             "tc:a": replay_row(warm=11.0)})
        problems = check_against_baseline(fresh, BASELINE)
        assert len(problems) == 1
        assert "lcc" in problems[0] and "0.50x" in problems[0]

    def test_bit_identical_is_non_negotiable(self):
        fresh = report_with({
            "lcc:a": replay_row(warm=100.0, identical=False),
            "tc:a": replay_row(warm=100.0)})
        problems = check_against_baseline(fresh, BASELINE)
        assert any("bit-identical" in p for p in problems)

    def test_missing_kernel_flagged(self):
        fresh = report_with({"lcc:a": replay_row(warm=9.0)})
        problems = check_against_baseline(fresh, BASELINE)
        assert any("'tc'" in p and "missing" in p for p in problems)

    def test_empty_fresh_report_flagged(self):
        problems = check_against_baseline(report_with({}), BASELINE)
        assert any("no cached_replay" in p for p in problems)

    def test_empty_baseline_flagged_not_vacuously_passed(self):
        """--check pointed at the wrong file must fail, not gate nothing."""
        fresh = report_with({"lcc:a": replay_row(warm=9.0)})
        problems = check_against_baseline(fresh, {"workloads": {}})
        assert any("baseline has no cached_replay" in p for p in problems)

    def test_tolerance_scales_the_floor(self):
        fresh = report_with({"lcc:a": replay_row(warm=5.0),
                             "tc:a": replay_row(warm=5.0)})
        assert check_against_baseline(fresh, BASELINE, tolerance=0.3) == []
        problems = check_against_baseline(fresh, BASELINE, tolerance=0.9)
        assert len(problems) == 2

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            check_against_baseline(BASELINE, BASELINE, tolerance=0.0)

    def test_default_tolerance_is_loose(self):
        assert 0 < DEFAULT_CHECK_TOLERANCE <= 0.5


class TestColdFallbackGate:
    """Rows that count their cold misses gate the scalar-fallback share."""

    @staticmethod
    def fresh(fallbacks, misses=1000):
        row = dict(replay_row(warm=9.0), cold_misses=misses,
                   cold_scalar_fallbacks=fallbacks)
        return report_with({"lcc:a": row, "tc:a": replay_row(warm=13.0)})

    def test_share_under_the_ceiling_passes(self):
        fallbacks = int(COLD_FALLBACK_CEILING * 1000)
        assert check_against_baseline(self.fresh(fallbacks), BASELINE) == []

    def test_share_over_the_ceiling_fails(self):
        problems = check_against_baseline(self.fresh(1000), BASELINE)
        assert len(problems) == 1
        assert "lcc:a" in problems[0] and "scalar cache path" in problems[0]

    def test_query_without_misses_passes(self):
        report = self.fresh(0, misses=0)
        assert check_against_baseline(report, BASELINE) == []

    def test_ceiling_is_a_strict_share(self):
        assert 0 < COLD_FALLBACK_CEILING < 1


class TestCommittedBaseline:
    def test_committed_baseline_is_self_consistent(self):
        """The repo-root BENCH_kernels.json passes the gate against itself."""
        from pathlib import Path
        path = Path(__file__).resolve().parents[2] / "BENCH_kernels.json"
        report = load_report(str(path))
        assert check_against_baseline(report, report) == []

    def test_load_write_round_trip(self, tmp_path):
        from pathlib import Path
        path = Path(__file__).resolve().parents[2] / "BENCH_kernels.json"
        report = load_report(str(path))
        out = tmp_path / "copy.json"
        write_report(report, str(out))
        assert load_report(str(out)) == report


class TestTrajectory:
    def test_row_summarizes_report(self):
        from repro.analysis.benchreport import trajectory_row

        report = report_with({"lcc:g": replay_row(warm=4.0),
                              "tc:g": replay_row(warm=6.0)})
        report["kernels"] = {"lcc:g": {"wall_clock_s": 0.5,
                                       "adj_hit_rate": 0.8},
                             "tc:g": {"wall_clock_s": 1.5,
                                      "adj_hit_rate": None}}
        row = trajectory_row(report, date="2026-07-26")
        assert row["date"] == "2026-07-26"
        assert row["n_kernels"] == 2
        assert row["total_kernel_wall_s"] == 2.0
        assert row["max_kernel_wall_s"] == 1.5
        assert row["mean_adj_hit_rate"] == 0.8
        assert row["min_warm_speedups"] == {"lcc": 4.0, "tc": 6.0}

    def test_append_creates_then_extends(self, tmp_path):
        from repro.analysis.benchreport import append_trajectory

        report = report_with({"lcc:g": replay_row(warm=4.0)})
        path = tmp_path / "BENCH_trajectory.json"
        append_trajectory(report, str(path), date="2026-07-25")
        append_trajectory(report, str(path), date="2026-07-26")
        import json

        data = json.loads(path.read_text())
        assert [r["date"] for r in data["rows"]] == ["2026-07-25",
                                                     "2026-07-26"]
        assert data["schema_version"] == 1

    def test_committed_trajectory_is_valid(self):
        """The repo-root trajectory file parses and has at least one row."""
        import json

        with open("BENCH_trajectory.json") as fh:
            data = json.load(fh)
        assert isinstance(data["rows"], list) and data["rows"]
        for row in data["rows"]:
            assert row["date"]
            # Kernel-bench rows carry warm speedups; other benches tag
            # their rows with a "kind" (e.g. the shard bench).
            if row.get("kind") == "shard":
                assert row["read_scaling"] > 0
                assert row["failover_digests_identical"] is True
            elif row.get("kind") == "async":
                assert row["burst_speedup"] > 0
                assert row["interleavings_identical"] is True
            else:
                assert "min_warm_speedups" in row

    def test_corrupt_trajectory_reported_cleanly(self, tmp_path):
        from repro.analysis.benchreport import append_trajectory

        path = tmp_path / "BENCH_trajectory.json"
        path.write_text('{"rows": [')  # truncated by a killed run
        with pytest.raises(ValueError, match="corrupt"):
            append_trajectory(report_with({}), str(path))
        # The corrupt file is left untouched for manual inspection.
        assert path.read_text() == '{"rows": ['
