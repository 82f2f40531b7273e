"""Experiment runners: every figure/table regenerates with the paper's
qualitative shape on the small world."""

import pytest

from repro.experiments import ExperimentResult, list_experiments, run_experiment

ALL_EXPERIMENTS = (
    "fig01", "fig02a", "fig02b", "fig03", "fig04a", "fig04b", "fig05a",
    "fig05b", "fig06a", "fig06b", "fig07a", "fig07b", "fig08", "fig09",
    "fig10", "fig11a", "fig11b", "fig12", "fig13", "fig14",
    "table1", "table2", "table3", "table4", "table5", "appc", "whatif01",
)


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        assert set(list_experiments()) == set(ALL_EXPERIMENTS)

    def test_unknown_experiment_raises(self, scenario):
        with pytest.raises(KeyError):
            run_experiment("fig99", scenario)

    @pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
    def test_runs_and_renders(self, scenario, experiment_id):
        result = run_experiment(experiment_id, scenario)
        assert isinstance(result, ExperimentResult)
        assert result.id == experiment_id
        text = result.to_text()
        assert experiment_id in text
        assert result.sections or result.data


class TestShapeTargets:
    """The headline claims, asserted loosely enough for the small world."""

    def test_fig01_larger_rings_cover_more_users(self, scenario):
        data = run_experiment("fig01", scenario).data
        assert data["R110/coverage_1000km"] >= data["R28/coverage_1000km"]

    def test_fig02a_nearly_everyone_inflated(self, scenario):
        data = run_experiment("fig02a", scenario).data
        assert data["all/frac_any_inflation"] > 0.85

    def test_fig02b_letters_have_heavy_tails(self, scenario):
        data = run_experiment("fig02b", scenario).data
        heavy = [
            data[f"{name}/frac_over_100ms"]
            for name in data.get("letters", [])
            if f"{name}/frac_over_100ms" in data
        ]
        assert max(heavy) > 0.10  # some letter inflates >100ms often
        assert data["all/frac_over_100ms"] < max(heavy)

    def test_fig03_median_about_one_query(self, scenario):
        data = run_experiment("fig03", scenario).data
        assert 0.05 < data["cdn/median"] < 20.0
        assert data["ideal/median"] < data["cdn/median"] / 50.0

    def test_fig04a_latency_falls_with_ring_size(self, scenario):
        data = run_experiment("fig04a", scenario).data
        assert data["R28/median_rtt"] >= data["R110/median_rtt"]
        # §5.2: the R28→R110 page-load gap is on the order of 100 ms.
        assert data["page_gap_smallest_largest"] > 20.0

    def test_fig04b_growing_rings_rarely_regress(self, scenario):
        data = run_experiment("fig04b", scenario).data
        keys = [k for k in data if k.endswith("frac_no_regression")]
        assert keys
        for key in keys:
            assert data[key] > 0.7
        # §5.2: growing the ring almost never hurts a location by >10 ms.
        for key in (k for k in data if k.endswith("frac_regress_10ms")):
            assert data[key] < 0.05

    def test_fig05a_cdn_mostly_uninflated_roots_not(self, scenario):
        data = run_experiment("fig05a", scenario).data
        assert data["R110/zero_mass"] > 0.5
        assert data["roots/zero_mass"] < 0.2
        assert data["R110/frac_under_10ms"] > 0.8

    def test_fig05b_cdn_inflation_small(self, scenario):
        data = run_experiment("fig05b", scenario).data
        values = [data[f"{ring}/frac_under_100ms"] for ring in ("R28", "R74", "R110")]
        assert min(values) > 0.85
        # ... and roughly ring-independent.
        assert max(values) - min(values) < 0.1

    def test_fig06a_cdn_paths_shortest(self, scenario):
        data = run_experiment("fig06a", scenario).data
        assert data["CDN/share_2as"] > 0.3
        assert data["CDN/share_2as"] > 1.2 * data["all_roots/share_2as"]

    def test_fig06b_inflation_grows_with_path_length(self, scenario):
        data = run_experiment("fig06b", scenario).data
        if "CDN/2/median" in data and "CDN/4/median" in data:
            assert data["CDN/2/median"] <= data["CDN/4/median"] + 5.0

    def test_fig07a_size_brings_latency_down_efficiency_down(self, scenario):
        data = run_experiment("fig07a", scenario).data
        assert data["R28/latency"] >= data["R110/latency"] - 1.0
        assert data["R28/efficiency"] >= data["R110/efficiency"] - 0.05
        # high efficiency does not mean low latency (B root)
        if "B/latency" in data:
            assert data["B/latency"] > 2.0 * data["R110/latency"]

    def test_fig07b_all_roots_cover_like_largest_ring(self, scenario):
        data = run_experiment("fig07b", scenario).data
        assert data["All Roots/at_1000km"] >= data["R110/at_1000km"] - 0.1
        assert data["All Roots/at_500km"] > 0.6

    def test_fig08_junk_shifts_median_up(self, scenario):
        fig03 = run_experiment("fig03", scenario).data
        fig08 = run_experiment("fig08", scenario).data
        assert fig08["cdn/median"] > 4.0 * fig03["cdn/median"]

    def test_fig09_unjoined_is_misleadingly_low(self, scenario):
        fig03 = run_experiment("fig03", scenario).data
        fig09 = run_experiment("fig09", scenario).data
        assert fig09["cdn/median"] < fig03["cdn/median"]

    def test_fig10_single_site_dominates(self, scenario):
        data = run_experiment("fig10", scenario).data
        fractions = [v for k, v in data.items() if k.endswith("frac_single_site")]
        assert fractions
        assert min(fractions) > 0.5

    def test_fig11_conclusions_stable_across_years(self, scenario):
        fig03 = run_experiment("fig03", scenario).data
        fig11a = run_experiment("fig11a", scenario).data
        ratio = fig11a["cdn/median"] / fig03["cdn/median"]
        assert 0.1 < ratio < 10.0

    def test_fig11b_2020_inflation_stays_mild(self, scenario):
        data = run_experiment("fig11b", scenario).data
        assert data["all/frac_over_20ms"] < 0.6

    def test_fig12_cache_hits_dominate_fast_answers(self, scenario):
        data = run_experiment("fig12", scenario).data
        assert data["frac_sub_ms"] > 0.25
        assert data["overall_miss_rate"] < 0.05

    def test_fig13_root_latency_barely_perceptible(self, scenario):
        data = run_experiment("fig13", scenario).data
        assert data["frac_touching_root"] < 0.05
        assert data["frac_over_100ms"] < 0.005
        assert data["author/root_share_of_page_load"] < 0.05

    def test_fig14_latency_grows_with_distance(self, scenario):
        data = run_experiment("fig14", scenario).data
        if "near_median_ms" in data and "far_median_ms" in data:
            assert data["near_median_ms"] < data["far_median_ms"]

    def test_table1_matches_survey(self, scenario):
        data = run_experiment("table1", scenario).data
        assert data["growth/DDoS Resilience"] == 9
        assert data["growth/Latency"] == 8

    def test_table2_category_fractions(self, scenario):
        data = run_experiment("table2", scenario).data
        assert 0.4 < data["fraction_invalid"] < 0.95
        assert 0.05 < data["fraction_ipv6"] < 0.2
        assert 0.02 < data["fraction_private"] < 0.15

    def test_table3_catalogues_every_dataset(self, scenario):
        data = run_experiment("table3", scenario).data
        assert data["n_datasets"] == 9

    def test_table4_join_buys_representativeness(self, scenario):
        data = run_experiment("table4", scenario).data
        assert data["slash24/ditl_volume"] > 2.0 * data["ip/ditl_volume"]
        assert data["slash24/cdn_users"] > data["ip/ditl_volume"]
        assert data["slash24/cdn_users"] > 0.5

    def test_table5_redundancy_dominates(self, scenario):
        data = run_experiment("table5", scenario).data
        assert data["fraction_redundant"] > 0.4
        assert data["fraction_bug_pattern"] > 0.5
        assert data.get("episode_steps", 0) >= 4

    def test_appc_ten_rtts_is_a_sound_lower_bound(self, scenario):
        data = run_experiment("appc", scenario).data
        assert 8 <= data["lower_bound"] <= 12
        assert data["frac_within_10"] < 0.4
        assert data["frac_within_20"] > 0.6


class TestSeriesExport:
    """The plottable line series behind each CDF figure."""

    CDF_FIGURES = ("fig02a", "fig02b", "fig03", "fig04a", "fig05a", "fig05b", "fig07b")

    @pytest.mark.parametrize("experiment_id", CDF_FIGURES)
    def test_series_present_and_monotone(self, scenario, experiment_id):
        result = run_experiment(experiment_id, scenario)
        assert result.series
        for label, points in result.series.items():
            xs = [x for x, _ in points]
            ys = [y for _, y in points]
            assert xs == sorted(xs), f"{experiment_id}/{label}: x not sorted"
            assert all(
                b >= a - 1e-9 for a, b in zip(ys, ys[1:])
            ), f"{experiment_id}/{label}: CDF not monotone"
            assert all(0.0 <= y <= 1.0 + 1e-9 for y in ys)

    def test_series_csv_round_trip(self, scenario, tmp_path):
        import csv

        from repro.experiments import write_series_csv

        result = run_experiment("fig03", scenario)
        paths = write_series_csv(result, str(tmp_path))
        assert len(paths) == len(result.series)
        for path in paths:
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
            assert rows[0] == ["x", "y"]
            assert len(rows) > 1

    def test_no_series_writes_nothing(self, scenario, tmp_path):
        from repro.experiments import write_series_csv

        result = run_experiment("table1", scenario)
        assert write_series_csv(result, str(tmp_path)) == []


class TestValidation:
    def test_every_check_references_known_experiments(self):
        from repro.experiments import SHAPE_CHECKS, list_experiments

        known = set(list_experiments())
        for check in SHAPE_CHECKS:
            assert set(check.experiments) <= known

    def test_validate_scenario_all_green(self, scenario):
        from repro.experiments import validate_scenario

        report = validate_scenario(scenario)
        failing = [check.name for check, ok in report.results if not ok]
        assert report.all_passed, f"failing shape targets: {failing}"

    def test_report_text_counts(self, scenario):
        from repro.experiments import validate_scenario

        report = validate_scenario(scenario)
        text = report.to_text()
        assert f"{report.passed}/{len(report.results)}" in text
