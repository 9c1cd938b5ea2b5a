"""Tests for the fault-campaign planner (:mod:`repro.experiments.campaigns`).

Covers severity sampling (inverse-CDF correctness, likelihood ratios,
the importance on/off switch), fault materialization per generator kind
(determinism, severity scaling, the source-uptime guard), the
``[campaign]`` spec section's strict round-trip and validation, the
campaign plan's journal records (written, replayable, invisible to run
replay, compaction-proof), resume bit-identity, the weighted result
analysis (paired relative delivery, tail probabilities, verdicts), the
Robustness report section, and the CLI flag.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.experiments.campaigns import (
    CAMPAIGN_PLAN_KEY,
    CampaignConfig,
    CampaignDraw,
    CampaignResult,
    FaultGeneratorSpec,
    GENERATOR_KINDS,
    SOURCE_GUARD_FRACTION,
    default_generators,
    draw_campaign,
    materialize_fault_plan,
    plan_digest,
    run_campaign_experiment,
    severity_from_uniform,
)
from repro.experiments.faults import FaultPlan, OutageWindow
from repro.experiments.report import (
    injected_downtime_note,
    render_report,
    robustness_section,
)
from repro.experiments.resilience import PlanJournal, SweepJournal
from repro.experiments.results import RunResult
from repro.experiments.scenarios import (
    SimulationScenarioConfig,
    build_simulation_scenario,
)
from repro.experiments.spec import ExperimentSpec, SpecError

TINY_CONFIG = SimulationScenarioConfig(
    num_nodes=8,
    area_width_m=500.0,
    area_height_m=500.0,
    num_groups=1,
    members_per_group=4,
    duration_s=8.0,
    warmup_s=2.0,
)


def tiny_spec(**overrides) -> ExperimentSpec:
    campaign = overrides.pop(
        "campaign", CampaignConfig(draws=2, master_seed=5)
    )
    defaults = dict(
        name="tiny-campaign",
        protocols=("odmrp", "spp"),
        seeds=(1, 2),
        campaign=campaign,
        config=TINY_CONFIG,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


@pytest.fixture(scope="module")
def tiny_campaign():
    """One shared campaign execution for every assertion below."""
    return run_campaign_experiment(tiny_spec())


class TestSeveritySampling:
    def test_severe_branch_inverse_cdf(self):
        # u above DEFENSIVE_MIX samples the severe power law: the
        # rescaled uniform 0.756 -> (0.756 - 0.5) / 0.5 = 0.512, and
        # 0.512 ** (1/3) = 0.8.
        campaign = CampaignConfig(proposal_shape=3.0)
        theta, _w = severity_from_uniform(0.756, campaign)
        assert theta == pytest.approx(0.8)

    def test_nominal_branch_inverse_cdf(self):
        # u below DEFENSIVE_MIX samples the nominal component with the
        # rescaled uniform 0.244 / 0.5 = 0.488.
        campaign = CampaignConfig(nominal_shape=3.0)
        theta, _w = severity_from_uniform(0.244, campaign)
        assert theta == pytest.approx(1.0 - 0.512 ** (1.0 / 3.0))

    def test_nominal_inverse_cdf_when_importance_off(self):
        campaign = CampaignConfig(nominal_shape=3.0, importance=False)
        theta, weight = severity_from_uniform(0.488, campaign)
        assert theta == pytest.approx(1.0 - 0.512 ** (1.0 / 3.0))
        assert weight == 1.0

    def test_weight_is_mixture_likelihood_ratio(self):
        from repro.experiments.campaigns import DEFENSIVE_MIX

        campaign = CampaignConfig(nominal_shape=4.0, proposal_shape=2.0)
        theta, weight = severity_from_uniform(0.49, campaign)
        nominal = 4.0 * (1.0 - theta) ** 3.0
        severe = 2.0 * theta
        mixture = DEFENSIVE_MIX * nominal + (1.0 - DEFENSIVE_MIX) * severe
        assert weight == pytest.approx(nominal / mixture, rel=1e-12)

    def test_weights_bounded_by_defensive_mix(self):
        """The defensive mixture's whole point: no draw can weigh more
        than 1 / DEFENSIVE_MIX, however mild it lands."""
        from repro.experiments.campaigns import DEFENSIVE_MIX

        campaign = CampaignConfig(nominal_shape=6.0, proposal_shape=8.0)
        for i in range(101):
            _theta, weight = severity_from_uniform(i / 100.0, campaign)
            assert 0.0 < weight <= 1.0 / DEFENSIVE_MIX + 1e-12

    def test_endpoints_stay_finite(self):
        campaign = CampaignConfig()
        for u in (0.0, 0.5, 1.0):
            theta, weight = severity_from_uniform(u, campaign)
            assert 0.0 < theta < 1.0
            assert math.isfinite(weight) and weight >= 0.0

    def test_severe_draws_get_small_weights(self):
        """The tilt's whole point: a severe draw is over-represented
        under the proposal, so its weight back to the nominal world
        must be below a mild draw's weight."""
        campaign = CampaignConfig(nominal_shape=3.0, proposal_shape=3.0)
        _mild, mild_weight = severity_from_uniform(0.1, campaign)
        _severe, severe_weight = severity_from_uniform(0.9, campaign)
        assert severe_weight < mild_weight


class TestGeneratorValidation:
    def test_defaults_cover_every_kind(self):
        assert tuple(g.kind for g in default_generators()) == GENERATOR_KINDS
        for generator in default_generators():
            generator.validate()

    @pytest.mark.parametrize("kwargs", [
        {"kind": "meteor"},
        {"weight": 0.0},
        {"max_node_fraction": 0.0},
        {"max_node_fraction": 1.5},
        {"max_outage_fraction": -0.1},
        {"period_s": 0.0},
        {"radius_fraction": 2.0},
        {"ramp_steps": 0},
        {"ramp_steps": True},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultGeneratorSpec(**kwargs).validate()


class TestCampaignConfigValidation:
    def test_defaults_valid(self):
        CampaignConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"draws": 0},
        {"draws": True},
        {"master_seed": 1.5},
        {"nominal_shape": 0.5},
        {"proposal_shape": 0.0},
        {"tail_fraction": 0.0},
        {"tail_fraction": 1.0},
        {"generators": (FaultGeneratorSpec(kind="nope"),)},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CampaignConfig(**kwargs).validate()


class TestMaterialization:
    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_deterministic_per_rng_seed(self, kind):
        generator = FaultGeneratorSpec(kind=kind)
        first = materialize_fault_plan(
            generator, 0.7, TINY_CONFIG, 1, random.Random(42)
        )
        second = materialize_fault_plan(
            generator, 0.7, TINY_CONFIG, 1, random.Random(42)
        )
        assert first == second
        assert plan_digest(first) == plan_digest(second)

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_windows_inside_simulation(self, kind):
        plan = materialize_fault_plan(
            FaultGeneratorSpec(kind=kind), 0.9, TINY_CONFIG, 1,
            random.Random(7),
        )
        plan.validate_for(TINY_CONFIG.num_nodes)
        for window in plan.outages:
            assert TINY_CONFIG.warmup_s <= window.start_s
            assert window.end_s <= TINY_CONFIG.duration_s
        for flap in plan.flapping:
            assert flap.until_s <= TINY_CONFIG.duration_s

    def test_severity_scales_downtime(self):
        """Higher theta must inject (weakly) more downtime for the same
        structural randomness."""
        generator = FaultGeneratorSpec(kind="storm")
        mild = materialize_fault_plan(
            generator, 0.2, TINY_CONFIG, 1, random.Random(3)
        )
        severe = materialize_fault_plan(
            generator, 0.9, TINY_CONFIG, 1, random.Random(3)
        )
        assert severe.merged_downtime_s() > mild.merged_downtime_s()

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_sources_keep_guard_tail(self, kind):
        """Materialized plans always pass the source-uptime check the
        scenario builder enforces: by construction no source is down
        into the final guard fraction of the traffic interval."""
        from repro.experiments.campaigns import _source_ids

        for rng_seed in range(5):
            plan = materialize_fault_plan(
                FaultGeneratorSpec(kind=kind), 0.97, TINY_CONFIG, 1,
                random.Random(rng_seed),
            )
            sources = _source_ids(TINY_CONFIG, 1)
            plan.assert_source_uptime(
                sources, TINY_CONFIG.warmup_s, TINY_CONFIG.duration_s
            )
            guard_start = TINY_CONFIG.duration_s - SOURCE_GUARD_FRACTION * (
                TINY_CONFIG.duration_s - TINY_CONFIG.warmup_s
            )
            for source in sources:
                assert not plan.covers_interval(
                    source, guard_start, TINY_CONFIG.duration_s
                )

    def test_scenario_builder_accepts_materialized_plans(self):
        plan = materialize_fault_plan(
            FaultGeneratorSpec(kind="storm"), 0.95, TINY_CONFIG, 1,
            random.Random(11),
        )
        import dataclasses

        build_simulation_scenario("odmrp", dataclasses.replace(
            TINY_CONFIG, faults=plan, topology_seed=1
        ))


class TestDrawCampaign:
    def test_deterministic_plan(self):
        campaign = CampaignConfig(draws=4, master_seed=9)
        first = draw_campaign(campaign, TINY_CONFIG, (1, 2))
        second = draw_campaign(campaign, TINY_CONFIG, (1, 2))
        assert [d.plan_dict() for d in first] == [
            d.plan_dict() for d in second
        ]

    def test_master_seed_moves_the_plan(self):
        first = draw_campaign(
            CampaignConfig(draws=4, master_seed=1), TINY_CONFIG, (1,)
        )
        second = draw_campaign(
            CampaignConfig(draws=4, master_seed=2), TINY_CONFIG, (1,)
        )
        assert [d.plan_dict() for d in first] != [
            d.plan_dict() for d in second
        ]

    def test_one_plan_per_seed(self):
        draws = draw_campaign(
            CampaignConfig(draws=3, master_seed=0), TINY_CONFIG, (1, 2, 3)
        )
        assert len(draws) == 3
        for draw in draws:
            assert sorted(draw.plans) == [1, 2, 3]
            assert draw.generator in GENERATOR_KINDS
            assert 0.0 < draw.theta < 1.0
            assert draw.weight >= 0.0

    def test_importance_off_gives_unit_weights(self):
        draws = draw_campaign(
            CampaignConfig(draws=5, master_seed=0, importance=False),
            TINY_CONFIG, (1,),
        )
        assert all(draw.weight == 1.0 for draw in draws)


class TestSpecIntegration:
    def test_toml_round_trip(self):
        spec = tiny_spec(campaign=CampaignConfig(
            draws=3, master_seed=11, nominal_shape=4.0, proposal_shape=2.5,
            importance=False, tail_fraction=0.4, baseline="odmrp",
            generators=(
                FaultGeneratorSpec(kind="storm", weight=2.0),
                FaultGeneratorSpec(kind="flapping", period_s=4.0),
            ),
        ))
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_json_round_trip(self):
        spec = tiny_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_campaign_section_omitted_when_absent(self):
        spec = tiny_spec(campaign=None)
        assert "[campaign]" not in spec.to_toml()

    def test_rejects_adaptive_combination(self):
        from repro.experiments.adaptive import AdaptiveConfig

        with pytest.raises(SpecError, match="pick one planner"):
            tiny_spec(adaptive=AdaptiveConfig()).validate()

    def test_rejects_mobility_axis(self):
        with pytest.raises(SpecError, match="mobility"):
            tiny_spec(mobility_models=("static", "waypoint")).validate()

    def test_rejects_spec_level_faults(self):
        import dataclasses

        config = dataclasses.replace(TINY_CONFIG, faults=FaultPlan(
            outages=(OutageWindow(0, 3.0, 4.0),)
        ))
        with pytest.raises(SpecError, match="faults"):
            tiny_spec(config=config).validate()

    def test_rejects_unknown_baseline(self):
        with pytest.raises(SpecError, match="baseline"):
            tiny_spec(
                campaign=CampaignConfig(baseline="maodv")
            ).validate()

    def test_surfaces_campaign_errors_as_spec_errors(self):
        with pytest.raises(SpecError, match="draws"):
            tiny_spec(campaign=CampaignConfig(draws=0)).validate()

    def test_total_runs_counts_baseline_and_draws(self):
        spec = tiny_spec(campaign=CampaignConfig(draws=3))
        # 2 protocols x 2 seeds x (1 baseline + 3 draws).
        assert spec.total_runs == 16

    def test_describe_mentions_campaign(self):
        text = tiny_spec().describe()
        assert "campaign: 2 fault draws" in text
        assert "1 baseline + 2 fault draws" in text


class TestSourceSilencingRejection:
    """The satellite fix: a plan keeping a source down for the whole
    traffic interval must be rejected loudly, not measured as zero."""

    def _source(self, seed: int = 1) -> int:
        from repro.experiments.campaigns import _source_ids

        return _source_ids(TINY_CONFIG, seed)[0]

    def test_full_coverage_rejected(self):
        import dataclasses

        source = self._source()
        config = dataclasses.replace(
            TINY_CONFIG,
            topology_seed=1,
            faults=FaultPlan(outages=(
                OutageWindow(source, 0.0, TINY_CONFIG.duration_s),
            )),
        )
        with pytest.raises(ValueError, match="source"):
            build_simulation_scenario("odmrp", config)

    def test_partial_coverage_accepted(self):
        import dataclasses

        source = self._source()
        config = dataclasses.replace(
            TINY_CONFIG,
            topology_seed=1,
            faults=FaultPlan(outages=(
                OutageWindow(source, TINY_CONFIG.warmup_s, 5.0),
            )),
        )
        build_simulation_scenario("odmrp", config)

    def test_other_nodes_may_be_down_throughout(self):
        import dataclasses

        source = self._source()
        victim = next(
            node for node in range(TINY_CONFIG.num_nodes) if node != source
        )
        config = dataclasses.replace(
            TINY_CONFIG,
            topology_seed=1,
            faults=FaultPlan(outages=(
                OutageWindow(victim, 0.0, TINY_CONFIG.duration_s),
            )),
        )
        build_simulation_scenario("odmrp", config)


class TestCampaignExecution:
    def test_run_shape(self, tiny_campaign):
        assert tiny_campaign.baseline == "odmrp"
        assert len(tiny_campaign.baseline_runs) == 4   # 2 protocols x 2 seeds
        assert len(tiny_campaign.draw_runs) == 2
        assert all(len(runs) == 4 for runs in tiny_campaign.draw_runs)
        assert tiny_campaign.total_runs == 12
        assert tiny_campaign.runs[:4] == tiny_campaign.baseline_runs

    def test_baseline_runs_are_fault_free(self, tiny_campaign):
        for run in tiny_campaign.baseline_runs:
            assert run.error is None
            assert "faults.injected_downtime_s" not in run.counters

    def test_faulted_runs_carry_downtime_counters(self, tiny_campaign):
        for runs in tiny_campaign.draw_runs:
            for run in runs:
                assert run.error is None
                assert run.counters["faults.injected_downtime_s"] > 0.0

    def test_deterministic_rerun(self, tiny_campaign):
        again = run_campaign_experiment(tiny_spec())
        assert again.plan_dict() == tiny_campaign.plan_dict()
        assert again.runs == tiny_campaign.runs

    def test_relative_delivery_paired(self, tiny_campaign):
        for draw in tiny_campaign.draws:
            for protocol in tiny_campaign.protocols:
                ratio = tiny_campaign.relative_delivery(
                    draw.index, protocol
                )
                assert ratio is None or ratio >= 0.0

    def test_tail_probability_bounds(self, tiny_campaign):
        for protocol in tiny_campaign.protocols:
            probability, (low, high) = tiny_campaign.tail_probability(
                protocol
            )
            assert 0.0 <= low <= probability <= high <= 1.0

    def test_robustness_rows(self, tiny_campaign):
        rows = tiny_campaign.robustness()
        assert [row.protocol for row in rows] == list(
            tiny_campaign.protocols
        )
        by_protocol = {row.protocol: row for row in rows}
        assert by_protocol["odmrp"].verdict == "baseline"
        assert by_protocol["spp"].verdict in (
            "survives", "inverts", "no-claim"
        )
        assert tiny_campaign.headline()

    def test_degradation_curve_monotone_downtime(self, tiny_campaign):
        for protocol in tiny_campaign.protocols:
            curve = tiny_campaign.degradation_curve(protocol)
            lows = [row["downtime_low_s"] for row in curve]
            assert lows == sorted(lows)


def replay_campaign_plan(path, name):
    return PlanJournal(path, CAMPAIGN_PLAN_KEY, name).replay()


class TestPlanJournal:
    def test_plan_records_round_trip(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        spec = tiny_spec()
        result = run_campaign_experiment(spec, journal_path=journal)
        records = replay_campaign_plan(journal, spec.name)
        assert len(records) == len(result.draws)
        for record, draw in zip(records, result.plan_dict()["plan"]):
            assert record["draw"] == draw["draw"]
            assert record["generator"] == draw["generator"]
            assert record["theta"] == draw["theta"]
            assert record["weight"] == draw["weight"]
            assert record["faults"] == draw["faults"]

        # Plan records are invisible to run replay (executors never see
        # them) but survive compaction (unique schema-1 keys).
        run_records = SweepJournal.replay(journal)
        assert len(run_records) == result.total_runs
        SweepJournal.compact(journal)
        assert replay_campaign_plan(journal, spec.name) == records
        assert len(SweepJournal.replay(journal)) == result.total_runs

    def test_resume_replays_identical_campaign(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        spec = tiny_spec()
        first = run_campaign_experiment(spec, journal_path=journal)
        resumed = run_campaign_experiment(
            spec, journal_path=journal, resume=True
        )
        assert resumed.plan_dict() == first.plan_dict()
        assert resumed.runs == first.runs

    def test_missing_journal_returns_empty(self, tmp_path):
        assert replay_campaign_plan(
            str(tmp_path / "absent.jsonl"), "anything"
        ) == []


class TestReporting:
    def test_robustness_section_contents(self, tiny_campaign):
        section = robustness_section(tiny_campaign)
        assert "### Robustness" in section
        assert "**Verdict:**" in section
        assert "P[delivery" in section
        for protocol in tiny_campaign.protocols:
            assert f"| {protocol} |" in section

    def test_render_report_includes_campaign(self, tiny_campaign):
        report = render_report(
            tiny_campaign.baseline_runs,
            title="campaign",
            campaign=tiny_campaign,
        )
        assert "### Robustness" in report
        assert "### Normalized throughput" in report

    def test_injected_downtime_note(self, tiny_campaign):
        note = injected_downtime_note(tiny_campaign.runs)
        assert note is not None
        assert "Injected faults" in note
        for protocol in tiny_campaign.protocols:
            assert protocol in note

    def test_downtime_note_absent_for_clean_runs(self, tiny_campaign):
        assert injected_downtime_note(tiny_campaign.baseline_runs) is None


class TestResultEdgeCases:
    def _result(self) -> CampaignResult:
        """A hand-built campaign with one failed faulted run."""
        def run(protocol, seed, delivered, error=None):
            return RunResult(
                protocol=protocol, topology_seed=seed, duration_s=8.0,
                offered_packets=100, expected_deliveries=100,
                delivered_packets=delivered,
                delivered_bytes=delivered * 100,
                mean_delay_s=None, probe_bytes=0.0, error=error,
            )

        result = CampaignResult(
            name="edge", baseline="odmrp",
            config=CampaignConfig(draws=2),
            seeds=(1,), protocols=("odmrp", "spp"),
            draws=[
                CampaignDraw(
                    index=0, generator="storm", theta=0.3, weight=1.5,
                    plans={1: FaultPlan()},
                ),
                CampaignDraw(
                    index=1, generator="storm", theta=0.8, weight=0.5,
                    plans={1: FaultPlan()},
                ),
            ],
            baseline_runs=[run("odmrp", 1, 80), run("spp", 1, 100)],
            draw_runs=[
                [run("odmrp", 1, 40), run("spp", 1, 90)],
                [run("odmrp", 1, 8), run("spp", 1, 0, error="boom")],
            ],
        )
        return result

    def test_failed_runs_drop_out_of_estimates(self):
        result = self._result()
        assert result.failed_faulted_runs("spp") == 1
        assert result.failed_faulted_runs("odmrp") == 0
        # spp's series only has draw 0 (draw 1 errored): ratio 0.9.
        relative, _ci = result.mean_relative_delivery("spp")
        assert relative == pytest.approx(0.9)

    def test_tail_probability_weighted(self):
        result = self._result()
        # odmrp ratios: draw 0 -> 0.5 (not < 0.5), draw 1 -> 0.1 (tail).
        probability, _ci = result.tail_probability("odmrp")
        assert probability == pytest.approx(0.5 / 2.0)

    def test_empty_series_sentinels(self):
        result = self._result()
        result.draw_runs = [[], []]
        assert result.tail_probability("spp") == (0.0, (0.0, 0.0))
        assert result.mean_relative_delivery("spp") == (0.0, (0.0, 0.0))
        assert result.degradation_curve("spp") == []


class TestCli:
    def test_run_parser_accepts_campaign_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "--campaign", "--dry-run"])
        assert args.campaign is True

    def test_dry_run_prints_campaign_plan(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = str(tmp_path / "spec.toml")
        tiny_spec().save(spec_path)
        code = main(["run", "--spec", spec_path, "--dry-run"])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign: 2 fault draws" in out

    def test_campaign_flag_fills_default_section(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = str(tmp_path / "spec.toml")
        tiny_spec(campaign=None).save(spec_path)
        code = main(
            ["run", "--spec", spec_path, "--campaign", "--dry-run"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign: 8 fault draws" in out
