"""Tests for the adaptive sweep planner (:mod:`repro.experiments.adaptive`).

Covers the planning primitives (seed pools, stopping decisions), the
``[adaptive]`` spec section's strict round-trip and validation, the
plan's journal records (written, replayable, invisible to run replay,
compaction-proof), paired-CRN comparisons, report rendering, the CLI
flag, and -- the regression anchor -- a golden batch-by-batch plan for
a tiny 3-protocol sweep (``tests/data/golden_adaptive_plan.json``), so
planner refactors cannot silently change seed allocation.

Regenerate the golden after an *intentional* planner change with::

    PYTHONPATH=src python tests/data/make_golden_adaptive_plan.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments.adaptive import (
    ADAPTIVE_PLAN_KEY,
    AdaptiveConfig,
    build_seed_pool,
    default_baseline,
    plan_journal_path,
    run_adaptive_experiment,
)
from repro.experiments.report import adaptive_section, render_report
from repro.experiments.resilience import PlanJournal, SweepJournal
from repro.experiments.scenarios import SimulationScenarioConfig
from repro.experiments.spec import ExperimentSpec, SpecError

GOLDEN_PLAN_PATH = (
    pathlib.Path(__file__).parent / "data" / "golden_adaptive_plan.json"
)

TINY_CONFIG = SimulationScenarioConfig(
    num_nodes=6,
    area_width_m=400.0,
    area_height_m=400.0,
    num_groups=1,
    members_per_group=3,
    duration_s=6.0,
    warmup_s=2.0,
)


def tiny_spec(**overrides) -> ExperimentSpec:
    adaptive = overrides.pop("adaptive", AdaptiveConfig(
        target_half_width=0.2, batch_size=2, min_seeds=2, max_seeds=8,
    ))
    defaults = dict(
        name="golden-adaptive",
        protocols=("odmrp", "spp", "etx"),
        seeds=(1, 2),
        adaptive=adaptive,
        config=TINY_CONFIG,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


@pytest.fixture(scope="module")
def tiny_plan():
    """One shared adaptive execution for every assertion below."""
    return run_adaptive_experiment(tiny_spec())


class TestSeedPool:
    def test_extends_spec_seeds_deterministically(self):
        assert build_seed_pool((1, 2), 6) == (1, 2, 3, 4, 5, 6)
        assert build_seed_pool((5, 9), 4) == (5, 9, 10, 11)

    def test_skips_seeds_the_spec_already_uses(self):
        assert build_seed_pool((3, 1), 5) == (3, 1, 4, 5, 6)

    def test_truncates_to_cap(self):
        assert build_seed_pool((1, 2, 3, 4), 2) == (1, 2)

    def test_exact_fit(self):
        assert build_seed_pool((7, 8), 2) == (7, 8)


class TestAdaptiveConfigValidation:
    def test_defaults_valid(self):
        AdaptiveConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"target_half_width": 0.0},
        {"target_half_width": -1.0},
        {"batch_size": 0},
        {"min_seeds": 0},
        {"max_seeds": 0},
        {"batch_size": True},
        {"min_seeds": 5, "max_seeds": 4},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kwargs).validate()

    def test_spec_rejects_unknown_baseline(self):
        spec = tiny_spec(adaptive=AdaptiveConfig(baseline="maodv"))
        with pytest.raises(SpecError, match="baseline"):
            spec.validate()

    def test_spec_rejects_mobility_axis_combination(self):
        spec = tiny_spec(mobility_models=("random-waypoint",))
        with pytest.raises(SpecError, match="mobility_models"):
            spec.validate()

    def test_spec_surfaces_adaptive_errors_as_spec_errors(self):
        spec = tiny_spec(adaptive=AdaptiveConfig(batch_size=0))
        with pytest.raises(SpecError, match="batch_size"):
            spec.validate()


class TestSpecRoundTrip:
    def test_toml_round_trip(self):
        spec = tiny_spec(adaptive=AdaptiveConfig(
            target_half_width=0.1, batch_size=3, min_seeds=2,
            max_seeds=12, paired=False, baseline="spp",
        ))
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_json_round_trip(self):
        spec = tiny_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_adaptive_section_omitted_when_absent(self):
        spec = tiny_spec(adaptive=None)
        assert "adaptive" not in spec.to_dict()
        assert ExperimentSpec.from_toml(spec.to_toml()).adaptive is None

    def test_unknown_adaptive_key_rejected(self):
        data = tiny_spec().to_dict()
        data["adaptive"]["typo_knob"] = 1
        with pytest.raises(SpecError, match="typo_knob"):
            ExperimentSpec.from_dict(data)

    def test_describe_mentions_adaptive(self):
        text = tiny_spec().describe()
        assert "adaptive:" in text
        assert "target-half-width=0.2" in text


class TestDefaultBaseline:
    def test_prefers_odmrp(self):
        assert default_baseline(("spp", "odmrp", "etx")) == "odmrp"

    def test_registry_order_otherwise(self):
        assert default_baseline(("spp", "etx")) == "etx"


class TestPlanner:
    def test_plan_shape(self, tiny_plan):
        assert tiny_plan.seed_pool == (1, 2, 3, 4, 5, 6, 7, 8)
        assert tiny_plan.baseline == "odmrp"
        assert tiny_plan.batches, "planner produced no batches"
        spent = tiny_plan.seeds_spent()
        assert set(spent) == {"odmrp", "spp", "etx"}
        # The planner's whole point: budget follows variance, so not
        # every protocol may spend the full cap.
        assert all(2 <= n <= 8 for n in spent.values())
        assert tiny_plan.total_runs == sum(spent.values())

    def test_stop_reasons_are_terminal(self, tiny_plan):
        reasons = tiny_plan.stop_reasons()
        assert all(
            reason in ("converged", "max-seeds", "zero-throughput")
            for reason in reasons.values()
        )

    def test_converged_protocols_hit_target(self, tiny_plan):
        target = tiny_plan.config.target_half_width
        for decision in tiny_plan.final_decisions().values():
            if decision.reason == "converged":
                assert decision.ci_half_width <= target
                assert decision.seeds_spent >= tiny_plan.config.min_seeds

    def test_runs_match_plan(self, tiny_plan):
        by_protocol = {}
        for run in tiny_plan.runs:
            by_protocol.setdefault(run.protocol, []).append(
                run.topology_seed
            )
        for protocol, spent in tiny_plan.seeds_spent().items():
            assert by_protocol[protocol] == list(
                tiny_plan.seed_pool[:spent]
            )

    def test_deterministic_replan(self, tiny_plan):
        again = run_adaptive_experiment(tiny_spec())
        assert again.plan_dict() == tiny_plan.plan_dict()
        assert again.runs == tiny_plan.runs

    def test_paired_comparisons_cover_non_baseline(self, tiny_plan):
        comparisons = {
            c.protocol: c for c in tiny_plan.paired_comparisons()
        }
        assert set(comparisons) == {"spp", "etx"}
        for comparison in comparisons.values():
            assert comparison.pairs >= 2
            assert comparison.paired_low <= comparison.paired_high

    def test_unpaired_mode_disjoint_seeds(self):
        spec = tiny_spec(
            protocols=("odmrp", "spp"),
            adaptive=AdaptiveConfig(
                target_half_width=0.2, batch_size=2, min_seeds=2,
                max_seeds=4, paired=False,
            ),
        )
        plan = run_adaptive_experiment(spec)
        seeds = {
            protocol: {
                run.topology_seed for run in plan.runs
                if run.protocol == protocol
            }
            for protocol in spec.protocols
        }
        assert not (seeds["odmrp"] & seeds["spp"])


def replay_plan(path, name):
    return PlanJournal(path, ADAPTIVE_PLAN_KEY, name).replay()


class TestPlanJournal:
    def test_plan_records_round_trip(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        spec = tiny_spec(
            protocols=("odmrp", "spp"),
            adaptive=AdaptiveConfig(
                target_half_width=0.2, batch_size=2, min_seeds=2,
                max_seeds=4,
            ),
        )
        plan = run_adaptive_experiment(spec, journal_path=journal)
        records = replay_plan(journal, spec.name)
        assert len(records) == len(plan.batches)
        for record, batch in zip(
            records, plan.plan_dict()["batches"]
        ):
            assert record["batch"] == batch["batch"]
            assert record["seeds"] == batch["seeds"]
            assert record["protocols"] == batch["protocols"]
            assert record["decisions"] == batch["decisions"]

        # Plan records are invisible to run replay (executors never see
        # them) but survive compaction (unique schema-1 keys).
        run_records = SweepJournal.replay(journal)
        assert len(run_records) == plan.total_runs
        SweepJournal.compact(journal)
        assert replay_plan(journal, spec.name) == records
        assert len(SweepJournal.replay(journal)) == plan.total_runs

    def test_resume_replays_identical_plan(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        spec = tiny_spec(
            protocols=("odmrp", "spp"),
            adaptive=AdaptiveConfig(
                target_half_width=0.2, batch_size=2, min_seeds=2,
                max_seeds=4,
            ),
        )
        first = run_adaptive_experiment(spec, journal_path=journal)
        resumed = run_adaptive_experiment(
            spec, journal_path=journal, resume=True
        )
        assert resumed.plan_dict() == first.plan_dict()
        assert resumed.runs == first.runs

    def test_journal_path_resolution(self, tmp_path):
        plain = tiny_spec()
        assert plan_journal_path(plain) is None
        explicit = plan_journal_path(
            plain, journal_path=str(tmp_path / "j.jsonl")
        )
        assert explicit == str(tmp_path / "j.jsonl")
        distributed = tiny_spec(backend=f"dir://{tmp_path}/shared")
        assert plan_journal_path(distributed) == (
            f"{tmp_path}/shared/journal.jsonl"
        )
        resilient = tiny_spec(run_timeout_s=30.0)
        assert plan_journal_path(resilient) is not None


class TestReporting:
    def test_adaptive_section_contents(self, tiny_plan):
        section = adaptive_section(tiny_plan)
        assert "### Adaptive plan" in section
        assert "seeds" in section and "CI half-width" in section
        assert "paired delta vs odmrp" in section
        for protocol, spent in tiny_plan.seeds_spent().items():
            assert f"| {protocol} | {spent} |" in section

    def test_render_report_includes_plan(self, tiny_plan):
        report = render_report(
            tiny_plan.runs, title="adaptive", adaptive=tiny_plan
        )
        assert "### Adaptive plan" in report
        assert "### Normalized throughput" in report


class TestCli:
    def test_run_parser_accepts_adaptive_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "--adaptive", "--dry-run"])
        assert args.adaptive is True
        assert args.dry_run is True

    def test_dry_run_prints_adaptive_plan(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = str(tmp_path / "spec.toml")
        tiny_spec().save(spec_path)
        code = main(["run", "--spec", spec_path, "--adaptive", "--dry-run"])
        out = capsys.readouterr().out
        assert code == 0
        assert "adaptive: target-half-width=0.2" in out


class TestGoldenPlan:
    """Refactors of the planner cannot silently change seed allocation."""

    def test_tiny_sweep_matches_golden_plan(self, tiny_plan):
        golden = json.loads(GOLDEN_PLAN_PATH.read_text(encoding="utf-8"))
        plan = tiny_plan.plan_dict()
        assert plan["seed_pool"] == golden["seed_pool"]
        assert plan["seeds_spent"] == golden["seeds_spent"]
        assert plan["stop_reasons"] == golden["stop_reasons"]
        assert plan["total_runs"] == golden["total_runs"]
        assert len(plan["batches"]) == len(golden["batches"])
        for mine, theirs in zip(plan["batches"], golden["batches"]):
            assert mine == theirs, (
                f"batch {theirs['batch']} diverged from the golden plan"
            )
        assert plan == golden
