"""Tests for the Study façade: equivalence, round-trips, campaigns, plug-ins."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import MOELAConfig
from repro.core.problem import NocDesignProblem
from repro.experiments.config import CampaignConfig, ExperimentConfig
from repro.experiments.runner import make_problem, run_algorithm, run_campaign
from repro.moo.base import PopulationOptimizer
from repro.moo.termination import Budget
from repro.study.optimizers import BUILTIN_ALGORITHMS
from repro.study.registry import OptimizerSpec, default_registry, register_optimizer
from repro.study.study import PLATFORM_FACTORIES, Study, resolve_platform
from repro.utils.serialization import platform_to_dict

#: Study used by most tests: tiny platform, one app, 60 evaluations per run.
def smoke_study(*algorithms: str) -> Study:
    study = Study(platform="tiny", objectives=3, preset="smoke").apps("BFS").evaluations(60)
    if algorithms:
        study.algorithms(*algorithms)
    return study


def assert_results_identical(a, b):
    """Bit-identical OptimizationResults (objectives, history, counters)."""
    assert a.algorithm == b.algorithm
    assert a.evaluations == b.evaluations
    assert np.array_equal(a.objectives, b.objectives)
    assert len(a.history) == len(b.history)
    for snap_a, snap_b in zip(a.history, b.history):
        assert snap_a.iteration == snap_b.iteration
        assert snap_a.evaluations == snap_b.evaluations
        assert np.array_equal(snap_a.front, snap_b.front)


class TestResolvePlatform:
    @pytest.mark.parametrize("name", ["tiny", "TINY_2x2x2", "tiny-2x2x2"])
    def test_names_resolve(self, name):
        assert resolve_platform(name) == PLATFORM_FACTORIES["tiny"]()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown platform"):
            resolve_platform("mega")


def _run_with(name, **options):
    """A smoke study running another algorithm, then ``name`` with ``options``.

    ``run()`` must reject the options before the study starts: any event, the
    other algorithm's included, fails the test.
    """

    def fail(event):
        pytest.fail(f"the study emitted {event.kind!r} before rejecting {options}")

    first = "MOOS" if name == "NSGA-II" else "NSGA-II"
    return lambda: smoke_study(first).algorithm(name, **options).on_event(fail).run()


def _create_with(name, **options):
    """The registry building ``name`` with ``options``, as ``run_algorithm`` does."""

    def create():
        experiment = smoke_study().experiment()
        problem = make_problem(experiment, "BFS", 3)
        default_registry().create(name, problem, experiment, 1, **options)

    return create


def _tiny_platform_table(**fields):
    return {"platform": {**platform_to_dict(PLATFORM_FACTORIES["tiny"]()), **fields}}


def _rejected(case_id, build, key, error=TypeError):
    return pytest.param(build, error, key, id=case_id)


#: Every entry point that stores a count, a flag, a probability, a list of
#: names or a path, fed a value of the wrong type (``TypeError``) or out of
#: range (``ValueError``).  Each must raise from the call that received the
#: value, with a message that starts with the key or field the caller wrote.
REJECTED_SETTINGS = [
    # The Study constructor.
    _rejected("constructor-seed-float", lambda: Study(seed=2.7), "seed"),
    _rejected("constructor-seed-bool", lambda: Study(seed=True), "seed"),
    _rejected("constructor-evaluations-float", lambda: Study(evaluations=150.5), "evaluations"),
    _rejected(
        "constructor-evaluations-negative", lambda: Study(evaluations=-3), "evaluations", ValueError
    ),
    _rejected(
        "constructor-population-size-string", lambda: Study(population_size="8"), "population_size"
    ),
    _rejected("constructor-objectives-float", lambda: Study(objectives=5.9), "objectives"),
    _rejected("constructor-objectives-string", lambda: Study(objectives="5"), "objectives"),
    _rejected("constructor-apps-int-entry", lambda: Study(apps=[5]), "applications"),
    _rejected("constructor-platform-int", lambda: Study(platform=5), "platform"),
    # The fluent setters.
    _rejected("setter-seed-float", lambda: Study().seed(2.7), "seed"),
    _rejected("setter-seed-bool", lambda: Study().seed(True), "seed"),
    _rejected("setter-objectives-float", lambda: Study().objectives(5.9), "objectives"),
    _rejected("setter-objectives-bool", lambda: Study().objectives(True), "objectives"),
    *[
        _rejected(
            f"setter-{setter.replace('_', '-')}-{value!r}",
            lambda s=setter, v=value: getattr(Study(), s)(v),
            setter,
        )
        for setter in ("evaluations", "population_size")
        for value in (150.7, "9", True)
    ],
    _rejected("setter-apps-int", lambda: Study().apps(5), "applications"),
    _rejected("setter-scenarios-int", lambda: Study().scenarios(5), "scenarios"),
    # Study.from_dict.
    _rejected("from-dict-seed-float", lambda: Study.from_dict({"seed": 2.7}), "seed"),
    _rejected(
        "from-dict-evaluations-float", lambda: Study.from_dict({"evaluations": 2.7}), "evaluations"
    ),
    _rejected(
        "from-dict-population-size-string",
        lambda: Study.from_dict({"population_size": "8"}),
        "population_size",
    ),
    _rejected(
        "from-dict-population-size-too-small",
        lambda: Study.from_dict({"population_size": 2}),
        "population_size",
        ValueError,
    ),
    _rejected(
        "from-dict-objectives-strings",
        lambda: Study.from_dict({"objectives": ["3", "5"]}),
        "objectives",
    ),
    _rejected(
        "from-dict-objectives-out-of-range",
        lambda: Study.from_dict({"objectives": 7}),
        "objectives",
        ValueError,
    ),
    _rejected(
        "from-dict-applications-string",
        lambda: Study.from_dict({"applications": "PF"}),
        "applications",
    ),
    _rejected(
        "from-dict-algorithms-string",
        lambda: Study.from_dict({"algorithms": "moela"}),
        "algorithms",
    ),
    _rejected(
        "from-dict-algorithms-int-entry", lambda: Study.from_dict({"algorithms": [5]}), "algorithms"
    ),
    _rejected(
        "from-dict-scenarios-string",
        lambda: Study.from_dict({"scenarios": "identity"}),
        "scenarios",
    ),
    _rejected(
        "from-dict-platform-float-degree",
        lambda: Study.from_dict(_tiny_platform_table(max_router_degree=5.0)),
        "max_router_degree",
    ),
    *[
        _rejected(
            f"from-dict-campaign-{key.replace('_', '-')}-{value!r}",
            lambda k=key, v=value: Study.from_dict({"campaign": {"output_dir": "x", k: v}}),
            key,
        )
        for key, value in (("resume", "false"), ("max_workers", 2.9), ("max_workers", True))
    ],
    _rejected(
        "from-dict-campaign-output-dir-int",
        lambda: Study.from_dict({"campaign": {"output_dir": 5}}),
        "output_dir",
    ),
    # Study.campaign.
    _rejected(
        "campaign-max-workers-float", lambda: Study().campaign("x", max_workers=2.9), "max_workers"
    ),
    _rejected(
        "campaign-max-workers-string", lambda: Study().campaign("x", max_workers="2"), "max_workers"
    ),
    _rejected("campaign-resume-string", lambda: Study().campaign("x", resume="no"), "resume"),
    _rejected("campaign-output-dir-int", lambda: Study().campaign(5), "output_dir"),
    # The config dataclasses.
    _rejected(
        "experiment-population-size-float",
        lambda: ExperimentConfig(population_size=16.5),
        "population_size",
    ),
    _rejected(
        "experiment-max-evaluations-float",
        lambda: ExperimentConfig(max_evaluations=100.5),
        "max_evaluations",
    ),
    _rejected("experiment-seed-float", lambda: ExperimentConfig(seed=2.7), "seed"),
    _rejected(
        "experiment-objective-counts-float",
        lambda: ExperimentConfig(objective_counts=(3.0,)),
        "objective_counts",
    ),
    _rejected(
        "experiment-objective-counts-scalar",
        lambda: ExperimentConfig(objective_counts=3),
        "objective_counts",
    ),
    _rejected("moela-generations-float", lambda: MOELAConfig(generations=2.5), "generations"),
    _rejected("moela-forest-depth-bool", lambda: MOELAConfig(forest_depth=True), "forest_depth"),
    _rejected("moela-delta-bool", lambda: MOELAConfig(delta=True), "delta"),
    _rejected("moela-delta-string", lambda: MOELAConfig(delta="0.9"), "delta"),
    _rejected(
        "campaign-config-max-workers-bool", lambda: CampaignConfig(max_workers=True), "max_workers"
    ),
    *[
        _rejected(
            f"campaign-config-{key.replace('_', '-')}-{value!r}",
            lambda k=key, v=value: CampaignConfig(**{k: v}),
            key,
        )
        for key, value in (
            ("max_workers", 1.5),
            ("max_workers", "2"),
            ("max_evaluations", 60.5),
            ("max_evaluations", "60"),
        )
    ],
    _rejected("campaign-config-resume-string", lambda: CampaignConfig(resume="no"), "resume"),
    _rejected(
        "budget-evaluations-float", lambda: Budget.evaluations(150.5), "max_evaluations"
    ),
    _rejected("budget-iterations-bool", lambda: Budget(max_iterations=True), "max_iterations"),
    _rejected("budget-iterations-string", lambda: Budget.iterations("5"), "max_iterations"),
    _rejected(
        "budget-evaluations-zero", lambda: Budget(max_evaluations=0), "max_evaluations", ValueError
    ),
    _rejected("platform-n-float", lambda: replace(PLATFORM_FACTORIES["tiny"](), n=2.0), "n"),
    _rejected(
        "platform-max-router-degree-float",
        lambda: replace(PLATFORM_FACTORIES["tiny"](), max_router_degree=5.0),
        "max_router_degree",
    ),
    # Study.algorithm overrides: population_size when the study receives it,
    # the other values when run() builds the optimizers, before any event.
    _rejected(
        "moela-generations-override-float", _run_with("MOELA", generations=2.5), "generations"
    ),
    _rejected(
        "moela-forest-depth-override-bool", _run_with("MOELA", forest_depth=True), "forest_depth"
    ),
    _rejected(
        "nsga2-crossover-probability-override-bool",
        _run_with("NSGA-II", crossover_probability=True),
        "crossover_probability",
    ),
    _rejected(
        "moo-stage-max-training-samples-override-bool",
        _run_with("MOO-STAGE", max_training_samples=True),
        "max_training_samples",
    ),
    _rejected("moead-delta-override-string", _run_with("MOEA/D", delta="0.9"), "delta"),
    _rejected(
        "moos-num-directions-override-float",
        _run_with("MOOS", num_directions=2.5),
        "num_directions",
    ),
    *[
        _rejected(f"{name}-population-size-override-{value!r}-{entry}", build, "population_size")
        for name in BUILTIN_ALGORITHMS
        for value in (8.7, "9")
        for entry, build in (
            ("setter", lambda n=name, v=value: smoke_study().algorithm(n, population_size=v)),
            (
                "from-dict",
                lambda n=name, v=value: Study.from_dict(
                    {"algorithms": [{"name": n, "options": {"population_size": v}}]}
                ),
            ),
            ("registry", _create_with(name, population_size=value)),
        )
    ],
    _rejected(
        "moela-population-size-override-too-small",
        _run_with("MOELA", population_size=3),
        "population_size",
        ValueError,
    ),
]


@pytest.mark.parametrize("build, error, key", REJECTED_SETTINGS)
def test_every_entry_point_rejects_malformed_settings(build, error, key):
    with pytest.raises(error, match=rf"^{key}\b"):
        build()


#: The unknown-key error a payload setting the retired ``routing_cache`` key
#: raises: it names the key and lists the accepted ones.
RETIRED_ROUTING_CACHE_KEY = r"^unknown study keys \['routing_cache'\]; accepted: preset, platform"


class TestStudyValidation:
    def test_unknown_algorithm_raises_with_available_names(self):
        with pytest.raises(ValueError, match="available: MOELA, MOEA/D"):
            smoke_study().algorithm("SIMULATED-ANNEALING")

    def test_unknown_hyperparameter_raises(self):
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            smoke_study().algorithm("nsga2", warp_factor=9)

    @pytest.mark.parametrize("name", ["MOELA", "MOOS", "MOO-STAGE", "NSGA-II"])
    def test_removed_batch_evaluation_hyperparameter_raises(self, name):
        match = r"unknown hyperparameters \['batch_evaluation'\]"
        with pytest.raises(ValueError, match=match):
            default_registry().spec(name).validate_options({"batch_evaluation": False})
        with pytest.raises(ValueError, match=match):
            smoke_study().algorithm(name, batch_evaluation=True)

    @pytest.mark.parametrize("setter", ["evaluations", "population_size"])
    def test_fluent_integer_settings_accept_integer_like_values(self, setter):
        study = getattr(smoke_study(), setter)(np.int64(12))
        value = study.to_dict()[setter]
        assert value == 12 and type(value) is int

    def test_integer_like_settings_are_stored_as_int(self):
        study = Study(objectives=np.int64(5), seed=np.int64(3), evaluations=np.int32(40))
        payload = study.to_dict()
        assert payload["objectives"] == [5] and type(payload["objectives"][0]) is int
        assert payload["seed"] == 3 and type(payload["seed"]) is int
        assert payload["evaluations"] == 40 and type(payload["evaluations"]) is int

    def test_duplicate_algorithm_rejected(self):
        with pytest.raises(ValueError, match="already part of the study"):
            smoke_study().algorithm("moead").algorithm("MOEA/D")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            Study(preset="warp")

    def test_from_dict_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown study keys"):
            Study.from_dict({"preset": "smoke", "colour": "blue"})

    def test_from_dict_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="available: MOELA"):
            Study.from_dict({"algorithms": ["NOPE"]})

    @pytest.mark.parametrize(
        "key",
        [
            "turbo",
            "parallel_evaluation",
            "event_log",
            "repair_infeasible",
            "repair_max_rounds",
            "repair_candidates_per_round",
            "repair_max_evaluations",
            "shared_routing_cache",
            "routing_warm_start",
        ],
    )
    def test_from_dict_unknown_campaign_key_raises(self, key):
        with pytest.raises(ValueError, match="unknown campaign keys.*accepted: output_dir"):
            Study.from_dict({"campaign": {"output_dir": "x", key: True}})

    def test_campaign_requires_output_dir(self):
        with pytest.raises(ValueError, match="output_dir"):
            Study.from_dict({"campaign": {"max_workers": 2}})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("resume", False),
            ("max_workers", 3),
        ],
    )
    def test_from_dict_keeps_well_formed_campaign_settings(self, key, value):
        study = Study.from_dict({"campaign": {"output_dir": "x", key: value}})
        setting = study.campaign_settings()[key]
        assert setting == value and type(setting) is type(value)

    def test_from_dict_rejects_the_retired_routing_cache_key(self):
        with pytest.raises(ValueError, match=RETIRED_ROUTING_CACHE_KEY):
            Study.from_dict({"routing_cache": False})

    @pytest.mark.parametrize(
        "suffix, text", [(".json", '{"routing_cache": false}'), (".toml", "routing_cache = false\n")]
    )
    def test_study_file_with_the_retired_routing_cache_key_fails(self, tmp_path, suffix, text):
        path = tmp_path / f"study{suffix}"
        path.write_text(text)
        with pytest.raises(ValueError, match=RETIRED_ROUTING_CACHE_KEY):
            Study.from_file(path)

    @pytest.mark.parametrize("key", ["shared_routing_cache", "routing_warm_start", "routing_cache"])
    def test_campaign_config_has_no_retired_route_sharing_fields(self, key):
        with pytest.raises(TypeError, match=key):
            CampaignConfig(**{key: True})

    @pytest.mark.parametrize(
        "build",
        [
            lambda workload: Study(routing_cache=False),
            lambda workload: Study().routing_cache(False),
            lambda workload: make_problem(ExperimentConfig.smoke(), "BFS", 3, routing_cache=False),
            lambda workload: NocDesignProblem(workload, scenario=3, routing_cache=False),
        ],
        ids=["study-constructor", "study-setter", "make-problem", "noc-design-problem"],
    )
    def test_routing_cache_switch_is_gone_above_the_evaluator(self, build, tiny_workload):
        with pytest.raises((TypeError, AttributeError), match="routing_cache"):
            build(tiny_workload)

    def test_campaign_config_takes_only_campaign_settings(self):
        campaign = Study(evaluations=60).campaign("x").campaign_config()
        assert campaign.max_evaluations is None
        assert campaign.experiment.max_evaluations == 60

    def test_campaign_to_dict_round_trips_the_surviving_keys(self):
        study = Study(preset="smoke").campaign("x", max_workers=2, resume=False)
        campaign = study.to_dict()["campaign"]
        assert campaign == {"output_dir": "x", "max_workers": 2, "resume": False}
        assert Study.from_dict(study.to_dict()).campaign_settings() == study.campaign_settings()


class TestSeededEquivalence:
    """Acceptance criterion: Study runs are bit-identical to run_algorithm."""

    @pytest.mark.parametrize("algorithm", ["MOELA", "MOEA/D", "MOOS", "MOO-STAGE", "NSGA-II"])
    def test_study_matches_legacy_run_algorithm(self, algorithm):
        study = smoke_study(algorithm)
        via_study = study.run().result(algorithm)

        experiment = study.experiment()
        problem = make_problem(experiment, "BFS", 3)
        legacy = run_algorithm(
            algorithm, problem, experiment, budget=Budget.evaluations(60)
        )
        assert_results_identical(via_study, legacy)

    def test_experiment_reflects_overrides(self):
        experiment = smoke_study().experiment()
        assert experiment.platform.name == "tiny-2x2x2"
        assert experiment.applications == ("BFS",)
        assert experiment.objective_counts == (3,)
        assert experiment.max_evaluations == 60


class TestRoundTrip:
    """Acceptance criterion: from_dict(to_dict()) reproduces seeded results."""

    def test_round_trip_identical_results_for_every_registered_optimizer(self):
        for algorithm in default_registry().names():
            study = smoke_study(algorithm)
            clone = Study.from_dict(study.to_dict())
            assert clone.to_dict() == study.to_dict()
            assert_results_identical(
                study.run().result(algorithm), clone.run().result(algorithm)
            )

    def test_round_trip_preserves_options(self):
        study = smoke_study().algorithm("nsga2", population_size=4, mutation_probability=0.5)
        payload = study.to_dict()
        assert payload["algorithms"] == [
            {"name": "NSGA-II", "options": {"population_size": 4, "mutation_probability": 0.5}}
        ]
        clone = Study.from_dict(payload)
        a = study.run().result("NSGA-II")
        b = clone.run().result("NSGA-II")
        assert_results_identical(a, b)
        assert a.objectives.shape[0] == 4

    def test_round_trip_through_json_and_toml_files(self, tmp_path):
        study = smoke_study("MOEA/D")
        json_path = tmp_path / "study.json"
        json_path.write_text(json.dumps(study.to_dict()))
        assert Study.from_file(json_path).to_dict() == study.to_dict()

        toml_path = tmp_path / "study.toml"
        toml_path.write_text(
            'preset = "smoke"\nplatform = "tiny"\nobjectives = [3]\n'
            'applications = ["BFS"]\nalgorithms = ["MOEA/D"]\nevaluations = 60\n'
        )
        assert Study.from_file(toml_path).to_dict() == study.to_dict()

    def test_custom_platform_round_trips_as_dict(self):
        """Custom platforms serialise field-by-field — including the
        energy/thermal/frequency constants, which must survive the trip."""
        platform = replace(
            PLATFORM_FACTORIES["tiny"](), router_stages=3, link_energy_per_flit=2.25
        )
        study = Study(platform=platform, preset="smoke")
        payload = study.to_dict()
        assert isinstance(payload["platform"], dict)
        rebuilt = Study.from_dict(payload).experiment().platform
        assert rebuilt == platform
        assert rebuilt.link_energy_per_flit == 2.25

    def test_custom_platform_reusing_a_factory_name_still_serialises_fields(self):
        platform = replace(PLATFORM_FACTORIES["tiny"](), link_energy_per_flit=2.25)
        assert platform.name == "tiny-2x2x2"
        payload = Study(platform=platform, preset="smoke").to_dict()
        assert isinstance(payload["platform"], dict)

    def test_unset_fields_stay_absent(self):
        assert smoke_study().to_dict() == {
            "preset": "smoke",
            "platform": "tiny-2x2x2",
            "objectives": [3],
            "applications": ["BFS"],
            "evaluations": 60,
        }


class TestStudyResult:
    def test_result_accessor_disambiguation(self):
        result = smoke_study("MOEA/D", "NSGA-II").run()
        assert result.result("moead").algorithm == "MOEA/D"
        with pytest.raises(KeyError):
            result.result("MOELA")

    def test_iteration_yields_every_run(self):
        result = smoke_study("MOEA/D", "NSGA-II").run()
        rows = list(result)
        assert {(app, m, name) for app, m, name, _ in rows} == {
            ("BFS", 3, "MOEA/D"),
            ("BFS", 3, "NSGA-II"),
        }

    def test_tables_and_cache_summary(self):
        result = smoke_study("MOEA/D", "NSGA-II").run()
        assert result.target == "MOEA/D"
        text = result.format_tables()
        assert "Table I" in text and "Table II" in text
        stats = result.routing_cache_summary()
        assert stats["requests"] > 0 and 0.0 <= stats["hit_rate"] <= 1.0

    def test_cache_summary_does_not_double_count_shared_engines(self):
        """Inline runs share one engine per (app, m) group and each result's
        snapshot is cumulative, so the fold must use the group's last
        snapshot — not the sum of every algorithm's snapshot."""
        result = smoke_study("MOEA/D", "NSGA-II").run()
        group = result.runs[("BFS", 3)]
        last = list(group.values())[-1].metadata["routing_cache"]
        expected = sum(int(last[k]) for k in ("hits", "misses", "incremental_repairs"))
        assert result.routing_cache_summary()["requests"] == expected


class TestStudyCampaign:
    def test_campaign_mode_produces_unified_result(self, tmp_path):
        study = (
            Study(preset="smoke")
            .apps("BFS", "BP")
            .algorithms("MOEA/D", "NSGA-II")
            .evaluations(40)
            .campaign(tmp_path / "campaign")
        )
        result = study.run()
        assert result.campaign is not None
        assert len(result.campaign.executed) == 4
        assert sorted(result.runs) == [("BFS", 3), ("BP", 3)]
        assert result.routing_cache_summary()["hit_rate"] > 0

        resumed = Study.from_dict(study.to_dict()).run()
        assert resumed.campaign.executed == []
        assert len(resumed.campaign.skipped) == 4

    def test_campaign_cells_match_direct_config(self, tmp_path):
        """Study campaigns resume directories written by CampaignConfig.smoke()."""
        direct = CampaignConfig.smoke()
        run_campaign(direct, tmp_path)
        study = (
            Study(preset="smoke")
            .apps("BFS", "BP")
            .algorithms("MOEA/D", "NSGA-II")
            .evaluations(60)
            .campaign(tmp_path)
        )
        result = study.run()
        assert result.campaign.executed == []
        assert len(result.campaign.skipped) == 4

    def test_campaign_rejects_per_algorithm_options(self, tmp_path):
        study = smoke_study().algorithm("nsga2", population_size=4).campaign(tmp_path)
        with pytest.raises(ValueError, match="does not support per-algorithm"):
            study.run()


class RandomRestart(PopulationOptimizer):
    """Minimal custom optimizer used by the end-to-end plug-in test."""

    name = "RANDOM-RESTART"

    def step(self, iteration, budget):
        brood = [
            self.problem.random_design(self.rng)
            for _ in range(self.brood_limit(budget, self.population_size))
        ]
        if brood:
            self.evaluate_batch(brood)


class TestThirdPartyOptimizer:
    """Acceptance criterion: a custom optimizer runs through Study AND a
    campaign shard without modifying repro/experiments."""

    @pytest.fixture()
    def registered(self):
        spec = OptimizerSpec(
            name="RANDOM-RESTART",
            factory=lambda problem, experiment, seed, **options: RandomRestart(
                problem, population_size=experiment.population_size, rng=seed
            ),
        )
        register_optimizer(spec)
        yield spec
        default_registry().unregister("RANDOM-RESTART")

    def test_spec_default_budget_honored_by_study(self, tmp_path):
        """The façade defers to the spec's default budget wiring (it must not
        silently re-derive a budget the registration overrode)."""
        spec = OptimizerSpec(
            name="SHORT-WALK",
            factory=lambda problem, experiment, seed, **options: RandomRestart(
                problem, population_size=experiment.population_size, rng=seed
            ),
            default_budget=lambda experiment: Budget.evaluations(18),
        )
        register_optimizer(spec)
        try:
            result = smoke_study("short-walk").run().result("SHORT-WALK")
            assert result.evaluations == 18
        finally:
            default_registry().unregister("SHORT-WALK")

    def test_runs_through_study_and_campaign_shard(self, registered, tmp_path):
        result = smoke_study("random-restart").run().result("RANDOM-RESTART")
        assert result.evaluations == 60

        study = (
            Study(preset="smoke")
            .apps("BFS")
            .algorithms("RANDOM-RESTART", "NSGA-II")
            .evaluations(40)
            .campaign(tmp_path)
        )
        outcome = study.run()
        assert len(outcome.campaign.executed) == 2
        shard = outcome.runs[("BFS", 3)]["RANDOM-RESTART"]
        assert shard.algorithm == "RANDOM-RESTART"
        assert shard.evaluations == 40


class TestScenarios:
    FAULT = "link_failure(k=1,mode=remove,derate_factor=0.5)"

    def test_scenarios_round_trip_canonicalised(self):
        study = smoke_study("nsga2").scenarios("identity", "link_failure(k=1)")
        payload = study.to_dict()
        assert payload["scenarios"] == ["identity", self.FAULT]
        assert Study.from_dict(payload).to_dict()["scenarios"] == payload["scenarios"]

    def test_unset_scenarios_stay_absent(self):
        assert "scenarios" not in smoke_study("nsga2").to_dict()

    def test_unknown_scenario_kind_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario model"):
            Study.from_dict({"scenarios": ["meteor_strike"]})

    def test_invalid_scenario_parameters_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            smoke_study("nsga2").scenarios("link_failure(k=0)")

    def test_duplicate_scenarios_rejected_when_set(self):
        with pytest.raises(ValueError, match="duplicate scenario models"):
            smoke_study("nsga2").scenarios("identity", "link_failure(k=1)", "link_failure(k=1)")

    def test_inline_run_refuses_fault_scenarios(self):
        study = smoke_study("nsga2").scenarios("identity", self.FAULT)
        with pytest.raises(ValueError, match="campaign mode"):
            study.run()

    def test_campaign_with_scenario_axis_and_rollup_analytics(self, tmp_path):
        study = (
            smoke_study("nsga2")
            .evaluations(40)
            .scenarios("identity", self.FAULT)
            .campaign(tmp_path)
        )
        result = study.run()
        assert len(result.campaign.executed) == 2  # identity + faulted cell
        certificate = result.robustness()
        assert len(certificate.records) == 1
        assert certificate.records[0].scenario == self.FAULT
        sensitivity = result.sensitivity()
        assert {e.scenario for e in sensitivity.entries} == {self.FAULT}

    def test_robustness_requires_campaign_mode(self):
        result = smoke_study("nsga2").run()
        with pytest.raises(ValueError, match="campaign"):
            result.robustness()
        with pytest.raises(ValueError, match="campaign"):
            result.sensitivity()

    def test_scenarios_key_accepted_in_study_files(self, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "preset": "smoke",
            "applications": ["BFS"],
            "algorithms": ["NSGA-II"],
            "evaluations": 40,
            "scenarios": ["identity", "link_failure(k=1)"],
        }))
        study = Study.from_file(config)
        assert study.experiment().scenario_models == ("identity", self.FAULT)
