import io
import json
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from driftlab import harness
from driftlab.core import (
    OutcomeSpace,
    ProbVector,
    SafetyReference,
    two_tier_reference,
    zipf_reference,
)
from driftlab.errors import ConfigError
from driftlab.evolution import (
    EvolutionConfig,
    Population,
    SelectionRule,
    Trajectory,
    UpdateRule,
    run,
    run_batch,
)
from driftlab.harness import (
    CLASS_COLLAPSE,
    CLASS_LEAKAGE,
    CLASS_STABLE,
    MAX_MI_CELLS,
    MAX_SEED_COUNT,
    ExperimentConfig,
    PolicySpec,
    PopulationSpec,
    ReferenceSpec,
    apply_env_overrides,
    build_population,
    build_reference,
    classify_terminal,
    column_median,
    compute_trend,
    config_from_mapping,
    default_policy_specs,
    format_value,
    load_config_file,
    load_experiment_config,
    load_trajectories,
    monitored_rare_set,
    paired_difference,
    parse_config_text,
    parse_policies_json,
    parse_schedule,
    parse_seed_spec,
    realize_policy,
    run_drift_experiment,
    run_ensemble_mi,
    run_intervention_comparison,
    save_trajectories_csv,
    save_trajectories_json,
    spearman_vs_round,
    trajectory_to_dict,
)
from driftlab.interventions import EntropyReleasePolicy
from driftlab.metrics import resolve_probes


def pv(*mass):
    return ProbVector(OutcomeSpace(len(mass)), list(mass))


def small_cfg(**extra):
    flat = {
        "space.size": "40",
        "evolution.sample_size": "30",
        "evolution.rounds": "6",
        "experiment.seeds": "3",
    }
    flat.update(extra)
    return config_from_mapping(flat)


def _toy_trajectory(seed, rows, probe_names):
    """rows[t] holds round t's value of each probe."""
    columns = np.array(rows, dtype=np.float64).T
    agent = pv(0.5, 0.5)
    return Trajectory(
        seed=seed,
        probe_names=tuple(probe_names),
        rounds=len(rows) - 1,
        values=dict(zip(probe_names, columns)),
        monitors={},
        monitor_mass={},
        monitor_absent={},
        fired=(),
        notes=(),
        final_population=Population.equal_weights([agent]),
    )


def _endpoint_trajectory(first_sm, last_sm, first_in, last_in):
    names = ("safe_mass", "in_safe_term")
    return _toy_trajectory(0, [(first_sm, first_in), (last_sm, last_in)], names)


# --- flat-config parsing -------------------------------------------------------


def test_parse_config_text_basics():
    flat = parse_config_text(
        "# a comment\n\nspace.size = 40\nevolution.rounds=9\nspace.size=50\n"
    )
    # later keys win, whitespace is trimmed
    assert flat == {"space.size": "50", "evolution.rounds": "9"}


def test_parse_config_text_rejects_garbage_lines():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("space.size=40\nnot a key value line\n")


def test_load_config_file_key_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("space.size=40\n# note\nexperiment.seeds=2\n")
    assert load_config_file(str(path)) == {"space.size": "40", "experiment.seeds": "2"}


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(str(tmp_path / "missing.cfg"))
    # a config file is key=value text, so a JSON object is refused
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": {"size": 50}}')
    with pytest.raises(ConfigError, match="line 1 is not key=value"):
        load_config_file(str(bad))


def test_env_overrides():
    merged = apply_env_overrides(
        {"evolution.sample_size": "200"},
        {
            "DRIFTLAB_EVOLUTION__SAMPLE_SIZE": "50",
            "DRIFTLAB_SPACE__SIZE": "64",
            "HOME": "/root",
        },
    )
    assert merged == {"evolution.sample_size": "50", "space.size": "64"}


def test_env_overrides_reach_loaded_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("space.size=40\nevolution.rounds=9\n")
    cfg = load_experiment_config(str(path), {"DRIFTLAB_EVOLUTION__ROUNDS": "3"})
    assert cfg.evolution.rounds == 3
    assert cfg.space_size == 40


def test_parse_seed_spec_forms():
    assert parse_seed_spec("4") == (0, 1, 2, 3)
    assert parse_seed_spec("3..7") == (3, 4, 5, 6, 7)
    assert parse_seed_spec("0,4,9") == (0, 4, 9)
    assert parse_seed_spec("18446744073709551615,0") == (2**64 - 1, 0)
    with pytest.raises(ConfigError):
        parse_seed_spec("7..3")
    with pytest.raises(ConfigError):
        parse_seed_spec("0")
    with pytest.raises(ConfigError):
        parse_seed_spec("many")


@pytest.mark.parametrize(
    "spec",
    [
        "18446744073709551615",  # 2**64 - 1 as a count
        "0..18446744073709551615",
        "1000001",  # one past MAX_SEED_COUNT
        "18446744073709551616,3",  # 2**64 in a list
        "-1..4",
    ],
)
def test_parse_seed_spec_rejects_out_of_bounds_before_building(spec):
    # the bound is checked before any seed tuple exists, so rejecting even
    # the 2**64 - 1 count allocates next to nothing
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError):
            parse_seed_spec(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_config_defaults_match_documented_experiment():
    cfg = config_from_mapping({})
    assert cfg.space_size == 1000
    assert cfg.reference.safe_mass == 0.95
    assert cfg.population.size == 4 and cfg.population.init == "copy"
    assert cfg.evolution == EvolutionConfig(sample_size=200, rounds=100)
    assert cfg.evolution.selection.kind == "identity" and cfg.evolution.update.kind == "mle"
    assert cfg.seeds == tuple(range(20))
    assert cfg.probes == ("kl_safety", "safe_mass", "internal_entropy", "coverage")
    assert cfg.delta == 0.02 and cfg.margin == 0.05
    assert cfg.ensemble_safe_masses == (0.95, 0.75)
    assert cfg.runs_per_ref == 200 and cfg.quantizer == 0.05
    assert cfg.coverage_tau == pytest.approx(1.0 / 2000.0)
    # a key left out keeps its field's default, also next to keys that are set
    assert cfg == ExperimentConfig()
    cfg = config_from_mapping(
        {"selection.kind": "top-mass", "selection.k": "3", "reference.epsilon": "auto"}
    )
    assert cfg.evolution.selection == SelectionRule("top-mass", k=3)
    assert cfg.reference == ReferenceSpec()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="banana, spacex.size"):
        config_from_mapping({"spacex.size": "5", "banana": "1"})


def test_config_builds_one_evolution_section_from_its_keys_and_rules():
    cfg = config_from_mapping({
        "evolution.sample_size": "30", "evolution.rounds": "6",
        "evolution.per_agent_datasets": "true", "selection.kind": "top-mass",
        "selection.k": "3", "update.kind": "smoothed-mle", "update.lam": "0.5",
    })
    assert cfg.evolution == EvolutionConfig(
        sample_size=30, rounds=6, selection=SelectionRule("top-mass", k=3),
        update=UpdateRule("smoothed-mle", lam=0.5), per_agent_datasets=True,
    )
    assert cfg.coverage_tau == pytest.approx(1.0 / 300.0)
    # the kernel's own checks run at load time, not when the sweep starts
    with pytest.raises(ConfigError, match="memory-buffer"):
        config_from_mapping({
            "evolution.per_agent_datasets": "true", "update.kind": "memory-buffer",
            "update.capacity": "10",
        })
    with pytest.raises(ConfigError, match="sample_size must be a positive integer"):
        config_from_mapping({"evolution.sample_size": "0"})


def test_reference_and_population_fields_the_kind_does_not_read_are_refused():
    with pytest.raises(ConfigError, match="generator 'two-tier' does not read exponent, weights$"):
        ReferenceSpec(exponent=2.0, weights=(1.0, 2.0))
    with pytest.raises(ConfigError, match="'dirichlet-draw' does not read safe_mass$"):
        ReferenceSpec("dirichlet-draw", safe_mass=0.5, alpha=2.0, draw_seed=3)
    with pytest.raises(ConfigError, match="'explicit' does not read safe_fraction$"):
        ReferenceSpec("explicit", safe_fraction=0.3, weights=(1.0, 2.0), safe_set="0")
    with pytest.raises(ConfigError, match="unknown reference generator 'magic'"):
        ReferenceSpec("magic")
    with pytest.raises(ConfigError, match="population init 'dirichlet' does not read sigma$"):
        PopulationSpec(init="dirichlet", sigma=0.1)
    # every generator reads safe_set and a scalar epsilon; fields at their
    # defaults are not set
    for generator in harness._GENERATORS:
        ReferenceSpec(generator, epsilon=0.01, safe_set="0,1", safe_mass=0.95)
    PopulationSpec(init="perturbed", sigma=0.3, alpha=1.0)
    PopulationSpec(init="dirichlet", alpha=3.0)


def test_config_typed_coercion_errors():
    with pytest.raises(ConfigError, match="space.size"):
        config_from_mapping({"space.size": "forty"})
    with pytest.raises(ConfigError, match="per_agent_datasets"):
        config_from_mapping({"evolution.per_agent_datasets": "maybe"})


def test_config_probe_list_parsing():
    cfg = config_from_mapping({"experiment.probes": "kl_safety, safe_mass"})
    assert cfg.probes == ("kl_safety", "safe_mass")


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(seeds=())
    with pytest.raises(ConfigError, match="repeats seed 3"):
        ExperimentConfig(seeds=(3, 3, 4))
    with pytest.raises(ConfigError, match="rounds"):
        config_from_mapping({"evolution.rounds": "0"})
    with pytest.raises(ConfigError):
        ExperimentConfig(delta=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(margin=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="margin"):
            ExperimentConfig(margin=bad)
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ConfigError, match="visibility_c"):
            ExperimentConfig(visibility_c=bad)
    with pytest.raises(ConfigError):
        ExperimentConfig(quantizer=0.9)


def test_with_seed_base_keeps_sweep_length():
    cfg = ExperimentConfig(seeds=(0, 1, 2)).with_seed_base(10)
    assert cfg.seeds == (10, 11, 12)
    assert ExperimentConfig(tau=0.1).coverage_tau == 0.1


# --- reference / population / policy builders --------------------------------------


def test_build_reference_two_tier_defaults():
    ref = build_reference(small_cfg())
    assert ref.space.size == 40
    assert ref.safe_set == tuple(range(20))
    assert ref.safe_mass == pytest.approx(0.95, abs=1e-12)


def test_build_reference_zipf():
    ref = build_reference(small_cfg(**{"reference.generator": "zipf", "space.size": "50"}))
    assert ref.safe_set == tuple(range(25))
    assert np.all(np.diff(ref.pi_star.mass) < 0.0)


def test_build_reference_dirichlet_draw_reproducible():
    cfg_a = small_cfg(**{"reference.generator": "dirichlet-draw", "reference.draw_seed": "3"})
    cfg_b = small_cfg(**{"reference.generator": "dirichlet-draw", "reference.draw_seed": "4"})
    ref_a1, ref_a2 = build_reference(cfg_a), build_reference(cfg_a)
    assert np.array_equal(ref_a1.pi_star.mass, ref_a2.pi_star.mass)
    assert not np.array_equal(ref_a1.pi_star.mass, build_reference(cfg_b).pi_star.mass)


def test_build_reference_explicit():
    cfg = small_cfg(
        **{
            "space.size": "4",
            "reference.generator": "explicit",
            "reference.weights": "5,3,1.5,0.5",
            "reference.safe_set": "0,1",
        }
    )
    ref = build_reference(cfg)
    np.testing.assert_allclose(ref.pi_star.mass, [0.5, 0.3, 0.15, 0.05], atol=1e-15)
    assert ref.safe_set == (0, 1)
    top = small_cfg(
        **{
            "space.size": "4",
            "reference.generator": "explicit",
            "reference.weights": "1,8,2,5",
            "reference.safe_set": "top-fraction:0.5",
        }
    )
    assert build_reference(top).safe_set == (1, 3)


# reference.safe_set replaces the generator's safe set for every generator
SAFE_SET_CASES = {
    "two-tier": {},
    "zipf": {},
    "dirichlet-draw": {"reference.draw_seed": "5"},
    "explicit": {"reference.weights": ",".join(str(50 - i) for i in range(50))},
}


@pytest.mark.parametrize("generator", sorted(SAFE_SET_CASES))
def test_build_reference_honours_safe_set(generator):
    extra = {"space.size": "50", "reference.generator": generator, **SAFE_SET_CASES[generator]}
    ref = build_reference(small_cfg(**extra, **{"reference.safe_set": "0,1,2"}))
    assert ref.safe_set == (0, 1, 2)
    assert ref.epsilon == pytest.approx(1.0 - ref.safe_mass, abs=2e-9)
    # a top-fraction spec is parsed against this generator's own pi_star
    top = build_reference(small_cfg(**extra, **{"reference.safe_set": "top-fraction:0.1"}))
    heaviest = np.argsort(-top.pi_star.mass, kind="stable")[:5]
    assert top.safe_set == tuple(sorted(int(i) for i in heaviest))
    if generator != "explicit":
        default = build_reference(small_cfg(**{k: v for k, v in extra.items()}))
        assert np.array_equal(ref.pi_star.mass, default.pi_star.mass)


def test_build_reference_zipf_safe_set_matches_generator():
    cfg = small_cfg(
        **{"space.size": "50", "reference.generator": "zipf", "reference.safe_set": "3,7,9"}
    )
    ref = build_reference(cfg)
    direct = zipf_reference(50, 1.1, 0.5, (3, 7, 9))
    assert ref.safe_set == direct.safe_set
    assert ref.epsilon == direct.epsilon
    assert np.array_equal(ref.pi_star.mass, direct.pi_star.mass)


def test_build_reference_checks_epsilon_against_requested_set():
    # the default set (0..24) holds 0.95 < 1 - 0.03; the requested 0..39 holds 0.98
    wide = {"space.size": "50", "reference.epsilon": "0.03"}
    ref = build_reference(
        small_cfg(**wide, **{"reference.safe_set": ",".join(str(i) for i in range(40))})
    )
    assert ref.epsilon == 0.03
    assert len(ref.safe_set) == 40
    with pytest.raises(ConfigError, match="mass on the safe set"):
        build_reference(small_cfg(**wide))
    # an epsilon the default set meets but the requested set does not
    with pytest.raises(ConfigError, match="mass on the safe set"):
        build_reference(
            small_cfg(**{"space.size": "50", "reference.epsilon": "0.1",
                         "reference.safe_set": "0,1,2"})
        )


def test_build_reference_explicit_requires_weights_and_safe_set():
    with pytest.raises(ConfigError, match="explicit reference needs"):
        build_reference(small_cfg(**{"reference.generator": "explicit"}))
    # unusable weights are a config error, not a traceback
    for weights in ("1,2,3", "1,2,-1,3", "0,0,0,0"):
        explicit = {"space.size": "4", "reference.generator": "explicit",
                    "reference.weights": weights, "reference.safe_set": "0,1"}
        with pytest.raises(ConfigError, match="reference.weights"):
            build_reference(small_cfg(**explicit))


def test_build_reference_unknown_generator():
    with pytest.raises(ConfigError, match="unknown reference generator"):
        build_reference(small_cfg(**{"reference.generator": "magic"}))


def test_build_population_copy_is_exact():
    cfg = small_cfg()
    ref = build_reference(cfg)
    pop = build_population(cfg.population, ref, seed=0)
    assert pop.size == 4
    for agent in pop.agents:
        assert np.array_equal(agent.mass, ref.pi_star.mass)


def test_build_population_perturbed_seeded():
    cfg = small_cfg(**{"population.init": "perturbed", "population.size": "3"})
    ref = build_reference(cfg)
    a = build_population(cfg.population, ref, seed=7)
    b = build_population(cfg.population, ref, seed=7)
    c = build_population(cfg.population, ref, seed=8)
    for x, y in zip(a.agents, b.agents):
        assert np.array_equal(x.mass, y.mass)
    assert not np.array_equal(a.agents[0].mass, c.agents[0].mass)
    # distinct agents within one population
    assert not np.array_equal(a.agents[0].mass, a.agents[1].mass)


def test_build_population_dirichlet_valid():
    cfg = small_cfg(**{"population.init": "dirichlet", "population.size": "2"})
    ref = build_reference(cfg)
    pop = build_population(cfg.population, ref, seed=1)
    for agent in pop.agents:
        assert agent.mass.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(agent.mass > 0.0)


def test_population_spec_validation():
    with pytest.raises(ConfigError):
        config_from_mapping({"population.size": "0"})
    with pytest.raises(ConfigError):
        config_from_mapping({"population.init": "weird"})
    with pytest.raises(ConfigError):
        config_from_mapping({"population.sigma": "-1"})
    with pytest.raises(ConfigError):
        config_from_mapping({"population.alpha": "0"})


REF_SMALL = two_tier_reference(10, safe_mass=0.9, safe_fraction=0.5)


def test_parse_schedule_forms():
    assert parse_schedule("every", REF_SMALL).k == 1
    assert parse_schedule("every:5", REF_SMALL).k == 5
    assert parse_schedule("", REF_SMALL).k == 1
    kl = parse_schedule("kl:0.5", REF_SMALL)
    assert kl.kind == "kl-trigger" and kl.threshold == 0.5 and kl.ref is REF_SMALL
    with pytest.raises(ConfigError, match="needs a threshold"):
        parse_schedule("kl", REF_SMALL)
    with pytest.raises(ConfigError, match="unknown schedule"):
        parse_schedule("banana:3", REF_SMALL)


def test_realize_policy_verifier_params():
    spec = PolicySpec(
        "v", "verifier", (("budget", "5"), ("fn_rate", "0.1"), ("fp", "0.2"))
    )
    policy = realize_policy(spec, REF_SMALL)
    assert policy.fp == 0.2 and policy.fn_rate == 0.1 and policy.budget == 5


def test_realize_policy_initial_anchor_uses_start_population():
    spec = PolicySpec("e", "entropy-release", (("anchor", "initial"), ("gamma", "0.1")))
    policy = realize_policy(spec, REF_SMALL)
    assert policy.anchor == "initial"
    assert policy.gamma == 0.1
    # "initial" resolves to the run's own start population
    pop0 = build_population(PopulationSpec(3, "perturbed", sigma=0.3), REF_SMALL, 3)
    cfg = EvolutionConfig(sample_size=20, rounds=4)
    pinned = EntropyReleasePolicy(gamma=0.1, anchor=pop0)
    a = run(pop0, cfg, intervention=policy, keep_states=True, seed=3)
    b = run(pop0, cfg, intervention=pinned, keep_states=True, seed=3)
    for sa, sb in zip(a.states, b.states):
        for aa, ab in zip(sa.agents, sb.agents):
            assert aa.mass.tobytes() == ab.mass.tobytes()


def test_realize_policy_rejects_unknowns():
    with pytest.raises(ConfigError, match="unknown intervention kind"):
        realize_policy(PolicySpec("x", "exorcism"), REF_SMALL)
    with pytest.raises(ConfigError, match="unknown parameters for cooling: frobnicate"):
        realize_policy(PolicySpec("c", "cooling", (("frobnicate", "1"),)), REF_SMALL)
    with pytest.raises(ConfigError, match="unknown anchor"):
        realize_policy(
            PolicySpec("e", "entropy-release", (("anchor", "banana"),)), REF_SMALL
        )


def test_default_policy_specs_realize():
    specs = default_policy_specs()
    assert [s.name for s in specs] == ["verifier", "cooling", "diversity", "entropy-release"]
    kinds = [realize_policy(s, REF_SMALL).kind for s in specs]
    assert kinds == ["verifier", "cooling", "diversity", "entropy-release"]


def test_parse_policies_json():
    specs = parse_policies_json(
        '[{"kind": "verifier", "params": {"fp": 0.1}, "schedule": "every:2"},'
        ' {"name": "cool", "kind": "cooling"}]'
    )
    assert specs == (
        PolicySpec("verifier", "verifier", (("fp", "0.1"),), "every:2"),
        PolicySpec("cool", "cooling", (), "every:1"),
    )
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_policies_json("nope")
    with pytest.raises(ConfigError, match="JSON list"):
        parse_policies_json('{"kind": "verifier"}')
    with pytest.raises(ConfigError, match="'kind'"):
        parse_policies_json('[{"params": {}}]')
    with pytest.raises(ConfigError, match="params must be an object"):
        parse_policies_json('[{"kind": "verifier", "params": 3}]')


# --- trend statistics and classification --------------------------------------------


def test_spearman_vs_round():
    assert spearman_vs_round([2.0, 2.0, 2.0, 2.0]) == 0.0
    assert spearman_vs_round([5.0]) == 0.0
    assert spearman_vs_round([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0)
    assert spearman_vs_round([4.0, 3.0, 2.0, 1.0]) == pytest.approx(-1.0)
    noisy = spearman_vs_round([1.0, 3.0, 2.0, 4.0, 5.0])
    assert 0.0 < noisy < 1.0
    # +inf ranks above every finite value and ties with itself: ranks
    # (1, 2, 3.5, 3.5) against (1, 2, 3, 4) correlate at 3/sqrt(10)
    assert spearman_vs_round([0.0, 1.0, math.inf, math.inf]) == pytest.approx(
        3.0 / math.sqrt(10.0)
    )
    assert spearman_vs_round([math.inf, math.inf, 1.0, 0.0]) == pytest.approx(
        -3.0 / math.sqrt(10.0)
    )


@pytest.mark.parametrize("kind", ["random", "tied", "inf"])
def test_spearman_vs_round_matches_scipy(kind):
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(11)
    for size in (2, 3, 7, 40, 101):
        for _ in range(20):
            series = rng.normal(size=size)
            if kind == "tied":
                series = np.round(series * 2.0) / 2.0
            elif kind == "inf":
                series[rng.random(size) < 0.3] = math.inf
                series[rng.random(size) < 0.1] = -math.inf
            if np.all(series == series[0]):
                continue
            expected = scipy_stats.spearmanr(np.arange(size), series)[0]
            assert spearman_vs_round(series) == pytest.approx(expected, abs=1e-12)


def test_spearman_vs_round_nan_reads_zero():
    assert spearman_vs_round([0.0, math.nan, 2.0]) == 0.0
    assert spearman_vs_round([math.inf, math.inf]) == 0.0


def test_compute_trend_uses_seed_medians():
    trend = compute_trend("demo", {0: [1.0, 2.0, 3.0], 1: [3.0, 4.0, 5.0]})
    assert trend.metric == "demo"
    assert trend.median_series == (2.0, 3.0, 4.0)
    assert trend.first_median == 2.0 and trend.last_median == 4.0
    assert trend.rank_correlation == pytest.approx(1.0)


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 20, 21])
@pytest.mark.parametrize("columns", [1, 3, 7, 12])
def test_column_median_is_np_median_bit_for_bit(rows, columns):
    rng = np.random.default_rng(rows * 100 + columns)
    specials = np.array([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 1e308])
    for _ in range(40):
        table = rng.standard_normal((rows, columns)) * 10.0 ** rng.integers(-300, 300)
        hit = rng.random(table.shape) < rng.choice([0.0, 0.2, 0.6])
        table[hit] = rng.choice(specials, size=int(hit.sum()))
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.median(table, axis=0)
            got = column_median(table)
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
        for column in table.T:
            with np.errstate(invalid="ignore", over="ignore"):
                assert float(column_median(column)).hex() == float(np.median(column)).hex()


def test_column_median_of_no_rows_reads_nan():
    assert math.isnan(float(column_median([])))
    assert np.isnan(column_median(np.empty((0, 3)))).all()


@pytest.mark.parametrize(
    "values", [[], [math.nan], [math.nan, 1.0], [2.0, math.nan, -math.inf, 1.0], [3.0, 1.0]]
)
def test_nanmedian_is_np_nanmedian(values):
    from driftlab.cli import _nanmedian

    arr = np.asarray(values, dtype=np.float64)
    want = np.nanmedian(arr) if (~np.isnan(arr)).any() else math.nan
    assert float(_nanmedian(values)).hex() == float(want).hex()


def test_paired_difference_infinity_rules():
    assert math.isnan(paired_difference(math.inf, math.inf))
    assert math.isnan(paired_difference(-math.inf, -math.inf))
    assert paired_difference(math.inf, -math.inf) == math.inf
    assert paired_difference(math.inf, 5.0) == math.inf
    assert paired_difference(5.0, math.inf) == -math.inf
    assert paired_difference(3.0, 1.0) == 2.0


def test_classify_terminal_branches():
    margin = 0.05
    leak = _endpoint_trajectory(0.9, 0.8, 0.1, 0.1)
    collapse = _endpoint_trajectory(0.9, 0.89, 0.1, 0.3)
    collapse_inf = _endpoint_trajectory(0.9, 0.9, 0.1, math.inf)
    stable = _endpoint_trajectory(0.9, 0.89, 0.1, 0.12)
    born_broken = _endpoint_trajectory(0.9, 0.9, math.inf, math.inf)
    assert classify_terminal(leak, margin) == CLASS_LEAKAGE
    assert classify_terminal(collapse, margin) == CLASS_COLLAPSE
    assert classify_terminal(collapse_inf, margin) == CLASS_COLLAPSE
    assert classify_terminal(stable, margin) == CLASS_STABLE
    # starting at +inf cannot "rise"; such a run is not a collapse
    assert classify_terminal(born_broken, margin) == CLASS_STABLE


def test_monitored_rare_set_frozen_default():
    ref = two_tier_reference(1000, safe_mass=0.95, safe_fraction=0.5)
    monitored = monitored_rare_set(ref, 0.02)
    assert monitored == tuple(range(11))
    total = float(ref.pi_star.mass[list(monitored)].sum())
    assert total == pytest.approx(0.0209, abs=1e-12)


def test_monitored_rare_set_prefers_smallest_masses():
    ref = SafetyReference(pv(0.5, 0.3, 0.15, 0.05), (0, 1, 2), 0.9)
    assert monitored_rare_set(ref, 0.1) == (2,)
    assert monitored_rare_set(ref, 0.3) == (1, 2)


# --- drift experiment ----------------------------------------------------------------


def test_drift_experiment_smoke():
    result = run_drift_experiment(small_cfg())
    cfg = result.config
    assert set(result.trajectories) == {0, 1, 2}
    assert result.failures == {}
    assert "safe_mass" in result.probes and "in_safe_term" in result.probes
    assert set(result.trends) == set(result.probes)
    assert len(result.trends["kl_safety"].median_series) == cfg.evolution.rounds + 1
    assert all(
        label in (CLASS_LEAKAGE, CLASS_COLLAPSE, CLASS_STABLE)
        for label in result.classifications.values()
    )
    assert sum(result.class_counts().values()) == 3
    assert result.monitored_set
    assert all(0 <= n <= cfg.evolution.rounds + 1 for n in result.low_visibility_rounds.values())


def test_drift_experiment_extends_probe_list():
    result = run_drift_experiment(small_cfg(**{"experiment.probes": "kl_safety"}))
    assert result.probes == ("kl_safety", "safe_mass", "in_safe_term")
    traj = result.trajectories[0]
    assert set(traj.values) == set(result.probes)


def test_drift_experiment_records_per_seed_failures():
    # a zero-mass outcome made mandatory by the selection kills round 0
    cfg = small_cfg(
        **{
            "space.size": "4",
            "reference.safe_mass": "1.0",
            "selection.kind": "indicator",
            "selection.indices": "3",
            "experiment.seeds": "2",
        }
    )
    result = run_drift_experiment(cfg)
    assert set(result.failures) == {0, 1}
    assert all("round 0" in reason for reason in result.failures.values())
    assert result.trajectories == {} and result.trends == {}


# --- intervention comparison ----------------------------------------------------------


def test_comparison_smoke():
    cfg = small_cfg(**{"experiment.seeds": "2", "evolution.rounds": "5"})
    result = run_intervention_comparison(cfg)
    assert result.baseline.name == "baseline"
    assert [a.name for a in result.arms] == [
        "verifier",
        "cooling",
        "diversity",
        "entropy-release",
    ]
    assert set(result.paired_kl_diff) == {a.name for a in result.arms}
    for diffs in result.paired_kl_diff.values():
        assert set(diffs) == {0, 1}
    # the perfect default verifier pins every sample to the safe set
    assert result.arm("verifier").median_terminal_safe_mass == 1.0
    with pytest.raises(KeyError):
        result.arm("nope")


def test_comparison_custom_single_arm():
    cfg = small_cfg(**{"experiment.seeds": "2", "evolution.rounds": "4"})
    specs = (PolicySpec("soft-verifier", "verifier", (("fn_rate", "0.2"),)),)
    result = run_intervention_comparison(cfg, specs)
    assert len(result.arms) == 1
    assert result.arms[0].name == "soft-verifier"


def test_comparison_arms_come_only_from_the_specs():
    # a config names no arm: the keys of one are unknown
    with pytest.raises(ConfigError, match="unknown config keys: intervention.kind"):
        small_cfg(**{"intervention.kind": "verifier", "intervention.params.fn_rate": "0.2"})
    cfg = small_cfg(**{"experiment.seeds": "2", "evolution.rounds": "4"})
    spec = PolicySpec("verifier", "verifier", (("fn_rate", "0.2"),))
    result = run_intervention_comparison(cfg, (spec,))
    assert [a.name for a in result.arms] == ["verifier"]
    # the arm is the spec's policy on every seed
    ref = build_reference(cfg)
    runs = run_batch(
        [build_population(cfg.population, ref, seed) for seed in cfg.seeds], cfg.evolution,
        cfg.seeds, resolve_probes(("kl_safety",)), realize_policy(spec, ref), ref=ref,
    )
    assert result.arms[0].terminal_kl == {
        seed: float(t.values["kl_safety"][-1]) for seed, t in zip(cfg.seeds, runs)
    }


def test_comparison_rejects_duplicate_arm_names():
    cfg = small_cfg(**{"experiment.seeds": "2", "evolution.rounds": "3"})
    specs = (PolicySpec("a", "verifier"), PolicySpec("a", "cooling"))
    with pytest.raises(ConfigError, match="duplicate arm names"):
        run_intervention_comparison(cfg, specs)


# --- ensemble mutual information -------------------------------------------------------


def test_ensemble_mi_smoke():
    cfg = small_cfg(
        **{
            "evolution.rounds": "4",
            "evolution.sample_size": "25",
            "ensemble.runs_per_ref": "6",
        }
    )
    result = run_ensemble_mi(cfg)
    assert result.bins == 21
    assert result.n_refs == 2 and result.runs_per_ref == 6
    assert len(result.mi_series) == 5
    # copy-init runs start at their reference exactly, so round 0 carries the
    # full bit separating the two references
    assert result.mi_series[0] == pytest.approx(math.log(2.0), abs=1e-9)
    assert all(-1e-12 <= v <= math.log(2.0) + 1e-9 for v in result.mi_series)


def test_ensemble_mi_validation():
    cfg = small_cfg(**{"ensemble.safe_masses": "0.9"})
    with pytest.raises(ConfigError, match="degenerate ensemble"):
        run_ensemble_mi(cfg)
    with pytest.raises(ConfigError, match="runs_per_ref"):
        run_ensemble_mi(small_cfg(**{"ensemble.runs_per_ref": "0"}))


class _Ran(Exception):
    pass


def _no_run(*args, **kwargs):
    raise _Ran


def test_ensemble_mi_table_past_the_cell_limit_is_refused_before_any_run(monkeypatch):
    monkeypatch.setattr(harness, "run_batch", _no_run)
    # 2 rounds of records x 2 references x bins cells, bins = round(1 / q) + 1
    bins = MAX_MI_CELLS // 4
    at_limit = {"evolution.rounds": "1", "ensemble.quantizer": repr(1.0 / (bins - 1))}
    with pytest.raises(_Ran):
        run_ensemble_mi(small_cfg(**at_limit))
    past = {"evolution.rounds": "1", "ensemble.quantizer": repr(1.0 / bins)}
    with pytest.raises(ConfigError, match="MI table cells"):
        run_ensemble_mi(small_cfg(**past))
    with pytest.raises(ConfigError, match="MI table cells"):
        run_ensemble_mi(small_cfg(**{"ensemble.quantizer": "1e-300"}))


def test_ensemble_mi_run_count_past_the_seed_limit_is_refused_before_any_run(monkeypatch):
    monkeypatch.setattr(harness, "run_batch", _no_run)
    # 2 references x runs_per_ref runs, each on a seed of its own
    runs = MAX_SEED_COUNT // 2
    with pytest.raises(_Ran):
        run_ensemble_mi(small_cfg(**{"ensemble.runs_per_ref": str(runs)}))
    for past in (runs + 1, 10**12):
        with pytest.raises(ConfigError, match=f"at most {MAX_SEED_COUNT} runs"):
            run_ensemble_mi(small_cfg(**{"ensemble.runs_per_ref": str(past)}))


def test_ensemble_mi_builds_its_references_from_the_reference_section(monkeypatch):
    seen = {}

    def capture(pops, cfg, seeds, *args, monitors, **kwargs):
        seen.update(monitors=monitors, pops=list(pops))
        raise _Ran

    monkeypatch.setattr(harness, "run_batch", capture)
    cfg = small_cfg(**{"reference.safe_set": "0,1,2", "ensemble.runs_per_ref": "2"})
    with pytest.raises(_Ran):
        run_ensemble_mi(cfg)
    # reference.safe_set is the statistic set, and each reference's safe
    # mass is its entry of ensemble.safe_masses
    assert seen["monitors"]["ens"].tolist() == [0, 1, 2]
    for pop, mass in zip(seen["pops"][::2], (0.95, 0.75)):
        pi_star = two_tier_reference(40, mass, 0.5).pi_star
        assert all(np.array_equal(agent.mass, pi_star.mass) for agent in pop.agents)


# --- serialization ----------------------------------------------------------------------


def test_format_value_fixed_format():
    assert format_value(0.5) == "0.5"
    assert format_value(2.0) == "2"
    assert format_value(1.0 / 3.0) == "0.33333333333333331"
    assert format_value(math.inf) == "inf"
    assert format_value(-math.inf) == "-inf"
    assert format_value(math.nan) == "nan"


def test_format_value_round_trips_doubles():
    for x in (1.0 / 3.0, 0.1, 1e-300, 123456.789, 0.95, 2.0**-52):
        assert float(format_value(x)) == x


def _csv_text(trajectories):
    out = io.StringIO()
    save_trajectories_csv(trajectories, out)
    return out.getvalue()


def test_trajectory_to_dict_encodes_nonfinite():
    traj = _toy_trajectory(3, [(0.5, math.inf)], ("a", "b"))
    td = trajectory_to_dict(traj)
    assert td["seed"] == 3 and td["rounds"] == 0
    assert td["values"] == {"a": [0.5], "b": ["inf"]}
    json.dumps(td, allow_nan=False)  # must already be JSON-safe


def test_csv_lines_frozen_example():
    t_one = _toy_trajectory(1, [(0.5, 1.0), (0.25, math.inf)], ("a", "b"))
    t_zero = _toy_trajectory(0, [(1.0 / 3.0, 2.0), (0.125, 0.0)], ("a", "b"))
    assert _csv_text([t_one, t_zero]).splitlines() == [
        "round,seed,a,b",
        "0,0,0.33333333333333331,2",
        "1,0,0.125,0",
        "0,1,0.5,1",
        "1,1,0.25,inf",
    ]


def test_csv_cells_of_edge_floats(tmp_path):
    # each row is one "%.17g" format, which writes format_value's text
    edges = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308)
    texts = ("inf", "-inf", "nan", "-0", "4.9406564584124654e-324", "1e+308")
    assert [format_value(v) for v in edges] == list(texts)
    traj = _toy_trajectory(7, [(v,) for v in edges], ("a",))
    expected = ["round,seed,a"] + [f"{r},7,{text}" for r, text in enumerate(texts)]
    path = tmp_path / "edges.csv"
    save_trajectories_csv([traj], str(path))
    assert path.read_text().splitlines() == expected
    stored = tmp_path / "edges.json"
    save_trajectories_json([traj], str(stored))
    assert _csv_text(load_trajectories(str(stored))).splitlines() == expected


def test_csv_cells_keep_equal_floats_that_print_apart():
    # the export formats each distinct value of a column once: 0.0 and -0.0
    # compare equal but print 0 and -0, and nan is unequal to itself
    t_zero = _toy_trajectory(0, [(0.0, 1.0), (-0.0, 1.0), (math.inf, 1.0), (math.nan, 1.0)], "ab")
    t_one = _toy_trajectory(
        1, [(-0.0, 0.0), (0.0, -0.0), (math.nan, math.nan), (math.inf, -math.inf)], "ab"
    )
    assert _csv_text([t_one, t_zero]).splitlines() == [
        "round,seed,a,b",
        "0,0,0,1",
        "1,0,-0,1",
        "2,0,inf,1",
        "3,0,nan,1",
        "0,1,-0,0",
        "1,1,0,-0",
        "2,1,nan,nan",
        "3,1,inf,-inf",
    ]


def test_csv_lines_reject_mismatched_probes():
    t_a = _toy_trajectory(0, [(0.5,)], ("a",))
    t_b = _toy_trajectory(1, [(0.5,)], ("b",))
    with pytest.raises(ValueError, match="disagree on probe columns"):
        _csv_text([t_a, t_b])
    with pytest.raises(ValueError, match="no trajectories"):
        _csv_text([])
    # the columns are written seed after seed: a column one round too long
    # would shift every later seed's rows
    t_long = _toy_trajectory(2, [(0.5,), (0.25,)], ("a",))
    t_long = replace(t_long, values={"a": np.array([0.5, 0.25, 0.125])})
    with pytest.raises(ValueError, match="one value per round"):
        _csv_text([t_a, t_long])


def test_json_round_trip_and_csv_stability(tmp_path):
    result = run_drift_experiment(small_cfg(**{"experiment.seeds": "2"}))
    trajs = [result.trajectories[s] for s in sorted(result.trajectories)]
    json_path = tmp_path / "t.json"
    save_trajectories_json(trajs, str(json_path))
    loaded = load_trajectories(str(json_path))
    assert [trajectory_to_dict(t) for t in loaded] == [trajectory_to_dict(t) for t in trajs]
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_trajectories_csv(trajs, str(csv_a))
    save_trajectories_csv(loaded, str(csv_b))
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_a_write_that_stops_leaves_the_old_file(tmp_path):
    def stopping():
        yield "round,seed\n"
        raise ValueError("stopped mid-stream")

    kept, missing = tmp_path / "kept.csv", tmp_path / "missing.csv"
    kept.write_text("old bytes\n")
    kept.chmod(0o640)
    for path in (kept, missing):
        with pytest.raises(ValueError, match="mid-stream"):
            harness._write_text(str(path), stopping())
    assert kept.read_text() == "old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]
    harness._write_text(kept, ["new ", "bytes\n"])
    assert kept.read_text() == "new bytes\n"
    assert kept.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]


def test_a_write_refuses_and_keeps_links_as_writing_in_place_does(tmp_path):
    # a read-only file refuses as open(path, "w") does, unless this process
    # may write any file (root); a file with a second name is written in
    # place, so both names read the new bytes
    locked = tmp_path / "locked.csv"
    locked.write_text("old bytes\n")
    locked.chmod(0o444)
    if os.access(locked, os.W_OK):
        harness._write_text(locked, ["new bytes\n"])
        assert locked.read_text() == "new bytes\n"
        assert locked.stat().st_mode & 0o777 == 0o444
    else:
        with pytest.raises(PermissionError):
            harness._write_text(locked, ["new bytes\n"])
        assert locked.read_text() == "old bytes\n"
    linked, other = tmp_path / "linked.csv", tmp_path / "other.csv"
    linked.write_text("old bytes\n")
    os.link(linked, other)
    harness._write_text(linked, ["new bytes\n"])
    assert other.read_text() == "new bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["linked.csv", "locked.csv", "other.csv"]


def test_load_trajectories_reads_the_columns_back(tmp_path):
    traj = replace(
        _toy_trajectory(4, [(0.5, -math.inf), (math.nan, 0.25)], ("a", "b")),
        monitors={"tail": (0, 1)},
        monitor_mass={"tail": np.array([1.0, 0.5])},
        monitor_absent={"tail": np.array([False, True])},
        fired=((1, "verifier"), (1, "cooling")),
        notes=((0, "start"),),
    )
    path = tmp_path / "t.json"
    save_trajectories_json([traj], str(path))
    (back,) = load_trajectories(str(path))
    assert (back.seed, back.probe_names, back.rounds) == (4, ("a", "b"), 1)
    assert [float(v).hex() for v in back.values["b"]] == ["-inf", "0x1.0000000000000p-2"]
    assert math.isnan(back.values["a"][1])
    assert back.monitors == {"tail": (0, 1)}
    assert back.monitor_mass["tail"].tolist() == [1.0, 0.5]
    assert back.monitor_absent["tail"].dtype == bool
    assert back.monitor_absent["tail"].tolist() == [False, True]
    assert back.fired == ((1, "verifier"), (1, "cooling")) and back.notes == ((0, "start"),)
    assert back.final_population is None and back.states is None
    columns = [*back.values.values(), *back.monitor_mass.values(), *back.monitor_absent.values()]
    assert not any(column.flags.writeable for column in columns)


def test_load_trajectories_layouts(tmp_path):
    td = trajectory_to_dict(_toy_trajectory(0, [(0.5,)], ("a",)))
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"trajectories": [td]}))
    assert [trajectory_to_dict(t) for t in load_trajectories(str(path))] == [td]
    # one layout: a bare list, a single object or an empty bundle is refused
    for payload in ([td], td, {"trajectories": []}, [1, 2]):
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match='"trajectories" is a non-empty list'):
            load_trajectories(str(path))
    path.write_text(json.dumps({"trajectories": [{"seed": 0}]}))
    with pytest.raises(ConfigError, match="trajectory 0 must be an object with keys seed,"):
        load_trajectories(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        load_trajectories(str(tmp_path / "absent.json"))
    for text in ("{", '{"trajectories": [' + "9" * 5000 + "]}"):
        path.write_text(text)
        with pytest.raises(ConfigError, match="is not valid JSON"):
            load_trajectories(str(path))
