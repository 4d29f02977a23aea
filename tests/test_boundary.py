"""Inputs are validated once, at the API boundary.

The round trusts the distributions it derives from validated ones, so these
tests pin down both halves: the parser and the constructors reject every
non-finite number, and whatever they accept either runs to a clean
trajectory or fails with ConfigError/SimulationError.
"""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from driftlab.cli import main as cli_main
from driftlab.core import OutcomeSpace, ProbVector, two_tier_reference
from driftlab.errors import ConfigError, SimulationError
from driftlab.evolution import (
    EvolutionConfig,
    Population,
    SelectionRule,
    UpdateRule,
    _counts,
    apply_selection,
    run,
    run_batch,
    update_agents,
)
from driftlab.evolution import _SELECTION_KINDS as _SELECTION_READS
from driftlab.evolution import _UPDATE_KINDS as _UPDATE_READS
from driftlab.harness import (
    _CONFIG_KEYS,
    _KNOWN_KEYS,
    _POLICY_KINDS,
    PolicySpec,
    PopulationSpec,
    build_population,
    build_reference,
    config_from_mapping,
    default_policy_specs,
    parse_schedule,
    realize_policy,
)
from driftlab.interventions import (
    CoolingPolicy,
    DiversityPolicy,
    EntropyReleasePolicy,
    Schedule,
    VerifierPolicy,
)
from driftlab.metrics import MetricProbe, probe_names, resolve_probe, resolve_probes

NON_FINITE = ("nan", "inf", "-inf")

NUMERIC_KEYS = (
    "space.size",
    "reference.safe_mass", "reference.safe_fraction", "reference.epsilon",
    "reference.exponent", "reference.alpha", "reference.draw_seed", "reference.weights",
    "population.size", "population.sigma", "population.alpha",
    "evolution.sample_size", "evolution.rounds",
    "experiment.seeds", "experiment.delta", "experiment.visibility_c",
    "experiment.margin", "experiment.tau",
    "ensemble.safe_masses", "ensemble.runs_per_ref", "ensemble.quantizer",
    "selection.indices", "selection.k", "selection.beta", "selection.reward",
    "update.lam", "update.capacity", "update.alpha_mem", "update.beta",
    "update.reward", "update.neighborhood_radius",
)
# keys whose values are names, flags, paths, or specs parsed after loading
OTHER_KEYS = (
    "reference.generator", "reference.safe_set", "population.init",
    "evolution.per_agent_datasets", "experiment.probes",
    "intervention.kind", "intervention.schedule",
    "output.csv", "output.json",
    "selection.kind", "update.kind", "update.reward_source",
)

POLICY_PARAMS = (
    ("verifier", "fp"), ("verifier", "fn_rate"), ("verifier", "budget"),
    ("cooling", "kl_threshold"), ("cooling", "blend"),
    ("diversity", "temperature"), ("diversity", "rho"),
    ("entropy-release", "gamma"), ("entropy-release", "prune_floor"),
)

REF = two_tier_reference(12, 0.9, 0.5)


def test_numeric_key_list_covers_the_parser():
    assert set(NUMERIC_KEYS) | set(OTHER_KEYS) == _KNOWN_KEYS
    assert not set(NUMERIC_KEYS) & set(OTHER_KEYS)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_non_finite_config_number_is_a_config_error(key, value):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        config_from_mapping({key: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("kind,param", POLICY_PARAMS)
def test_non_finite_policy_parameter_is_a_config_error(kind, param, value):
    cfg = config_from_mapping(
        {"intervention.kind": kind, f"intervention.params.{param}": value}
    )
    with pytest.raises(ConfigError):
        realize_policy(cfg.intervention[0], REF)


@pytest.mark.parametrize("value", NON_FINITE)
def test_non_finite_late_parsed_specs_are_config_errors(value):
    with pytest.raises(ConfigError):
        parse_schedule(f"kl:{value}", REF)
    with pytest.raises(ConfigError):
        parse_schedule(f"every:{value}", REF)
    with pytest.raises(ConfigError):
        resolve_probe(f"coverage@{value}")
    with pytest.raises(ConfigError):
        build_reference(config_from_mapping({"reference.safe_set": f"top-fraction:{value}"}))


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_constructors_reject_non_finite_numbers(bad):
    with pytest.raises(ConfigError):
        UpdateRule("smoothed-mle", lam=bad)
    with pytest.raises(ConfigError):
        SelectionRule("reward-reweight", reward=(0.0, 1.0), beta=bad)
    with pytest.raises(ConfigError):
        SelectionRule("reward-reweight", reward=(0.0, bad))
    with pytest.raises(ConfigError):
        UpdateRule("reward-reweighted-mle", reward=(0.0, 1.0), beta=bad)
    with pytest.raises(ConfigError):
        UpdateRule("reward-reweighted-mle", reward=(bad, 1.0))
    with pytest.raises(ConfigError):
        DiversityPolicy(REF, temperature=bad)
    with pytest.raises(ConfigError):
        CoolingPolicy(REF, kl_threshold=bad)
    with pytest.raises(ConfigError):
        Schedule("kl-trigger", threshold=bad, ref=REF)


def test_reward_spread_must_be_finite():
    # r - max(r) would overflow to -inf, and 0 * -inf is nan
    with pytest.raises(ConfigError, match="spread"):
        SelectionRule("reward-reweight", reward=(-1e308, 1e308), beta=0.0)
    with pytest.raises(ConfigError, match="spread"):
        UpdateRule("reward-reweighted-mle", reward=(-1e308, 1e308))


def test_reward_tilt_past_the_float_range_runs_without_overflow():
    # beta times the reward spread passes 1e308: the weight of every
    # outcome below the top one is exactly 0, and no multiply overflows
    spread = (0.0,) * 5 + (1e300,) * 5
    rules = dict(
        selection=SelectionRule("reward-reweight", reward=spread, beta=1e10),
        update=UpdateRule("reward-reweighted-mle", reward=spread, beta=1e10),
    )
    space = OutcomeSpace(10)
    pop = Population.equal_weights([ProbVector(space, [0.1] * 10)])
    cfg = EvolutionConfig(sample_size=20, rounds=3, **rules)
    counts = _counts(np.array([0, 1, 7, 7], dtype=np.int64), np.array([4]), 10)
    with np.errstate(over="raise"):
        pt, _ = apply_selection(rules["selection"], space, np.full((1, 10), 0.1))
        mass, _ = update_agents(rules["update"], *counts)
        traj = run(pop, cfg, keep_states=True, seed=0)
    assert (pt[0] > 0).tolist() == [False] * 5 + [True] * 5
    assert mass[0].tolist() == [0.0] * 7 + [1.0, 0.0, 0.0]
    for state in traj.states[1:]:
        assert state.agents[0].mass[:5].sum() == 0.0


def test_smoothing_overflow_is_caught_per_call():
    counts = _counts(np.array([0, 1], dtype=np.int64), np.array([2]), 4)
    with pytest.raises(ValueError, match="overflows"):
        update_agents(UpdateRule("smoothed-mle", lam=1e308), *counts)


# --- what the boundary accepts runs cleanly ------------------------------------------

# kind -> the rule fields it reads; a rule refuses the others
_SELECTION_KINDS = tuple(_SELECTION_READS)
_UPDATE_KINDS = tuple(_UPDATE_READS)
_POLICIES = (None,) + default_policy_specs()
_PROBES = resolve_probes(probe_names(), default_tau=0.01)

# parameters from tiny to huge, plus non-finite ones the constructors must
# turn away
_non_negative = st.one_of(
    *[st.floats(min_value=0.0, max_value=5.0)] * 3,
    *[st.floats(min_value=0.0, max_value=1e308)] * 2,
    st.sampled_from((math.nan, math.inf)),
)


def _rewards(k):
    def vectors(values):
        return st.lists(values, min_size=k, max_size=k)

    return st.one_of(
        *[vectors(st.floats(min_value=-3.0, max_value=3.0))] * 3,
        *[vectors(st.floats(min_value=-1e307, max_value=1e307))] * 2,
        vectors(st.floats()),  # spreads past 1e308, nan, +-inf
    )


def _check_distribution(mass: np.ndarray) -> None:
    assert np.all(np.isfinite(mass))
    assert np.all(mass >= 0.0)
    assert abs(float(mass.sum()) - 1.0) <= 1e-12


@st.composite
def _runs(draw):
    k = draw(st.integers(2, 30))
    selection_kind = draw(st.sampled_from(_SELECTION_KINDS))
    update_kind = draw(st.sampled_from(_UPDATE_KINDS))
    reward = _rewards(k)
    selection = dict(
        indices=tuple(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k))),
        k=draw(st.integers(1, k)),
        reward=tuple(draw(reward)),
        beta=draw(_non_negative),
    )
    update = dict(
        lam=draw(_non_negative),
        capacity=draw(st.integers(1, 120)),
        alpha_mem=draw(st.floats(0.0, 1.0)),
        beta=draw(_non_negative),
        reward=tuple(draw(reward)),
        reward_source=draw(st.sampled_from(("fixed", "mixture-loglik"))),
    )
    selection = {n: v for n, v in selection.items() if n in _SELECTION_READS[selection_kind]}
    update = {n: v for n, v in update.items() if n in _UPDATE_READS[update_kind]}
    if update.get("reward_source") == "mixture-loglik":
        del update["reward"]
    return dict(
        k=k,
        safe_mass=draw(st.floats(0.6, 1.0)),
        init=draw(st.sampled_from(("copy", "perturbed", "dirichlet"))),
        agents=draw(st.integers(1, 4)),
        sample_size=draw(st.integers(1, 40)),
        rounds=draw(st.integers(1, 6)),
        # per-agent datasets do not combine with the memory-buffer rule
        per_agent=update_kind != "memory-buffer" and draw(st.booleans()),
        seed=draw(st.integers(0, 2**32)),
        selection=(selection_kind, selection),
        update=(update_kind, update),
        policy=draw(st.sampled_from(_POLICIES)),
    )


@given(_runs())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_accepted_runs_stay_on_the_simplex(case):
    seen = []

    def check(t, pt, agents, ref):
        assert pt.shape == (1, case["k"]) and not pt.flags.writeable
        _check_distribution(pt[0])
        assert agents.shape == (1, case["agents"], case["k"]) and not agents.flags.writeable
        for row in agents[0]:
            _check_distribution(row)
        seen.append(t)
        return np.zeros(1)

    try:
        ref = two_tier_reference(case["k"], case["safe_mass"], 0.5)
        pop0 = build_population(
            PopulationSpec(size=case["agents"], init=case["init"]), ref, case["seed"]
        )
        selection_kind, selection = case["selection"]
        update_kind, update = case["update"]
        cfg = EvolutionConfig(
            sample_size=case["sample_size"],
            rounds=case["rounds"],
            selection=SelectionRule(selection_kind, **selection),
            update=UpdateRule(update_kind, **update),
            per_agent_datasets=case["per_agent"],
        )
        spec: PolicySpec | None = case["policy"]
        policy = None if spec is None else realize_policy(spec, ref)
        traj = run(
            pop0,
            cfg,
            _PROBES + (MetricProbe("check", check),),
            policy,
            ref=ref,
            keep_states=True,
            seed=case["seed"],
        )
    except (ConfigError, SimulationError) as exc:
        event(type(exc).__name__)
        return
    event("ran")
    assert seen == list(range(case["rounds"] + 1))
    for pop in traj.states:
        for agent in pop.agents:
            _check_distribution(agent.mass)
    assert not any(np.isnan(column).any() for column in traj.values.values())


def _verifier(fp, fn_rate, budget, schedule):
    return lambda ref: VerifierPolicy(ref, fp, fn_rate, budget, schedule)


def _release(gamma, prune_floor, anchor, schedule):
    return lambda ref: EntropyReleasePolicy(gamma, prune_floor, anchor, schedule=schedule)


_every = st.integers(1, 3).map(lambda k: Schedule("every", k=k))
# policies, each built from a run's reference, that read no pi_star: the
# verifier reads only the safe set, which both references below share, and
# entropy release without prune_memory and with an every:k schedule reads no
# reference at all
_isolated_policies = st.lists(
    st.one_of(
        st.builds(
            _verifier,
            st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.none() | st.integers(1, 20), _every,
        ),
        st.builds(
            _release,
            st.floats(0.01, 1.0), st.floats(0.0, 0.1), st.sampled_from(("uniform", "initial")),
            _every,
        ),
    ),
    max_size=2,
)


@given(_runs(), st.floats(0.6, 0.99), _isolated_policies)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_the_reference_given_to_run_batch_reaches_only_the_probes(case, other_mass, policies):
    """Two references that share a safe set: everything but the probe values
    is bit-identical, failures included."""
    try:
        ref_a = two_tier_reference(case["k"], case["safe_mass"], 0.5)
        ref_b = two_tier_reference(case["k"], other_mass, 0.5)
        seeds = [case["seed"] + i for i in range(3)]
        pops = [
            build_population(PopulationSpec(size=case["agents"], init=case["init"]), ref_a, seed)
            for seed in seeds
        ]
        selection_kind, selection = case["selection"]
        update_kind, update = case["update"]
        cfg = EvolutionConfig(
            sample_size=case["sample_size"],
            rounds=case["rounds"],
            selection=SelectionRule(selection_kind, **selection),
            update=UpdateRule(update_kind, **update),
            per_agent_datasets=case["per_agent"],
        )
        monitors = {"safe": ref_a.safe_indices, "first": (0,)}
        runs = [
            list(run_batch(pops, cfg, seeds, _PROBES, [p(ref) for p in policies],
                           ref=ref, monitors=monitors))
            for ref in (ref_a, ref_b)
        ]
    except ConfigError as exc:
        event(type(exc).__name__)
        return
    assert ref_a.safe_indices.tolist() == ref_b.safe_indices.tolist()
    for a, b in zip(*runs):
        if isinstance(a, SimulationError) or isinstance(b, SimulationError):
            event("failed")
            assert str(a) == str(b) and a.round_index == b.round_index
            continue
        event("ran" if all(v.tobytes() == b.values[n].tobytes() for n, v in a.values.items())
              else "ran, values differ")
        assert (a.seed, a.fired, a.notes) == (b.seed, b.fired, b.notes)
        for name in monitors:
            assert a.monitor_mass[name].tobytes() == b.monitor_mass[name].tobytes()
            assert a.monitor_absent[name].tobytes() == b.monitor_absent[name].tobytes()
        agents = zip(a.final_population.agents, b.final_population.agents)
        assert all(x.mass.tobytes() == y.mass.tobytes() for x, y in agents)


# --- the config grammar, fuzzed through the command line ------------------------------

# every drawn config starts from these, so what it leaves out stays small
_FUZZ_BASE = {
    "space.size": "12",
    "evolution.sample_size": "10",
    "evolution.rounds": "3",
    "experiment.seeds": "2",
    "ensemble.runs_per_ref": "3",
}
# values any parser may meet
_EDGES = ("-1", "0", "1e-300", "1e300", "", "junk", "no/such/dir/out")
# valid values, by the key's parser, or by the key itself for names
_VALID = {
    "_as_int": ("1", "2", "3"),
    "_as_float": ("0.05", "0.5", "1", "2"),
    "_as_optional_float": ("auto", "0.01", "0.5"),
    "_as_floats": ("0.9,0.6", "1,2,3"),
    "_as_ints": ("0,1", "3", "11,0,5"),
    "_as_bool": ("true", "false"),
    "experiment.seeds": ("2", "0..2", "1,5"),
    "_as_probes": ("kl_safety,safe_mass", "mass_term,coverage@0.01", "bogus"),
    "reference.generator": ("two-tier", "zipf", "dirichlet-draw", "explicit"),
    "reference.safe_set": ("0,1,2", "top-fraction:0.3", "top-fraction:2"),
    "population.init": ("copy", "perturbed", "dirichlet"),
    "intervention.kind": ("none", *_POLICY_KINDS),
    "intervention.schedule": ("every", "every:2", "kl:0.5", "kl:", "every:0"),
    "selection.kind": _SELECTION_KINDS,
    "update.kind": _UPDATE_KINDS,
    "update.reward_source": ("fixed", "mixture-loglik"),
}
_PARAMS = sorted({name for _, parsers in _POLICY_KINDS.values() for name in parsers} | {"bogus"})
_PARAM_VALUES = _EDGES + ("0.1", "0.5", "1", "2", "uniform", "initial", "true")


def _key_values(key):
    parser = _CONFIG_KEYS[key][2].__name__
    return st.sampled_from(_EDGES + _VALID.get(key, _VALID.get(parser, ())))


@st.composite
def _grammar_configs(draw):
    flat = dict(_FUZZ_BASE)
    for key in draw(st.lists(st.sampled_from(sorted(_KNOWN_KEYS)), max_size=6, unique=True)):
        flat[key] = draw(_key_values(key))
    for name in draw(st.lists(st.sampled_from(_PARAMS), max_size=2, unique=True)):
        flat[f"intervention.params.{name}"] = draw(st.sampled_from(_PARAM_VALUES))
    return flat


@given(_grammar_configs())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_config_runs_or_exits_with_a_known_status(flat):
    """Whatever the grammar admits runs (0), fails a seed (1) or is a config
    error (2) under each experiment command; nothing else escapes cli.main."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # output keys may name relative files
        try:
            with open("fuzz.cfg", "w", encoding="utf-8") as fh:
                fh.writelines(f"{key}={value}\n" for key, value in flat.items())
            for command in ("simulate", "compare", "ensemble-mi"):
                status = cli_main([command, "fuzz.cfg", "--quiet"])
                event(f"{command} exit {status}")
                assert status in (0, 1, 2)
        finally:
            os.chdir(cwd)
