"""Inputs are validated once, at the API boundary.

The round trusts the distributions it derives from validated ones, so these
tests pin down both halves: the parser and the constructors reject every
non-finite number, and whatever they accept either runs to a clean
trajectory or fails with ConfigError/SimulationError.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from driftlab import (
    ConfigError,
    CoolingPolicy,
    DiversityPolicy,
    EvolutionConfig,
    MetricProbe,
    OutcomeSpace,
    PolicySpec,
    PopulationSpec,
    Population,
    ProbVector,
    Schedule,
    SelectionRule,
    SimulationError,
    UpdateRule,
    apply_selection,
    build_population,
    build_reference,
    config_from_mapping,
    default_policy_specs,
    parse_schedule,
    probe_names,
    realize_policy,
    resolve_probe,
    resolve_probes,
    run,
    two_tier_reference,
    update_agents,
)
from driftlab.harness import _KNOWN_KEYS

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
    pop = Population.equal_weights([ProbVector(OutcomeSpace(10), [0.1] * 10)])
    cfg = EvolutionConfig(sample_size=20, rounds=3, seed=0, **rules)
    with np.errstate(over="raise"):
        accepted = apply_selection(pop.agents[0], rules["selection"]).mass > 0
        out = update_agents(pop, np.array([0, 1, 7, 7], dtype=np.int64), rules["update"])
        traj = run(pop, cfg, keep_states=True)
    assert accepted.tolist() == [False] * 5 + [True] * 5
    assert out.agents[0].mass.tolist() == [0.0] * 7 + [1.0, 0.0, 0.0]
    for state in traj.states[1:]:
        assert state.agents[0].mass[:5].sum() == 0.0


def test_smoothing_overflow_is_caught_per_call():
    pop = Population.equal_weights([ProbVector(OutcomeSpace(4), [0.25] * 4)])
    samples = np.array([0, 1], dtype=np.int64)
    with pytest.raises(ValueError, match="overflows"):
        update_agents(pop, samples, UpdateRule("smoothed-mle", lam=1e308))


# --- what the boundary accepts runs cleanly ------------------------------------------

_SELECTION_KINDS = ("identity", "indicator", "top-mass", "reward-reweight")
_UPDATE_KINDS = ("mle", "smoothed-mle", "memory-buffer", "reward-reweighted-mle")
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
        _check_distribution(pt.mass)
        assert agents.shape == (case["agents"], case["k"]) and not agents.flags.writeable
        for row in agents:
            _check_distribution(row)
        seen.append(t)
        return 0.0

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
            seed=case["seed"],
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
        )
    except (ConfigError, SimulationError) as exc:
        event(type(exc).__name__)
        return
    event("ran")
    assert seen == list(range(case["rounds"] + 1))
    for pop in traj.states:
        for agent in pop.agents:
            _check_distribution(agent.mass)
    for record in traj.records:
        assert not any(math.isnan(v) for v in record.values.values())
