import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import (
    ConfigError,
    DegenerateSelectionError,
    EvolutionConfig,
    OutcomeSpace,
    Population,
    ProbVector,
    SelectionRule,
    SimulationError,
    UpdateRule,
    apply_selection,
    make_rng,
    memory_preset,
    mixture,
    neighborhood,
    resolve_probes,
    rl_preset,
    roll_memory,
    run,
    sample_dataset,
    two_tier_reference,
    update_agents,
)
from driftlab import evolution


def pv(*mass):
    return ProbVector(OutcomeSpace(len(mass)), list(mass))


# --- population / mixture ----------------------------------------------------


def test_mixture_frozen_value():
    pop = Population.equal_weights([pv(0.5, 0.5), pv(0.1, 0.9)])
    assert mixture(pop).mass.tolist() == [0.3, 0.7]


def test_population_weight_validation():
    agents = [pv(0.5, 0.5), pv(0.1, 0.9)]
    with pytest.raises(ConfigError):
        Population(tuple(agents), np.array([0.5, 0.6]))
    with pytest.raises(ConfigError):
        Population(tuple(agents), np.array([1.0, -0.0001]))
    with pytest.raises(ConfigError):
        Population(tuple(agents), np.array([1.0]))
    with pytest.raises(ConfigError):
        Population.equal_weights([])


def test_population_requires_shared_space():
    from driftlab import SpaceMismatchError

    with pytest.raises(SpaceMismatchError):
        Population.equal_weights([pv(0.5, 0.5), pv(0.2, 0.3, 0.5)])


def test_unequal_weights_respected():
    pop = Population(
        (pv(1.0, 0.0), pv(0.0, 1.0)), np.array([0.25, 0.75])
    )
    assert mixture(pop).mass.tolist() == [0.25, 0.75]


def _mix_layouts(rng, s, m, k):
    """Agents (S, M, K) in every layout the kernel mixes: the C-contiguous
    array, a Fortran-ordered one, the one-row stride-0 view, and the writable
    strided rows that dropping a row of that view leaves."""
    agents = rng.dirichlet(np.ones(k), size=(s, m))
    row = rng.dirichlet(np.ones(k), size=s + 1)
    view = np.broadcast_to(row[:, None, :], (s + 1, m, k))
    kept = view[np.arange(s + 1) != 1]
    assert kept.flags.writeable and (m == 1 or not kept.flags.c_contiguous)
    return {
        "contiguous": agents,
        "fortran": np.asfortranarray(agents),
        "stride-0": view[:s],
        "kept-rows": kept,
    }


@pytest.mark.parametrize("k", [7, 30, 1000, 100_000])
def test_accumulating_mix_matches_the_broadcast_sum(k):
    # _mix adds agent m = 0..M-1 in turn; the reference is the broadcast-and-sum
    # over a C-contiguous copy of the same agents. Shapes past 2**22 elements are
    # left out: no chunk holds one, as chunk_size runs M * K >= 2**17 one seed at a time
    rng = np.random.default_rng(k)
    for s in (1, 3, 32):
        for m in (1, 2, 3, 4, 6, 7, 13):
            if s * m * k > 2**22:
                continue
            for weights in (np.full((s, m), 1.0 / m), rng.dirichlet(np.ones(m), size=s)):
                for layout, agents in _mix_layouts(rng, s, m, k).items():
                    want = (weights[:, :, None] * np.ascontiguousarray(agents)).sum(axis=1)
                    want /= want.sum(axis=1, keepdims=True)
                    got = evolution._mix(weights, agents)
                    assert got.flags.c_contiguous
                    assert got.tobytes() == want.tobytes(), (s, m, k, layout)


# --- selection ----------------------------------------------------------------


def test_identity_selection_is_noop():
    p = pv(0.3, 0.7)
    assert apply_selection(p, SelectionRule("identity")).mass.tolist() == [0.3, 0.7]


def test_indicator_selection_renormalizes():
    p = pv(0.2, 0.3, 0.5)
    out = apply_selection(p, SelectionRule("indicator", indices=(0, 2)))
    np.testing.assert_allclose(out.mass, [2.0 / 7.0, 0.0, 5.0 / 7.0], atol=1e-15)


def test_degenerate_selection_is_hard_error():
    p = pv(0.5, 0.5, 0.0)
    with pytest.raises(DegenerateSelectionError):
        apply_selection(p, SelectionRule("indicator", indices=(2,)))


def test_top_mass_selection_tie_break_low_index():
    p = pv(0.25, 0.25, 0.5)
    out = apply_selection(p, SelectionRule("top-mass", k=2))
    # 0.5 first, then the tie at 0.25 resolves to index 0
    np.testing.assert_allclose(out.mass, [1.0 / 3.0, 0.0, 2.0 / 3.0], atol=1e-15)
    with pytest.raises(ConfigError):
        apply_selection(p, SelectionRule("top-mass", k=4))


def test_reward_reweight_frozen_example():
    # acceptance a = exp(r - max r) = (0.5, 1.0) on pbar (0.4, 0.6)
    p = pv(0.4, 0.6)
    rule = SelectionRule("reward-reweight", reward=(math.log(0.5), 0.0), beta=1.0)
    out = apply_selection(p, rule)
    np.testing.assert_allclose(out.mass, [0.25, 0.75], atol=1e-15)


def test_selection_rule_validation():
    with pytest.raises(ConfigError):
        SelectionRule("nope")
    with pytest.raises(ConfigError):
        SelectionRule("indicator")
    with pytest.raises(ConfigError):
        SelectionRule("top-mass", k=0)
    with pytest.raises(ConfigError):
        SelectionRule("reward-reweight")


@given(
    mass=st.lists(st.floats(1e-4, 1.0), min_size=3, max_size=12),
    beta=st.floats(0.0, 5.0),
)
@settings(max_examples=80, deadline=None)
def test_reward_reweight_preserves_support(mass, beta):
    total = sum(mass)
    p = pv(*[m / total for m in mass])
    reward = tuple(float(i) for i in range(len(mass)))
    out = apply_selection(p, SelectionRule("reward-reweight", reward=reward, beta=beta))
    assert np.all(out.mass > 0.0)
    assert out.mass.sum() == pytest.approx(1.0, abs=1e-9)
    if beta > 0.0:
        # tilting toward higher reward never lowers the top outcome's share
        assert out.mass[-1] >= p.mass[-1] - 1e-12


# --- sampling -------------------------------------------------------------------


def test_sampling_deterministic_per_seed():
    p = pv(0.2, 0.3, 0.5)
    a = sample_dataset(p, 1000, make_rng(42))
    b = sample_dataset(p, 1000, make_rng(42))
    c = sample_dataset(p, 1000, make_rng(43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_never_hits_zero_mass_tail():
    p = pv(0.7, 0.3, 0.0, 0.0)
    draws = sample_dataset(p, 5000, make_rng(0))
    assert draws.max() <= 1


class _ZeroDraws:
    """A generator stub whose uniforms are all exactly 0.0, which rng.random
    returns with probability 2**-53 per draw."""

    def random(self, n):
        return np.zeros(n)


def test_a_zero_uniform_never_draws_a_leading_zero_mass_outcome():
    pt = np.array([[0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0], [0.3, 0.7, 0.0, 0.0]])
    draws = evolution._draw(pt, 3, [_ZeroDraws()] * 3)
    assert draws.tolist() == [[1, 1, 1], [3, 3, 3], [0, 0, 0]]


def test_sampling_goodness_of_fit():
    p = pv(0.2, 0.3, 0.5)
    draws = sample_dataset(p, 100_000, make_rng(7))
    counts = np.bincount(draws, minlength=3)
    res = scipy.stats.chisquare(counts, f_exp=np.array([0.2, 0.3, 0.5]) * 100_000)
    assert res.pvalue > 0.001


def test_sample_dataset_validation():
    p = pv(0.5, 0.5)
    with pytest.raises(ConfigError):
        sample_dataset(p, 0, make_rng(0))
    data = sample_dataset(p, 10, make_rng(0))
    assert len(data) == 10
    assert data.dtype == np.int64
    assert not data.flags.writeable


# --- update rules ----------------------------------------------------------------


def _data(*samples):
    return np.array(samples, dtype=np.int64)


def test_mle_update_frozen():
    pop = Population.equal_weights([pv(0.5, 0.5), pv(0.5, 0.5)])
    out = update_agents(pop, _data(0, 0, 0, 1), UpdateRule("mle"))
    for agent in out.agents:
        assert agent.mass.tolist() == [0.75, 0.25]
    # all agents coincide after a shared-data update
    assert np.array_equal(out.agents[0].mass, out.agents[1].mass)


def test_smoothed_mle_frozen():
    pop = Population.equal_weights([pv(0.5, 0.5)])
    out = update_agents(pop, _data(0, 0, 0, 1), UpdateRule("smoothed-mle", lam=1.0))
    np.testing.assert_allclose(out.agents[0].mass, [4.0 / 6.0, 2.0 / 6.0], atol=1e-15)


def test_memory_buffer_frozen():
    pop = Population.equal_weights([pv(0.5, 0.5)])
    rule = memory_preset(capacity=4, alpha_mem=0.5)
    data = _data(1, 1)
    out = update_agents(pop, data, rule, memory=roll_memory((0, 0), data, 4))
    # buffer (0,0,1,1) gives (0.5, 0.5); fresh data gives (0, 1); blend halves
    np.testing.assert_allclose(out.agents[0].mass, [0.25, 0.75], atol=1e-15)


def test_roll_memory_keeps_most_recent():
    assert roll_memory((1, 2, 3), np.array([4, 5]), 4).tolist() == [2, 3, 4, 5]
    assert roll_memory((), np.array([1]), 3).tolist() == [1]


def test_reward_reweighted_update_fixed():
    pop = Population.equal_weights([pv(0.5, 0.5)])
    rule = UpdateRule(
        "reward-reweighted-mle", beta=1.0, reward=(0.0, math.log(2.0)), reward_source="fixed"
    )
    out = update_agents(pop, _data(0, 1), rule)
    # counts (1,1) tilted by exp(r - max r) = (0.5, 1)
    np.testing.assert_allclose(out.agents[0].mass, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)


def test_reward_reweighted_update_mixture_loglik():
    pop = Population.equal_weights([pv(0.8, 0.2)])
    out = update_agents(pop, _data(0, 1), rl_preset(beta=1.0))
    # tilt = pbar ** 1: counts (1,1) * (0.8, 0.2) -> (0.8, 0.2)
    np.testing.assert_allclose(out.agents[0].mass, [0.8, 0.2], atol=1e-15)


def test_reward_tilt_total_annihilation_is_error():
    pop = Population.equal_weights([pv(0.0, 1.0)])
    with pytest.raises(ValueError):
        # all sampled outcomes carry zero mixture mass, tilt kills everything
        update_agents(pop, _data(0, 0), rl_preset(beta=1.0))


def test_update_rejects_empty_or_alien_data():
    pop = Population.equal_weights([pv(0.5, 0.5)])
    with pytest.raises(ValueError):
        update_agents(pop, np.array([], dtype=np.int64), UpdateRule("mle"))
    with pytest.raises(ValueError):
        update_agents(pop, _data(0, 5), UpdateRule("mle"))


@given(
    counts=st.lists(st.integers(0, 20), min_size=2, max_size=10).filter(
        lambda c: sum(c) > 0
    ),
    lam=st.floats(1e-3, 10.0),
)
@settings(max_examples=80, deadline=None)
def test_smoothed_mle_floor_property(counts, lam):
    k = len(counts)
    samples = [i for i, c in enumerate(counts) for _ in range(c)]
    pop = Population.equal_weights([pv(*([1.0 / k] * k))])
    out = update_agents(
        pop, np.array(samples, dtype=np.int64), UpdateRule("smoothed-mle", lam=lam)
    )
    n = len(samples)
    floor = lam / (n + lam * k)
    assert np.all(out.agents[0].mass >= floor - 1e-15)


def test_neighborhood_dilation():
    s = OutcomeSpace(10)
    assert neighborhood(s, [4], 0).tolist() == [4]
    assert neighborhood(s, [4], 2).tolist() == [2, 3, 4, 5, 6]
    assert neighborhood(s, [0, 9], 1).tolist() == [0, 1, 8, 9]


# --- one round / run ------------------------------------------------------------


def _replay_round(pop, cfg, rng, memory):
    """One bare round from the public row stages, drawing as run() does:
    mixture, selection, one dataset of n * blocks outcomes, the rolled
    buffer, then the update (agent m fitted to block m with per-agent
    datasets). Returns the population, dataset, training distribution and
    buffer."""
    pt = apply_selection(mixture(pop), cfg.selection)
    n, blocks = cfg.sample_size, pop.size if cfg.per_agent_datasets else 1
    dataset = sample_dataset(pt, n * blocks, rng)
    rule = cfg.update
    if rule.kind == "memory-buffer":
        memory = roll_memory(memory, dataset, rule.capacity)
    if cfg.per_agent_datasets:
        fits = [update_agents(pop, dataset[m * n : (m + 1) * n], rule) for m in range(blocks)]
        pop = Population(tuple(fit.agents[m] for m, fit in enumerate(fits)), pop.weights)
    else:
        pop = update_agents(pop, dataset, rule, memory)
    return pop, dataset, pt, memory


def test_round_composition():
    pop = Population.equal_weights([pv(0.5, 0.5), pv(0.5, 0.5)])
    cfg = EvolutionConfig(sample_size=50, rounds=1, seed=5)
    replayed, dataset, pt, _ = _replay_round(pop, cfg, make_rng(5), ())
    assert len(dataset) == 50
    assert pt.mass.tolist() == [0.5, 0.5]
    counts = np.bincount(dataset, minlength=2)
    np.testing.assert_allclose(replayed.agents[0].mass, counts / 50.0, atol=1e-15)
    state = run(pop, cfg, keep_states=True).states[1]
    for manual, recorded in zip(replayed.agents, state.agents):
        assert np.array_equal(manual.mass, recorded.mass)


def test_per_agent_datasets_give_distinct_agents():
    pop = Population.equal_weights([pv(0.5, 0.5)] * 3)
    cfg = EvolutionConfig(sample_size=51, rounds=1, seed=5, per_agent_datasets=True)
    replayed, dataset, _, _ = _replay_round(pop, cfg, make_rng(5), ())
    assert len(dataset) == 153
    masses = [tuple(a.mass.tolist()) for a in run(pop, cfg, keep_states=True).states[1].agents]
    assert len(set(masses)) > 1
    assert masses == [tuple(a.mass.tolist()) for a in replayed.agents]


def test_per_agent_datasets_rejects_memory_rule():
    with pytest.raises(ConfigError):
        EvolutionConfig(
            sample_size=10, rounds=1, update=memory_preset(capacity=10),
            per_agent_datasets=True,
        )


def test_run_record_structure():
    ref = two_tier_reference(20, safe_mass=0.9, safe_fraction=0.5)
    pop = Population.equal_weights([ref.pi_star] * 2)
    cfg = EvolutionConfig(sample_size=40, rounds=7, seed=1)
    probes = resolve_probes(("kl_safety", "safe_mass"), default_tau=0.01)
    traj = run(pop, cfg, probes, ref=ref, monitors={"tail": (8, 9)})
    assert traj.rounds == 7
    assert [r.round for r in traj.records] == list(range(8))
    assert traj.initial.values["kl_safety"] == 0.0
    assert traj.initial.monitor_absent["tail"] is None
    for rec in traj.records[1:]:
        assert isinstance(rec.monitor_absent["tail"], bool)
        assert set(rec.values) == {"kl_safety", "safe_mass"}
    assert traj.probe_names == ("kl_safety", "safe_mass")


def test_run_probes_require_reference():
    pop = Population.equal_weights([pv(0.5, 0.5)])
    cfg = EvolutionConfig(sample_size=10, rounds=1)
    probes = resolve_probes(("kl_safety",), default_tau=0.01)
    with pytest.raises(ConfigError):
        run(pop, cfg, probes)


def test_run_rejects_empty_monitor():
    pop = Population.equal_weights([pv(0.5, 0.5)])
    cfg = EvolutionConfig(sample_size=10, rounds=1)
    with pytest.raises(ConfigError):
        run(pop, cfg, monitors={"empty": ()})


def test_run_is_deterministic_and_seed_sensitive():
    ref = two_tier_reference(50, safe_mass=0.9, safe_fraction=0.5)
    pop = Population.equal_weights([ref.pi_star] * 2)
    cfg = EvolutionConfig(sample_size=30, rounds=10, seed=11)
    a = run(pop, cfg, keep_states=True)
    b = run(pop, cfg, keep_states=True)
    for sa, sb in zip(a.states, b.states):
        for aa, ab in zip(sa.agents, sb.agents):
            assert np.array_equal(aa.mass, ab.mass)
    c = run(pop, EvolutionConfig(sample_size=30, rounds=10, seed=12), keep_states=True)
    assert any(
        not np.array_equal(xa.agents[0].mass, xc.agents[0].mass)
        for xa, xc in zip(a.states, c.states)
    )


def test_per_agent_run_differs_from_shared_run():
    ref = two_tier_reference(1000, safe_mass=0.95, safe_fraction=0.5)
    pop0 = Population.equal_weights([ref.pi_star] * 4)
    shared = run(pop0, EvolutionConfig(sample_size=200, rounds=5, seed=3), keep_states=True)
    per_agent = run(
        pop0,
        EvolutionConfig(sample_size=200, rounds=5, seed=3, per_agent_datasets=True),
        keep_states=True,
    )
    final = [tuple(a.mass.tolist()) for a in per_agent.final_population.agents]
    assert len(set(final)) == 4
    assert len({tuple(a.mass.tolist()) for a in shared.final_population.agents}) == 1
    assert not np.array_equal(
        mixture(shared.final_population).mass, mixture(per_agent.final_population).mass
    )


@pytest.mark.parametrize(
    "rule, per_agent, selection",
    [
        (UpdateRule("mle"), False, SelectionRule("identity")),
        (UpdateRule("smoothed-mle", lam=0.5), False, SelectionRule("identity")),
        (UpdateRule("mle"), True, SelectionRule("identity")),
        (UpdateRule("smoothed-mle", lam=0.5), True, SelectionRule("identity")),
        (memory_preset(capacity=60), False, SelectionRule("identity")),
        (rl_preset(beta=1.5), False, SelectionRule("identity")),
        (UpdateRule("mle"), False, SelectionRule("top-mass", k=20)),
        (UpdateRule("mle"), True, SelectionRule("top-mass", k=20)),
    ],
    ids=[
        "mle-shared", "smoothed-mle-shared", "mle-per-agent", "smoothed-mle-per-agent",
        "memory-buffer-shared", "rl-shared", "top-mass-shared", "top-mass-per-agent",
    ],
)
def test_run_matches_manual_round_replay(rule, per_agent, selection):
    """run() must consume randomness exactly like the documented round stages."""
    ref = two_tier_reference(30, safe_mass=0.9, safe_fraction=0.5)
    pop0 = Population.equal_weights([ref.pi_star] * 3)
    cfg = EvolutionConfig(
        sample_size=25, rounds=8, seed=21, selection=selection, update=rule,
        per_agent_datasets=per_agent,
    )
    traj = run(pop0, cfg, keep_states=True)
    rng = make_rng(cfg.seed)
    pop, memory = pop0, ()
    for r in range(1, cfg.rounds + 1):
        pop, dataset, _, memory = _replay_round(pop, cfg, rng, memory)
        assert len(dataset) == (3 if per_agent else 1) * 25
        for manual, recorded in zip(pop.agents, traj.states[r].agents):
            assert np.array_equal(manual.mass, recorded.mass)
    # per-agent datasets keep the agents apart; shared data makes them coincide
    assert len({tuple(a.mass.tolist()) for a in pop.agents}) == (3 if per_agent else 1)


def test_per_agent_verifier_annihilation_skips_only_that_agent():
    from driftlab import SafetyReference, VerifierPolicy

    ref = SafetyReference(pv(0.9, 0.1), [0], 0.2)
    pop0 = Population.equal_weights([pv(0.5, 0.5)] * 4)
    # one sample per agent: the perfect verifier empties exactly the chunks
    # that drew the unsafe outcome (agents 1 and 2 at this seed)
    cfg = EvolutionConfig(sample_size=1, rounds=1, seed=4, per_agent_datasets=True)
    traj = run(pop0, cfg, intervention=VerifierPolicy(ref), keep_states=True)
    masses = [a.mass.tolist() for a in traj.states[1].agents]
    assert masses == [[1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [1.0, 0.0]]
    assert traj.records[1].fired == ("verifier",)
    assert traj.records[1].notes == ("verifier-annihilation: update skipped",) * 2


def test_isolation_reference_cannot_touch_dynamics():
    """Bitwise-equal trajectories under different references, same seed."""
    ref_a = two_tier_reference(40, safe_mass=0.9, safe_fraction=0.5)
    ref_b = two_tier_reference(40, safe_mass=0.6, safe_fraction=0.25)
    pop = Population.equal_weights([pv(*([1.0 / 40] * 39 + [1.0 / 40]))] * 2)
    # same initial population measured against two different references
    cfg = EvolutionConfig(sample_size=35, rounds=12, seed=3)
    probes = resolve_probes(("kl_safety", "safe_mass"), default_tau=0.01)
    ta = run(pop, cfg, probes, ref=ref_a, keep_states=True)
    tb = run(pop, cfg, probes, ref=ref_b, keep_states=True)
    for sa, sb in zip(ta.states, tb.states):
        for aa, ab in zip(sa.agents, sb.agents):
            assert np.array_equal(aa.mass, ab.mass)
    # the measurements themselves do differ, proving the probes saw different refs
    assert ta.records[0].values["safe_mass"] != tb.records[0].values["safe_mass"]


def test_simulation_error_carries_round_index():
    # selection demands an outcome the population gives zero mass: the very
    # first snapshot is already impossible and must fail as a simulation
    # error with the round it died in, not as a bare selection error
    pop = Population.equal_weights([pv(1.0, 0.0)])
    cfg_bad = EvolutionConfig(
        sample_size=5,
        rounds=50,
        seed=0,
        selection=SelectionRule("indicator", indices=(1,)),
    )
    with pytest.raises(SimulationError) as err:
        run(pop, cfg_bad)
    assert err.value.round_index == 0
    assert isinstance(err.value.__cause__, DegenerateSelectionError)


def test_uniform_population_mixture_unchanged_by_update_shape():
    # with shared data, agents coincide after the update regardless of how
    # distinct they start
    pop = Population.equal_weights([pv(0.9, 0.1), pv(0.1, 0.9)])
    cfg = EvolutionConfig(sample_size=100, rounds=1, seed=9)
    final = run(pop, cfg).final_population
    assert np.array_equal(final.agents[0].mass, final.agents[1].mass)
    replayed = _replay_round(pop, cfg, make_rng(9), ())[0]
    assert np.array_equal(replayed.agents[0].mass, final.agents[0].mass)
