import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.core import OutcomeSpace, ProbVector, SafetyReference, two_tier_reference
from driftlab.errors import ConfigError, SimulationError, VerifierAnnihilationError
from driftlab.evolution import (
    EvolutionConfig,
    Population,
    SelectionRule,
    UpdateRule,
    make_rng,
    run,
    run_batch,
)
from driftlab.interventions import (
    CoolingPolicy,
    DiversityPolicy,
    EntropyReleasePolicy,
    Schedule,
    VerifierPolicy,
)


def pv(*mass):
    return ProbVector(OutcomeSpace(len(mass)), list(mass))


def entropy_of(mass):
    m = np.asarray(mass, dtype=np.float64)
    nz = m[m > 0.0]
    return float(-(nz * np.log(nz)).sum())


# small references used throughout; epsilon is loose on purpose so the
# distributions can be whatever the test needs
REF2 = SafetyReference(pv(0.9, 0.1), [0], 0.2)
REF2_SOFT = SafetyReference(pv(0.75, 0.25), [0], 0.5)
REF4 = SafetyReference(pv(0.4, 0.4, 0.1, 0.1), [0, 1], 0.25)


def _data(*samples):
    return np.array(samples, dtype=np.int64)


# --- schedules ---------------------------------------------------------------


# two mixture rows: the reference itself, then far from it
MIXTURES = np.array([REF2.pi_star.mass, [0.5, 0.5]])


def test_default_schedule_fires_every_round():
    sched = Schedule()
    assert all(sched.fires(r, MIXTURES).tolist() == [True, True] for r in range(1, 6))


def test_every_k_schedule_fires_on_multiples():
    # an every-k schedule is a round test: all rows or none
    sched = Schedule(kind="every", k=3)
    masks = {r: sched.fires(r, MIXTURES).tolist() for r in range(1, 8)}
    assert [r for r, mask in masks.items() if all(mask)] == [3, 6]
    assert all(not any(mask) for r, mask in masks.items() if r % 3)


def test_kl_trigger_schedule_reads_drift():
    sched = Schedule(kind="kl-trigger", threshold=0.1, ref=REF2)
    # one answer per mixture row: near the reference, then far from it
    assert sched.fires(1, MIXTURES).tolist() == [False, True]


def test_schedule_validation():
    with pytest.raises(ConfigError):
        Schedule(kind="sometimes")
    with pytest.raises(ConfigError):
        Schedule(kind="every", k=0)
    with pytest.raises(ConfigError):
        Schedule(kind="kl-trigger", threshold=0.1)


def test_schedule_fields_the_kind_does_not_read_are_refused():
    with pytest.raises(ConfigError, match="schedule kind 'every' does not read threshold, ref$"):
        Schedule("every", k=2, threshold=0.5, ref=REF2)
    with pytest.raises(ConfigError, match="schedule kind 'kl-trigger' does not read k$"):
        Schedule("kl-trigger", k=7, threshold=0.1, ref=REF2)
    # a field at its default is not set
    Schedule("every", k=2, threshold=0.0, ref=None)
    Schedule("kl-trigger", k=1, threshold=0.1, ref=REF2)


# --- verifier -----------------------------------------------------------------


def test_perfect_verifier_keeps_exactly_the_safe_samples():
    data = _data(0, 1, 2, 3, 0, 2)
    out = VerifierPolicy(REF4).filter_dataset(data, make_rng(0))
    assert out.tolist() == [0, 1, 0]


def test_inverted_verifier_keeps_exactly_the_unsafe_samples():
    # fp = 1 drops every safe sample, fn_rate = 1 passes every unsafe one
    data = _data(0, 1, 2, 3, 0, 2)
    out = VerifierPolicy(REF4, fp=1.0, fn_rate=1.0).filter_dataset(data, make_rng(0))
    assert out.tolist() == [2, 3, 2]


def test_verifier_budget_limits_inspection_to_the_head():
    data = _data(2, 3, 0, 1)
    out = VerifierPolicy(REF4, budget=2).filter_dataset(data, make_rng(0))
    # the unsafe head is inspected and dropped, the tail passes unexamined
    assert out.tolist() == [0, 1]


def test_verifier_annihilation_is_an_error():
    with pytest.raises(VerifierAnnihilationError):
        VerifierPolicy(REF4).filter_dataset(_data(2, 3), make_rng(0))


def test_verifier_miss_rate_is_stochastic_and_seeded():
    data = np.full(10_000, 2, dtype=np.int64)
    verifier = VerifierPolicy(REF4, fn_rate=0.5)
    a = verifier.filter_dataset(data, make_rng(3))
    b = verifier.filter_dataset(data, make_rng(3))
    assert np.array_equal(a, b)
    assert 4500 < len(a) < 5500


def test_verifier_policy_validation():
    with pytest.raises(ConfigError):
        VerifierPolicy(REF4, fp=-0.1)
    with pytest.raises(ConfigError):
        VerifierPolicy(REF4, fn_rate=1.5)
    with pytest.raises(ConfigError):
        VerifierPolicy(REF4, budget=0)


# --- cooling -------------------------------------------------------------------


def _one_agent(*mass):
    """A one-agent seed for CoolingPolicy.cool: its rows (1, K) and mixture (K,)."""
    agents = np.array([mass])
    return agents, agents[0]


def test_cooling_within_threshold_refreshes_checkpoint():
    current = _one_agent(*REF2.pi_star.mass)
    stale = np.array([[0.8, 0.2]])
    out, out_ckpt, rolled = CoolingPolicy(REF2, kl_threshold=0.5).cool(current, stale)
    assert not rolled
    assert np.array_equal(out, current[0])
    # the checkpoint moves up to the current population
    assert np.array_equal(out_ckpt, current[0])


def test_cooling_full_rollback_restores_checkpoint():
    ckpt = REF2.pi_star.mass[None]
    out, out_ckpt, rolled = CoolingPolicy(REF2, kl_threshold=0.1).cool(
        _one_agent(0.5, 0.5), ckpt
    )
    assert rolled
    assert np.array_equal(out, ckpt)
    assert np.array_equal(out_ckpt, ckpt)


def test_cooling_partial_blend_frozen_example():
    # blend 0.5 of checkpoint (0.5, 0.5) with current (0.9, 0.1) -> (0.7, 0.3)
    policy = CoolingPolicy(REF2_SOFT, kl_threshold=0.05, blend=0.5)
    out, out_ckpt, rolled = policy.cool(_one_agent(0.9, 0.1), np.array([[0.5, 0.5]]))
    assert rolled
    np.testing.assert_allclose(out, [[0.7, 0.3]], atol=1e-12)
    # a partial blend keeps the old checkpoint instead of refreshing it
    assert np.array_equal(out_ckpt, [[0.5, 0.5]])


def test_cooling_checkpoint_shape_mismatch():
    pop = Population.equal_weights([pv(0.5, 0.5)])
    ckpt = Population.equal_weights([pv(0.5, 0.5), pv(0.5, 0.5)])
    policy = CoolingPolicy(REF2, kl_threshold=0.1, checkpoint=ckpt)
    cfg = EvolutionConfig(sample_size=5, rounds=2)
    # raised where the run is asked for, not as a failure of every seed
    with pytest.raises(ConfigError, match="cooling checkpoint does not match"):
        run(pop, cfg, intervention=policy)
    with pytest.raises(ConfigError, match="cooling checkpoint does not match"):
        run_batch([pop, pop], cfg, (0, 1), intervention=[policy])


def test_cooling_policy_validation():
    with pytest.raises(ConfigError):
        CoolingPolicy(REF2, kl_threshold=-0.1)
    with pytest.raises(ConfigError):
        CoolingPolicy(REF2, blend=0.0)
    with pytest.raises(ConfigError):
        CoolingPolicy(REF2, blend=1.5)


def test_cooling_initial_checkpoint_defaults_to_start_population():
    # two seeds of one agent each
    initial = np.array([[REF2.pi_star.mass], [[0.3, 0.7]]])
    pinned = Population.equal_weights([pv(0.8, 0.2)])
    own = CoolingPolicy(REF2).initial_checkpoint(initial)
    assert np.array_equal(own, initial) and not np.shares_memory(own, initial)
    given = CoolingPolicy(REF2, checkpoint=pinned).initial_checkpoint(initial)
    assert np.array_equal(given, [[[0.8, 0.2]], [[0.8, 0.2]]])


# --- diversity ------------------------------------------------------------------


def test_diversity_injection_frozen_example():
    # T = 1 keeps pt, rho = 0.5 mixes half the reference in:
    # 0.5*(0.9, 0.1) + 0.5*(0.75, 0.25) = (0.825, 0.175)
    policy = DiversityPolicy(REF2_SOFT, temperature=1.0, rho=0.5)
    out = policy.adjust_training(np.array([[0.9, 0.1]]))
    np.testing.assert_allclose(out, [[0.825, 0.175]], atol=1e-15)


def test_diversity_temperature_frozen_example():
    # sqrt-tempering (0.9, 0.1) lands exactly on (0.75, 0.25)
    policy = DiversityPolicy(REF2_SOFT, temperature=2.0, rho=0.0)
    # row by row: each training row is tempered on its own
    out = policy.adjust_training(np.array([[0.9, 0.1], [0.5, 0.5]]))
    np.testing.assert_allclose(out, [[0.75, 0.25], [0.5, 0.5]], atol=1e-12)


def test_diversity_tempering_raises_entropy():
    pt = np.array([[0.9, 0.05, 0.03, 0.02]])
    ref = two_tier_reference(4, safe_mass=0.9, safe_fraction=0.5)
    out = DiversityPolicy(ref, temperature=3.0, rho=0.0).adjust_training(pt)
    assert entropy_of(out[0]) > entropy_of(pt[0])


@given(
    raw=st.lists(st.floats(1e-4, 1.0), min_size=6, max_size=6),
    rho=st.floats(0.0, 1.0),
    temperature=st.floats(1.0, 10.0),
)
@settings(max_examples=80, deadline=None)
def test_diversity_floor_property(raw, rho, temperature):
    """Every outcome keeps at least rho * pi_star(z) training mass."""
    ref = two_tier_reference(6, safe_mass=0.9, safe_fraction=0.5)
    total = sum(raw)
    pt = np.array([[x / total for x in raw]])
    out = DiversityPolicy(ref, temperature=temperature, rho=rho).adjust_training(pt)
    assert np.all(out >= rho * ref.pi_star.mass - 1e-12)


def test_diversity_policy_validation():
    with pytest.raises(ConfigError):
        DiversityPolicy(REF2, temperature=0.5)
    with pytest.raises(ConfigError):
        DiversityPolicy(REF2, rho=1.5)


# --- entropy release -------------------------------------------------------------


def _release(agents, initial=None, **policy_args):
    """Entropy release of agent rows (S, M, K)."""
    agents = np.asarray(agents, dtype=np.float64)
    initial = agents if initial is None else np.asarray(initial, dtype=np.float64)
    return EntropyReleasePolicy(**policy_args).adjust_population(agents, initial)


def _release_one(agent, **policy_args):
    """Entropy release of a single agent, as a one-seed, one-agent batch."""
    return pv(*_release([[agent.mass]], **policy_args)[0, 0])


def test_release_uniform_anchor_frozen_example():
    space = OutcomeSpace(2)
    out = _release_one(pv(1.0, 0.0), gamma=0.1, anchor=ProbVector(space, [0.5, 0.5]))
    np.testing.assert_allclose(out.mass, [0.95, 0.05], atol=1e-15)


def test_release_prune_frozen_example():
    # anchor = agent makes the blend a no-op, isolating the prune:
    # (0.75, 0.1875, 0.0625) with floor 0.1 -> (0.8, 0.2, 0)
    agent = pv(0.75, 0.1875, 0.0625)
    out = _release_one(agent, gamma=0.5, prune_floor=0.1, anchor=agent)
    np.testing.assert_allclose(out.mass, [0.8, 0.2, 0.0], atol=1e-15)


def test_release_pruning_everything_is_an_error():
    # only the second seed's second agent sits wholly below the floor
    # (half-way to uniform, (1, 0) lands on (0.75, 0.25) and (0.5, 0.5) stays)
    agents = [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.5, 0.5]]]
    with pytest.raises(ValueError, match="removed all of agent 1's mass"):
        _release(agents, gamma=0.5, prune_floor=0.6)
    out = _release(agents[:1], gamma=0.5, prune_floor=0.6)
    np.testing.assert_allclose(out[0], [[1.0, 0.0], [1.0, 0.0]], atol=1e-15)


def test_release_population_anchor_is_per_agent():
    agents = [[[1.0, 0.0], [0.0, 1.0]]]
    anchor = Population.equal_weights([pv(0.0, 1.0), pv(1.0, 0.0)])
    out = _release(agents, gamma=0.5, anchor=anchor)
    np.testing.assert_allclose(out[0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_release_initial_anchor_is_each_seeds_own_start():
    agents = [[[1.0, 0.0]], [[1.0, 0.0]]]
    initial = [[[0.0, 1.0]], [[0.5, 0.5]]]
    out = _release(agents, initial, gamma=0.5, anchor="initial")
    np.testing.assert_allclose(out, [[[0.5, 0.5]], [[0.75, 0.25]]], atol=1e-15)


def test_release_anchor_shape_mismatch():
    pop = Population.equal_weights([pv(1.0, 0.0)])
    cfg = EvolutionConfig(sample_size=5, rounds=2)
    two = Population.equal_weights([pv(0.0, 1.0), pv(1.0, 0.0)])
    for anchor in (two, pv(0.2, 0.3, 0.5)):
        policy = EntropyReleasePolicy(gamma=0.5, anchor=anchor)
        with pytest.raises(ConfigError, match="entropy-release anchor does not match"):
            run(pop, cfg, intervention=policy)
    # a reference on another space is caught at the call as well
    with pytest.raises(ConfigError, match="verifier reference does not match"):
        run(pop, cfg, intervention=VerifierPolicy(REF4))


def test_release_policy_validation():
    with pytest.raises(ConfigError):
        EntropyReleasePolicy(gamma=0.0)
    with pytest.raises(ConfigError):
        EntropyReleasePolicy(gamma=1.5)
    with pytest.raises(ConfigError):
        EntropyReleasePolicy(prune_floor=1.0)
    with pytest.raises(ConfigError):
        EntropyReleasePolicy(anchor="banana")
    with pytest.raises(ConfigError):
        EntropyReleasePolicy(prune_memory=True)


def test_release_prune_buffer_keeps_safe_samples():
    policy = EntropyReleasePolicy(gamma=0.05, prune_memory=True, ref=REF4)
    assert policy.prune_buffer((0, 1, 2, 3, 0)).tolist() == [0, 1, 0]


@given(
    raw=st.lists(st.floats(1e-4, 1.0), min_size=2, max_size=8),
    gamma=st.floats(0.01, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_release_toward_uniform_never_lowers_entropy(raw, gamma):
    total = sum(raw)
    agent = pv(*[x / total for x in raw])
    uniform = ProbVector(agent.space, [1.0 / agent.space.size] * agent.space.size)
    out = _release_one(agent, gamma=gamma, anchor=uniform)
    assert entropy_of(out.mass) >= entropy_of(agent.mass) - 1e-12


# --- composition inside run() ------------------------------------------------------


def test_run_verifier_annihilation_skips_update():
    # everything the population emits is unsafe, so the perfect verifier
    # empties every round's dataset; the run must survive with the update
    # skipped and the population untouched
    pop0 = Population.equal_weights([pv(0.0, 1.0)])
    cfg = EvolutionConfig(sample_size=8, rounds=3)
    traj = run(pop0, cfg, intervention=VerifierPolicy(REF2), keep_states=True, seed=0)
    assert traj.fired == tuple((r, "verifier") for r in range(1, 4))
    assert traj.notes == tuple((r, "verifier-annihilation: update skipped") for r in range(1, 4))
    for state in traj.states:
        assert np.array_equal(state.agents[0].mass, [0.0, 1.0])


def test_run_cooling_rollback_pins_population():
    # the indicator selection forces every sample onto the unsafe outcome, so
    # each bare update lands at (0, 1) with infinite drift; full-blend cooling
    # rolls the population straight back to the start every round
    pop0 = Population.equal_weights([REF2.pi_star])
    cfg = EvolutionConfig(
        sample_size=10,
        rounds=4,
        selection=SelectionRule("indicator", indices=(1,)),
    )
    traj = run(
        pop0, cfg, intervention=CoolingPolicy(REF2, kl_threshold=0.5), keep_states=True, seed=2
    )
    assert traj.fired == tuple((r, "cooling") for r in range(1, 5))
    assert traj.notes == tuple((r, "cooling-rollback") for r in range(1, 5))
    for state in traj.states:
        assert np.array_equal(state.agents[0].mass, REF2.pi_star.mass)


def test_run_cooling_refresh_leaves_dynamics_alone():
    pop0 = Population.equal_weights([REF2.pi_star])
    cfg = EvolutionConfig(
        sample_size=20, rounds=4, update=UpdateRule("smoothed-mle", lam=1.0)
    )
    bare = run(pop0, cfg, keep_states=True, seed=2)
    cooled = run(
        pop0,
        cfg,
        intervention=CoolingPolicy(REF2, kl_threshold=1e6),
        keep_states=True,
        seed=2,
    )
    assert cooled.fired == ()
    assert cooled.notes == tuple((r, "cooling-refresh") for r in range(1, 5))
    # a refresh-only cooling policy must not perturb the trajectory
    for sa, sb in zip(bare.states, cooled.states):
        assert np.array_equal(sa.agents[0].mass, sb.agents[0].mass)


def test_run_scheduled_out_policy_changes_nothing():
    # installed but never scheduled: the trajectory must be bitwise identical
    # to an unintervened run, randomness included
    pop0 = Population.equal_weights([REF2.pi_star] * 2)
    cfg = EvolutionConfig(sample_size=15, rounds=6)
    dormant = VerifierPolicy(REF2, schedule=Schedule(kind="every", k=50))
    a = run(pop0, cfg, keep_states=True, seed=4)
    b = run(pop0, cfg, intervention=dormant, keep_states=True, seed=4)
    for sa, sb in zip(a.states, b.states):
        for aa, ab in zip(sa.agents, sb.agents):
            assert np.array_equal(aa.mass, ab.mass)
    assert b.fired == ()


def test_run_release_prune_failure_becomes_simulation_error():
    # a huge smoothing constant parks the update at uniform, which sits
    # entirely below the prune floor
    pop0 = Population.equal_weights([pv(0.5, 0.3, 0.2)])
    cfg = EvolutionConfig(
        sample_size=10, rounds=5, update=UpdateRule("smoothed-mle", lam=1e9)
    )
    policy = EntropyReleasePolicy(gamma=0.05, prune_floor=0.5)
    with pytest.raises(SimulationError) as err:
        run(pop0, cfg, intervention=policy, seed=0)
    assert err.value.round_index == 1
    assert isinstance(err.value.__cause__, ValueError)


def test_run_memory_prune_emits_note():
    pop0 = Population.equal_weights([REF2.pi_star])
    cfg = EvolutionConfig(
        sample_size=50, rounds=5, update=UpdateRule("memory-buffer", capacity=200, alpha_mem=0.5)
    )
    policy = EntropyReleasePolicy(gamma=0.05, prune_memory=True, ref=REF2)
    traj = run(pop0, cfg, intervention=policy, seed=1)
    pruned = [text for _, text in traj.notes if text.startswith("memory prune dropped")]
    assert pruned, "expected at least one unsafe sample to be pruned from the buffer"
    assert {r for r, text in traj.fired if text == "entropy-release"} == set(range(1, 6))


def test_run_fired_lists_policies_in_attachment_order():
    pop0 = Population.equal_weights([REF2.pi_star])
    cfg = EvolutionConfig(sample_size=30, rounds=3)
    policies = [
        VerifierPolicy(REF2, fn_rate=1.0),  # pass-through, but it still fires
        DiversityPolicy(REF2, temperature=1.0, rho=0.5),
    ]
    traj = run(pop0, cfg, intervention=policies, seed=6)
    assert traj.fired == tuple(
        (r, kind) for r in range(1, 4) for kind in ("diversity", "verifier")
    )
