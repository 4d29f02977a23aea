import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import (
    ConfigError,
    OutcomeSpace,
    Population,
    ProbVector,
    SafetyReference,
    Trajectory,
    TrajectoryRecord,
    absence_probability,
    binarized_kl_lower_bound,
    coverage,
    cross_entropy,
    estimate_decay,
    kl_divergence,
    kl_safe_set_decomposition,
    mutual_information_plugin,
    probe_names,
    resolve_probe,
    resolve_probes,
    shannon_entropy,
    two_tier_reference,
)
from driftlab.core import _wrap

S2 = OutcomeSpace(2)
S3 = OutcomeSpace(3)


def pv(*mass):
    return ProbVector(OutcomeSpace(len(mass)), list(mass))


simplex = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=25
).map(lambda w: [x / sum(w) for x in w])


# --- divergence / entropy -------------------------------------------------


def test_kl_frozen_value():
    # 0.5 ln 2 + 0.5 ln(2/3)
    expected = math.log(2.0) - 0.5 * math.log(3.0)
    assert kl_divergence(pv(0.5, 0.5), pv(0.25, 0.75)) == pytest.approx(
        expected, abs=1e-15
    )
    assert expected == pytest.approx(0.1438410362258904, abs=1e-12)


def test_kl_support_escape_is_inf_not_error():
    assert kl_divergence(pv(0.5, 0.5), pv(1.0, 0.0)) == math.inf


def test_kl_self_is_zero():
    p = pv(0.2, 0.3, 0.5)
    assert kl_divergence(p, p) == 0.0


def test_cross_entropy_frozen_value():
    p, q = pv(0.5, 0.5), pv(0.25, 0.75)
    assert cross_entropy(p, q) == pytest.approx(0.8369882167858556, abs=1e-12)


def test_entropy_uniform():
    assert shannon_entropy(pv(0.25, 0.25, 0.25, 0.25)) == pytest.approx(
        math.log(4.0), abs=1e-15
    )
    assert shannon_entropy(pv(1.0, 0.0)) == 0.0


@given(p=simplex, q=simplex)
@settings(max_examples=150, deadline=None)
def test_entropy_identity(p, q):
    n = min(len(p), len(q))
    p, q = p[:n], q[:n]
    p[-1] += 1.0 - sum(p)
    q[-1] += 1.0 - sum(q)
    pp, qq = pv(*p), pv(*q)
    lhs = cross_entropy(pp, qq)
    rhs = shannon_entropy(pp) + kl_divergence(pp, qq)
    assert abs(lhs - rhs) <= 1e-12


def test_binarized_bound_frozen_value():
    v = binarized_kl_lower_bound(0.95, 0.5)
    expected = 0.95 * math.log(0.95 / 0.5) + 0.05 * math.log(0.05 / 0.5)
    assert v == pytest.approx(expected, abs=1e-15)
    assert v == pytest.approx(0.49463193721407261, abs=1e-12)


def test_binarized_bound_domain():
    with pytest.raises(ValueError):
        binarized_kl_lower_bound(1.2, 0.5)
    with pytest.raises(ValueError):
        binarized_kl_lower_bound(0.5, -0.1)
    assert binarized_kl_lower_bound(0.5, 0.0) == math.inf
    assert binarized_kl_lower_bound(0.0, 0.0) == 0.0


@given(p=simplex, q=simplex, frac=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150, deadline=None)
def test_binarized_bound_never_exceeds_divergence(p, q, frac):
    n = min(len(p), len(q))
    p, q = p[:n], q[:n]
    p[-1] += 1.0 - sum(p)
    q[-1] += 1.0 - sum(q)
    cut = max(1, min(n - 1, int(frac * n)))
    pm = sum(p[:cut])
    qm = sum(q[:cut])
    lower = binarized_kl_lower_bound(min(pm, 1.0), min(qm, 1.0))
    full = kl_divergence(pv(*p), pv(*q))
    # 1e-10 slack: the two sides round their sums independently and the
    # divergence can reach tens of nats here; the tight-tolerance version of
    # this inequality runs in the oracle suite on compensated sums
    assert lower <= full + 1e-10


# --- safe-set decomposition -------------------------------------------------


def test_decomposition_frozen_example():
    ref = SafetyReference(pv(0.5, 0.3, 0.2), (0, 1), 0.25)
    dec = kl_safe_set_decomposition(ref, pv(0.25, 0.25, 0.5))
    assert dec.total == pytest.approx(0.218011910943328, abs=1e-12)
    assert dec.mass_term == pytest.approx(0.19274475702175753, abs=1e-12)
    assert dec.in_safe_term == pytest.approx(0.025267153921570609, abs=1e-12)
    assert abs(dec.out_safe_term) <= 1e-15
    assert dec.total == pytest.approx(
        dec.mass_term + dec.in_safe_term + dec.out_safe_term, abs=1e-10
    )


def test_decomposition_inf_component():
    ref = SafetyReference(pv(0.5, 0.3, 0.2), (0, 1), 0.25)
    # q dies on outcome 1 inside S: the conditional in-safe term blows up
    dec = kl_safe_set_decomposition(ref, pv(0.6, 0.0, 0.4))
    assert dec.in_safe_term == math.inf
    assert dec.total == math.inf
    assert math.isfinite(dec.mass_term)


@given(q=simplex)
@settings(max_examples=120, deadline=None)
def test_decomposition_additivity(q):
    n = len(q)
    weights = [float(i + 1) for i in range(n)]
    total_w = sum(weights)
    p = [w / total_w for w in weights]
    ref = SafetyReference(pv(*p), tuple(range(max(1, n // 2))), 0.999999)
    dec = kl_safe_set_decomposition(ref, pv(*q))
    if math.isfinite(dec.total):
        assert abs(
            dec.total - (dec.mass_term + dec.in_safe_term + dec.out_safe_term)
        ) <= 1e-10
        assert abs(dec.total - kl_divergence(ref.pi_star, pv(*q))) <= 1e-10
    # the two-outcome coarsening can never exceed the refined divergence;
    # the slack is the decomposition tolerance, since the two routes round
    # their large sums independently
    assert dec.mass_term <= dec.total + 1e-10


# --- the divergences against their bodies before pi_star's side was cached --
# These are kl_divergence, cross_entropy, the conditional block term and the
# mass term as they were when every call recomputed pi_star's support, side
# masses and side support. The cached functions must give the same bits.


def _old_clamp_nonneg(value):
    if -1e-12 < value < 0.0:
        return 0.0
    return value


def _old_kl(pm, qm):
    pos = pm > 0.0
    qp = qm[pos]
    if np.any(qp == 0.0):
        return math.inf
    pp = pm[pos]
    return _old_clamp_nonneg(float(np.sum(pp * np.log(pp / qp))))


def _old_cross_entropy(pm, qm):
    pos = pm > 0.0
    qp = qm[pos]
    if np.any(qp == 0.0):
        return math.inf
    return float(-np.sum(pm[pos] * np.log(qp)))


def _old_conditional_kl_block(pm, qm, block):
    pb = pm[block]
    qb = qm[block]
    p_block = float(pb.sum())
    q_block = float(qb.sum())
    if p_block == 0.0:
        return 0.0
    if q_block == 0.0:
        return math.inf
    pos = pb > 0.0
    qp = qb[pos]
    if np.any(qp == 0.0):
        return math.inf
    pp = pb[pos]
    ratio_log = np.log(pp / qp) + math.log(q_block / p_block)
    return _old_clamp_nonneg(float(np.sum(pp * ratio_log)))


def _old_mass_term(pm, qm, smask):
    p = float(pm[smask].sum())
    q = float(qm[smask].sum())
    return binarized_kl_lower_bound(p, min(1.0, q))


def _differential_references(k):
    rng = np.random.default_rng(k)
    full = rng.dirichlet(np.ones(k))
    partial = full.copy()
    partial[1::3] = 0.0  # pi_star zeros on both sides
    subnormal = full.copy()
    subnormal[[2, k - 1]] = [5e-324, 1e-310]
    for mass in (full, partial, subnormal):
        pi = ProbVector(OutcomeSpace(k), mass / mass.sum())
        yield SafetyReference(pi, range(k // 2), 0.999)
    yield two_tier_reference(k, safe_mass=1.0)  # no pi_star mass on the unsafe side


def _differential_rows(ref, rng):
    k = ref.space.size
    safe = ref.safe_mask
    even = np.arange(k) % 2 == 0
    base = rng.dirichlet(np.ones(k))
    rows = [base, ref.pi_star.mass.copy()]
    for zero in (safe & even, ~safe & ~even, safe, ~safe):  # zeros, then a whole side
        row = base.copy()
        row[zero] = 0.0
        rows.append(row)
    row = base.copy()
    row[[0, k - 1]] = [5e-324, 2.2e-310]  # subnormal entries
    rows.append(row)
    return np.array([row / row.sum() for row in rows])


def _bits(fn, *args):
    """fn(*args) as float.hex, or the name of the ValueError it raises: the
    mass term rejects a pi_star whose safe entries sum past 1 by rounding
    (the zero-side reference at K = 1000), before and after the cache."""
    try:
        with np.errstate(over="ignore"):  # the subnormal rows overflow
            return fn(*args).hex()
    except ValueError:
        return "ValueError"


def _decomposed(term):
    return lambda ref, pt: getattr(kl_safe_set_decomposition(ref, pt), term)


_SPLIT_NAMES = ("kl_safety", "cross_entropy", "mass_term", "in_safe_term", "out_safe_term")


def test_cached_divergences_match_the_uncached_bodies_bitwise():
    rng = np.random.default_rng(8)
    probes = [resolve_probe(name) for name in _SPLIT_NAMES]
    paths = {name: set() for name in _SPLIT_NAMES}
    for k in (7, 30, 1000):
        for ref in _differential_references(k):
            pi, smask = ref.pi_star, ref.safe_mask
            stacked = _differential_rows(ref, rng)
            for i, row in enumerate(stacked):
                # an owned distribution, and a kernel-style row of a batch
                for pt in (ProbVector(ref.space, row), _wrap(ref.space, stacked[i])):
                    qm = pt.mass
                    old = [
                        _bits(_old_kl, pi.mass, qm),
                        _bits(_old_cross_entropy, pi.mass, qm),
                        _bits(_old_mass_term, pi.mass, qm, smask),
                        _bits(_old_conditional_kl_block, pi.mass, qm, smask),
                        _bits(_old_conditional_kl_block, pi.mass, qm, ~smask),
                    ]
                    direct = [_bits(kl_divergence, pi, pt), _bits(cross_entropy, pi, pt)]
                    probed = [_bits(probe.evaluator, 0, pt, None, ref) for probe in probes]
                    terms = ("total", "mass_term", "in_safe_term", "out_safe_term")
                    decomposed = [_bits(_decomposed(term), ref, pt) for term in terms]
                    assert direct == old[:2], (k, i)
                    assert probed == old, (k, i)
                    if old[2] == "ValueError":  # one raising term fails the whole split
                        assert decomposed == ["ValueError"] * 4, (k, i)
                    else:
                        assert decomposed == [old[0], *old[2:]], (k, i)
                    for name, value in zip(_SPLIT_NAMES, old):
                        paths[name].add(value == "inf")
    # every measure took both its finite and its +inf path
    assert all(seen == {True, False} for seen in paths.values())


def test_a_rewritten_wrapped_row_is_read_afresh():
    """A _wrap'ped row views an array the kernel rewrites, so no support mask
    may outlive the call that found it; an owned distribution keeps its own."""
    base = np.full((2, 3), 1.0 / 3.0)
    p = _wrap(S3, base[0])
    q = pv(0.5, 0.5, 0.0)
    assert kl_divergence(p, q) == cross_entropy(p, q) == math.inf
    base[0] = [0.5, 0.5, 0.0]
    assert kl_divergence(p, q) == 0.0
    assert cross_entropy(p, q) == cross_entropy(q, q) == math.log(2.0)
    base[0] = 1.0 / 3.0
    assert kl_divergence(p, q) == cross_entropy(p, q) == math.inf
    assert "_support" not in p.__dict__
    kl_divergence(q, p)
    assert "_support" in q.__dict__


# --- coverage ---------------------------------------------------------------


def test_coverage_frozen_example():
    ref = SafetyReference(pv(0.2, 0.3, 0.5), (1, 2), 0.5)
    res = coverage(ref, pv(0.6, 0.3, 0.1), tau=0.25)
    assert list(res.visible_set) == [0, 1]
    assert res.covered_mass == pytest.approx(0.5, abs=1e-15)


def test_coverage_tau_domain():
    ref = SafetyReference(pv(0.2, 0.3, 0.5), (1, 2), 0.5)
    with pytest.raises(ValueError):
        coverage(ref, pv(0.6, 0.3, 0.1), tau=0.0)
    with pytest.raises(ValueError):
        coverage(ref, pv(0.6, 0.3, 0.1), tau=1.5)
    full = coverage(ref, pv(0.6, 0.3, 0.1), tau=1.0)
    assert full.covered_mass == 0.0


@given(q=simplex, taus=st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0)))
@settings(max_examples=100, deadline=None)
def test_coverage_monotone_in_tau(q, taus):
    n = len(q)
    weights = [float(i + 1) for i in range(n)]
    total_w = sum(weights)
    ref = SafetyReference(
        pv(*[w / total_w for w in weights]), tuple(range(max(1, n // 2))), 0.999999
    )
    lo, hi = min(taus), max(taus)
    c_lo = coverage(ref, pv(*q), tau=lo).covered_mass
    c_hi = coverage(ref, pv(*q), tau=hi).covered_mass
    assert c_hi <= c_lo + 1e-12


# --- absence ---------------------------------------------------------------


def test_absence_frozen_values():
    res = absence_probability(0.1, 10)
    assert res.exact == pytest.approx(0.34868, abs=1e-5)
    assert res.bound == pytest.approx(0.36788, abs=1e-5)
    assert res.exact <= res.bound


def test_absence_edge_masses():
    assert absence_probability(0.0, 5).exact == 1.0
    assert absence_probability(1.0, 5).exact == 0.0
    with pytest.raises(ValueError):
        absence_probability(-0.1, 5)
    with pytest.raises(ValueError):
        absence_probability(0.5, 0)


@given(m=st.floats(0.0, 1.0), n=st.integers(1, 500))
@settings(max_examples=200, deadline=None)
def test_absence_exact_below_bound(m, n):
    res = absence_probability(m, n)
    # the inequality is exact in the reals; the slack covers pow/exp rounding
    # for near-zero m where both sides agree to ~n ulps
    assert res.exact <= res.bound + 1e-12


# --- mutual information -----------------------------------------------------


def test_mi_frozen_values():
    assert mutual_information_plugin([[0.4, 0.1], [0.1, 0.4]]) == pytest.approx(
        0.19274475702175858, abs=1e-12
    )
    assert mutual_information_plugin([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(
        math.log(2.0), abs=1e-15
    )
    assert mutual_information_plugin([[0.25, 0.25], [0.25, 0.25]]) == pytest.approx(
        0.0, abs=1e-15
    )


def test_mi_validation():
    with pytest.raises(ValueError):
        mutual_information_plugin([[0.6, 0.1], [0.1, 0.1]])  # sums to 0.9
    with pytest.raises(ValueError):
        mutual_information_plugin([[0.5, -0.1], [0.3, 0.3]])
    with pytest.raises(ValueError):
        mutual_information_plugin([0.5, 0.5])


@given(
    rows=st.integers(2, 5),
    cols=st.integers(2, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=100, deadline=None)
def test_mi_symmetry_and_entropy_cap(rows, cols, seed):
    rng = np.random.default_rng(seed)
    joint = rng.random((rows, cols)) + 1e-9
    joint /= joint.sum()
    mi = mutual_information_plugin(joint)
    mi_t = mutual_information_plugin(joint.T)
    assert mi == pytest.approx(mi_t, abs=1e-12)
    h_rows = float(-np.sum(joint.sum(1) * np.log(joint.sum(1))))
    h_cols = float(-np.sum(joint.sum(0) * np.log(joint.sum(0))))
    assert 0.0 <= mi <= min(h_rows, h_cols) + 1e-12


# --- decay estimation -------------------------------------------------------


def _synthetic_trajectory(masses, absent_flags):
    records = []
    for t, (mass, absent) in enumerate(zip(masses, absent_flags)):
        records.append(
            TrajectoryRecord(
                round=t,
                values={},
                fired=(),
                notes=(),
                monitor_mass={"a": mass},
                monitor_absent={"a": None if t == 0 else absent},
            )
        )
    agent = ProbVector(S2, [0.5, 0.5])
    return Trajectory(
        seed=0,
        probe_names=(),
        records=tuple(records),
        monitors={"a": (0,)},
        final_population=Population.equal_weights([agent]),
    )


def test_estimate_decay_recovers_exact_linear_law():
    eta, r = 0.2, 0.001
    masses = [0.5]
    for _ in range(30):
        masses.append((1.0 - eta) * masses[-1] + r)
    traj = _synthetic_trajectory(masses, [True] * len(masses))
    est = estimate_decay(traj, (0,))
    assert est.eta_hat == pytest.approx(eta, abs=1e-9)
    assert est.r_hat == pytest.approx(r, abs=1e-9)
    assert est.n_pairs == 30
    assert est.max_residual <= 1e-12


def test_estimate_decay_skips_non_absent_rounds():
    # only rounds flagged absent contribute pairs
    masses = [0.5, 0.9, 0.45, 0.9, 0.405]
    flags = [None, False, True, False, True]
    traj = _synthetic_trajectory(masses, flags)
    est = estimate_decay(traj, (0,))
    assert est.n_pairs == 2


def test_estimate_decay_needs_two_events():
    traj = _synthetic_trajectory([0.5, 0.4, 0.3], [None, True, False])
    with pytest.raises(ValueError, match="insufficient absence events"):
        estimate_decay(traj, (0,))


def test_estimate_decay_unknown_set():
    traj = _synthetic_trajectory([0.5, 0.4, 0.3], [None, True, True])
    with pytest.raises(ValueError, match="does not monitor"):
        estimate_decay(traj, (1,))


# --- probe registry ---------------------------------------------------------


def test_probe_registry_names():
    names = probe_names()
    for expected in (
        "kl_safety",
        "safe_mass",
        "internal_entropy",
        "cross_entropy",
        "coverage",
        "mass_term",
        "in_safe_term",
        "out_safe_term",
    ):
        assert expected in names


def test_probe_evaluators_agree_with_direct_calls():
    ref = two_tier_reference(10, safe_mass=0.9, safe_fraction=0.5)
    target = pv(*([0.15] * 5 + [0.05] * 5))
    agents = target.mass[None]
    for name, direct in [
        ("kl_safety", kl_divergence(ref.pi_star, target)),
        ("safe_mass", float(target.mass[:5].sum())),
        ("internal_entropy", shannon_entropy(target)),
        ("cross_entropy", cross_entropy(ref.pi_star, target)),
    ]:
        probe = resolve_probe(name)
        assert probe.evaluator(0, target, agents, ref) == pytest.approx(direct, abs=1e-12)


@given(
    q=simplex,
    frac=st.floats(min_value=0.05, max_value=0.8),
    dead=st.integers(0, 3),
    tau=st.floats(min_value=1e-3, max_value=1.0),
)
@settings(max_examples=120, deadline=None)
def test_split_probes_match_the_decomposition_bitwise(q, frac, dead, tau):
    """Each split probe computes only its own term, to the same bits; the
    coverage probe's mask sum matches the sum over the visible indices."""
    k = len(q)
    mass = np.asarray(q)
    mass[: min(dead, k - 1)] = 0.0  # zeros exercise the +inf branches
    pt = ProbVector(OutcomeSpace(k), mass / mass.sum())
    ref = two_tier_reference(k, safe_mass=0.9, safe_fraction=frac)
    dec = kl_safe_set_decomposition(ref, pt)
    for name in ("mass_term", "in_safe_term", "out_safe_term"):
        value = resolve_probe(name).evaluator(0, pt, None, ref)
        assert value == getattr(dec, name)
    result = coverage(ref, pt, tau)
    by_index = ref.pi_star.mass[list(result.visible_set)]
    expected = float(by_index.sum()) if by_index.size else 0.0
    probe = resolve_probe(f"coverage@{tau!r}").evaluator(0, pt, None, ref)
    assert probe.hex() == result.covered_mass.hex() == expected.hex()


def test_coverage_probe_matches_the_index_sum_bitwise_at_k_1000():
    # long rows with many entries under tau, where a zero-filled or BLAS sum
    # would group the additions differently
    ref = two_tier_reference(1000, safe_mass=0.95, safe_fraction=0.5)
    rng = np.random.default_rng(5)
    for row in rng.dirichlet(np.full(1000, 0.3), size=40):
        pt = ProbVector(OutcomeSpace(1000), row)
        for tau in (1e-4, 5e-4, 2e-3):
            result = coverage(ref, pt, tau)
            expected = float(ref.pi_star.mass[list(result.visible_set)].sum())
            probe = resolve_probe(f"coverage@{tau!r}").evaluator(0, pt, None, ref)
            assert probe.hex() == result.covered_mass.hex() == expected.hex()


def test_coverage_probe_tau_forms():
    ref = two_tier_reference(10, safe_mass=0.9, safe_fraction=0.5)
    target = pv(*([0.15] * 5 + [0.05] * 5))
    agents = target.mass[None]
    named = resolve_probe("coverage@0.1")
    assert named.name == "coverage@0.1"
    expected = coverage(ref, target, tau=0.1).covered_mass
    assert named.evaluator(0, target, agents, ref) == pytest.approx(expected, abs=1e-15)
    defaulted = resolve_probe("coverage", default_tau=0.1)
    assert defaulted.evaluator(0, target, agents, ref) == pytest.approx(
        expected, abs=1e-15
    )


def test_unknown_probe_rejected():
    with pytest.raises(ConfigError):
        resolve_probe("no_such_probe")
    with pytest.raises(ConfigError):
        resolve_probes(("kl_safety", "bogus"))
