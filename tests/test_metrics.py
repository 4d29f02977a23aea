import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftlab.core import OutcomeSpace, ProbVector, SafetyReference, two_tier_reference
from driftlab.errors import ConfigError
from driftlab.evolution import Trajectory
from driftlab.metrics import (
    _row_sums,
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
)

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
    old mass term rejects a pi_star whose safe entries sum past 1 by rounding
    (the zero-side reference at K = 1000)."""
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
            pts = [ProbVector(ref.space, row) for row in _differential_rows(ref, rng)]
            # the registry probes read the rows as a chunk of seeds
            stacked = np.array([pt.mass for pt in pts])
            with np.errstate(over="ignore"):  # the subnormal rows overflow
                chunk = [probe.evaluator(0, stacked, None, ref) for probe in probes]
            for i, pt in enumerate(pts):
                qm = pt.mass
                old = [
                    _bits(_old_kl, pi.mass, qm),
                    _bits(_old_cross_entropy, pi.mass, qm),
                    _bits(_old_mass_term, pi.mass, qm, smask),
                    _bits(_old_conditional_kl_block, pi.mass, qm, smask),
                    _bits(_old_conditional_kl_block, pi.mass, qm, ~smask),
                ]
                direct = [_bits(kl_divergence, pi, pt), _bits(cross_entropy, pi, pt)]
                probed = [float(values[i]).hex() for values in chunk]
                terms = ("total", "mass_term", "in_safe_term", "out_safe_term")
                decomposed = [_bits(_decomposed(term), ref, pt) for term in terms]
                if old[2] == "ValueError":
                    # pi_star's safe entries sum past 1 by rounding (the
                    # zero-side reference at K = 1000): the old body
                    # raises, the mass term clamps that sum to 1 as it
                    # clamps pt's
                    assert k == 1000 and float(pi.mass[smask].sum()) > 1.0, (k, i)
                    q = min(1.0, float(qm[smask].sum()))
                    old[2] = _bits(binarized_kl_lower_bound, 1.0, q)
                assert direct == old[:2], (k, i)
                assert probed == old, (k, i)
                assert decomposed == [old[0], *old[2:]], (k, i)
                for name, value in zip(_SPLIT_NAMES, old):
                    paths[name].add(value == "inf")
    # every measure took both its finite and its +inf path
    assert all(seen == {True, False} for seen in paths.values())


# --- the reach's width against pi_star's support --------------------------
# A registry divergence body reads only the width C of a chunk on the reach:
# below the size of the support its sums run over, every row is +inf; at
# any other width the dense rows decide, each row alone.

_WIDTH_K = 10
_WIDTH_REF = SafetyReference(
    ProbVector(OutcomeSpace(_WIDTH_K), [0.5, 0, 0, 0.3, 0, 0, 0, 0.2, 0, 0]), (0, 3), 0.25
)
_WIDTH_CHUNKS = {
    # width 3, the support's size
    "support": (
        [[0, 3, 7], [0, 3, _WIDTH_K], [0, 3, 7]],
        [[0.2, 0.5, 0.3], [0.4, 0.6, 0.0], [0.4, 0.6, 0.0]],
    ),
    # width 2, below the support and equal to the safe side's
    "safe side": ([[0, 3], [0, 7]], [[0.5, 0.5], [0.9, 0.1]]),
}


@pytest.mark.parametrize("chunk", _WIDTH_CHUNKS)
def test_a_divergence_body_on_the_reach_reads_each_dense_row_alone(chunk):
    # rows: the reach exactly the support, a padded row that misses outcome 7
    # and a row that holds 7 at pt = 0.0; then a chunk narrower than the
    # support that still spans the safe side's support, or misses part of it
    index, pt = (np.array(x) for x in _WIDTH_CHUNKS[chunk])
    wide = np.zeros((len(index), _WIDTH_K + 1))
    wide[np.arange(len(index))[:, None], index] = pt
    dense = wide[:, :_WIDTH_K]
    alone = [ProbVector(_WIDTH_REF.space, row) for row in dense]
    public = {
        "kl_safety": lambda q: kl_divergence(_WIDTH_REF.pi_star, q),
        "cross_entropy": lambda q: cross_entropy(_WIDTH_REF.pi_star, q),
        "in_safe_term": lambda q: kl_safe_set_decomposition(_WIDTH_REF, q).in_safe_term,
        "out_safe_term": lambda q: kl_safe_set_decomposition(_WIDTH_REF, q).out_safe_term,
    }
    finite = {}
    for name, fn in public.items():
        probe = resolve_probe(name)
        on_reach = probe._body(pt, index, dense, _WIDTH_REF)
        assert on_reach.tobytes() == probe.evaluator(0, dense, None, _WIDTH_REF).tobytes(), name
        assert [v.hex() for v in on_reach.tolist()] == [fn(q).hex() for q in alone], name
        finite[name] = np.isfinite(on_reach).tolist()
    # at the support's width the exact row stays finite
    if chunk == "support":
        assert finite["kl_safety"] == [True, False, False]
        assert finite["in_safe_term"] == [True, True, True]
    else:
        assert finite["kl_safety"] == [False, False]
        assert finite["in_safe_term"] == [True, False]


# --- every registry probe on a chunk's rows, against each row alone --------
# A probe reads the (S, K) rows of a chunk in one call. Each row's value must
# carry the bits of the public function on that row alone and, where the
# measure has no public function or is a plain expression, of the 1-D
# expression the probes used before they read rows.


def _old_entropy(qm):
    pos = qm[qm > 0.0]
    return _old_clamp_nonneg(float(-np.sum(pos * np.log(pos))))


def _rows_references(k):
    rng = np.random.default_rng(100 + k)
    space = OutcomeSpace(k)
    full = rng.dirichlet(np.ones(k))
    zeros = full.copy()
    zeros[1::3] = 0.0  # pi_star zeros on both sides once K > 4
    for mass in (full, zeros):
        pi = ProbVector(space, mass / mass.sum())
        # a safe set that is one run of columns, and one that is not
        yield SafetyReference(pi, range(max(1, k // 2)), 0.999)
        yield SafetyReference(pi, range(0, k - 1, 2), 0.999)
    yield two_tier_reference(k, safe_mass=1.0)  # no pi_star mass on the unsafe side


def _rows_chunk(ref, s_rows, rng):
    """s_rows distributions on ref's space, cycling through full support,
    scattered zeros, subnormal entries, a dead safe or unsafe side, a point
    mass and pi_star itself."""
    k = ref.space.size
    pts = []
    for i in range(s_rows):
        row = rng.dirichlet(np.full(k, 0.5))
        kind = i % 7
        if kind == 1:
            row[rng.random(k) < 0.4] = 0.0
        elif kind == 2:
            row[rng.integers(0, k, size=2)] = [5e-324, 2.2e-310]
        elif kind in (3, 4):
            row[ref.safe_mask if kind == 3 else ~ref.safe_mask] = 0.0
        elif kind == 5:
            row[:] = 0.0
            row[rng.integers(0, k)] = 1.0
        elif kind == 6:
            row = ref.pi_star.mass.copy()
        if row.sum() == 0.0:
            row[0] = 1.0
        pts.append(ProbVector(ref.space, row / row.sum()))
    return pts


_TAUS = (1e-3, 0.2)


def _alone(ref, pt):
    """Each registry probe's value on pt through the public functions."""
    pi = ref.pi_star
    dec = kl_safe_set_decomposition(ref, pt)
    covered = [coverage(ref, pt, tau).covered_mass for tau in _TAUS]
    return {
        "kl_safety": kl_divergence(pi, pt),
        "safe_mass": float(pt.mass[ref.safe_mask].sum()),
        "internal_entropy": shannon_entropy(pt),
        "cross_entropy": cross_entropy(pi, pt),
        "mass_term": dec.mass_term,
        "in_safe_term": dec.in_safe_term,
        "out_safe_term": dec.out_safe_term,
        **{f"coverage@{tau!r}": c for tau, c in zip(_TAUS, covered)},
    }


@pytest.mark.parametrize("s_rows", (1, 2, 33))
@pytest.mark.parametrize("k", (2, 7, 1000))
def test_every_probe_reads_a_chunks_rows_as_each_row_alone_bitwise(s_rows, k):
    # K = 1 has no outcome space (two outcomes at least), so K = 2 stands for it
    rng = np.random.default_rng(s_rows * 10_000 + k)
    names = [n for n in probe_names() if n != "coverage"] + [f"coverage@{t!r}" for t in _TAUS]
    probes = resolve_probes(names)
    seen_inf = set()
    for ref in _rows_references(k):
        pts = _rows_chunk(ref, s_rows, rng)
        rows = np.array([pt.mass for pt in pts])
        rows.setflags(write=False)
        with np.errstate(over="ignore"):  # pi_star over a subnormal entry overflows
            chunk = {p.name: p.evaluator(0, rows, None, ref) for p in probes}
            alone = [_alone(ref, pt) for pt in pts]
        for name in names:
            assert chunk[name].shape == (s_rows,), name
            expected = np.array([values[name] for values in alone])
            assert np.array_equal(chunk[name].view(np.int64), expected.view(np.int64)), name
            seen_inf.update(name for value in chunk[name] if value == math.inf)
        # the measures that are plain expressions, as the probes wrote them
        old = {
            "safe_mass": [float(pt.mass[ref.safe_mask].sum()) for pt in pts],
            "internal_entropy": [_old_entropy(pt.mass) for pt in pts],
            **{
                f"coverage@{tau!r}": [float(ref.pi_star.mass[pt.mass >= tau].sum()) for pt in pts]
                for tau in _TAUS
            },
        }
        for name, values in old.items():
            assert np.array_equal(chunk[name].view(np.int64), np.array(values).view(np.int64))
    if s_rows > 4:  # the rows took the +inf path of every divergence
        assert {"kl_safety", "cross_entropy", "in_safe_term"} <= seen_inf


# --- a chunk's row sums, against each row's 1-D sum ------------------------
# _row_sums packs each row's run of values to the front of a zero row and
# sums every row in one masked reduction. Each row must get the bits of the
# 1-D sum of its run, the per-row loop it replaced, at the lengths where the
# pairwise sum changes its blocking (8, 128, 8192) and around them.

_RUN_LENGTHS = (0, 1, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1000, 8193)


@given(
    lengths=st.lists(st.sampled_from(_RUN_LENGTHS), min_size=1, max_size=6),
    spare=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(lengths=[8193], spare=0, seed=0)  # a one-row chunk
@example(lengths=[0, 129, 0, 8193, 1], spare=3, seed=1)  # empty rows among long ones
@settings(max_examples=100, deadline=None)
def test_row_sums_give_each_row_the_bits_of_its_own_sum(lengths, spare, seed):
    rng = np.random.default_rng(seed)
    k = max(lengths) + spare + 1
    at = np.concatenate(
        [s * k + np.sort(rng.choice(k, n, replace=False)) for s, n in enumerate(lengths)]
    ).astype(np.int64)
    # signs and magnitudes mixed, so that the order of the adds shows in the bits
    values = rng.standard_normal(at.size) * 10.0 ** rng.integers(-8, 9, at.size)
    ends = np.cumsum(lengths)
    expected = np.array([float(values[a:b].sum()) for a, b in zip(ends - lengths, ends)])
    got = _row_sums(values, at, (len(lengths), k))
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_entropy_and_coverage_on_a_top_mass_reach_read_each_row_alone():
    # a reach of C columns per row, sorted and padded with the sink K, where
    # top-mass kept each row's k heaviest entries: the positive entries sit
    # between zeros, not at the front of the row
    rng = np.random.default_rng(30)
    k_space, c, top = 400, 150, 40
    ref = SafetyReference(
        ProbVector(OutcomeSpace(k_space), rng.dirichlet(np.ones(k_space))), range(200), 0.9
    )
    widths = (150, 3, 90, 30, 1, 149, 13)
    index = np.full((len(widths), c), k_space)
    pt = np.zeros((len(widths), c))
    for s, w in enumerate(widths):
        index[s, :w] = np.sort(rng.choice(k_space, w, replace=False))
        row = rng.dirichlet(np.full(w, 0.3))
        row[np.argsort(-row, kind="stable")[top:]] = 0.0
        pt[s, :w] = row / row.sum()
    assert any(0.0 in row[: np.flatnonzero(row)[-1]] for row in pt)  # zeros between
    wide = np.zeros((len(widths), k_space + 1))
    wide[np.arange(len(widths))[:, None], index] = pt
    dense = wide[:, :k_space]
    alone = [ProbVector(ref.space, row) for row in dense]
    public = {
        "internal_entropy": shannon_entropy,
        "coverage@0.001": lambda q: coverage(ref, q, 0.001).covered_mass,
        "coverage@0.05": lambda q: coverage(ref, q, 0.05).covered_mass,
    }
    for name, fn in public.items():
        probe = resolve_probe(name)
        on_reach = probe._body(pt, index, dense, ref)
        assert on_reach.tobytes() == probe.evaluator(0, dense, None, ref).tobytes(), name
        assert [v.hex() for v in on_reach.tolist()] == [fn(q).hex() for q in alone], name


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
    # a None flag reads False; estimate_decay never reads round 0's flag
    return Trajectory(
        seed=0,
        probe_names=(),
        rounds=len(masses) - 1,
        values={},
        monitors={"a": (0,)},
        monitor_mass={"a": np.array(masses, dtype=np.float64)},
        monitor_absent={"a": np.array(absent_flags, dtype=bool)},
        fired=(),
        notes=(),
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
    rows, agents = target.mass[None], target.mass[None, None]
    for name, direct in [
        ("kl_safety", kl_divergence(ref.pi_star, target)),
        ("safe_mass", float(target.mass[:5].sum())),
        ("internal_entropy", shannon_entropy(target)),
        ("cross_entropy", cross_entropy(ref.pi_star, target)),
    ]:
        probe = resolve_probe(name)
        (value,) = probe.evaluator(0, rows, agents, ref)
        assert value == pytest.approx(direct, abs=1e-12)


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
        (value,) = resolve_probe(name).evaluator(0, pt.mass[None], None, ref)
        assert value == getattr(dec, name)
    result = coverage(ref, pt, tau)
    by_index = ref.pi_star.mass[list(result.visible_set)]
    expected = float(by_index.sum()) if by_index.size else 0.0
    (probe,) = resolve_probe(f"coverage@{tau!r}").evaluator(0, pt.mass[None], None, ref)
    assert float(probe).hex() == result.covered_mass.hex() == expected.hex()


def test_coverage_probe_matches_the_index_sum_bitwise_at_k_1000():
    # long rows with many entries under tau, where a zero-filled or BLAS sum
    # would group the additions differently
    ref = two_tier_reference(1000, safe_mass=0.95, safe_fraction=0.5)
    rng = np.random.default_rng(5)
    rows = rng.dirichlet(np.full(1000, 0.3), size=40)
    pts = [ProbVector(OutcomeSpace(1000), row) for row in rows]
    rows = np.array([pt.mass for pt in pts])
    for tau in (1e-4, 5e-4, 2e-3):
        probed = resolve_probe(f"coverage@{tau!r}").evaluator(0, rows, None, ref)
        for pt, probe in zip(pts, probed):
            result = coverage(ref, pt, tau)
            expected = float(ref.pi_star.mass[list(result.visible_set)].sum())
            assert float(probe).hex() == result.covered_mass.hex() == expected.hex()


def test_coverage_probe_tau_forms():
    ref = two_tier_reference(10, safe_mass=0.9, safe_fraction=0.5)
    target = pv(*([0.15] * 5 + [0.05] * 5))
    rows, agents = target.mass[None], target.mass[None, None]
    named = resolve_probe("coverage@0.1")
    assert named.name == "coverage@0.1"
    expected = coverage(ref, target, tau=0.1).covered_mass
    assert named.evaluator(0, rows, agents, ref) == pytest.approx([expected], abs=1e-15)
    defaulted = resolve_probe("coverage", default_tau=0.1)
    assert defaulted.evaluator(0, rows, agents, ref) == pytest.approx(
        [expected], abs=1e-15
    )


def test_a_registry_name_resolves_to_an_equal_probe():
    # equal probes with equal hashes, as a set or dict key of them needs
    for name in probe_names():
        if name != "coverage":
            assert resolve_probe(name) == resolve_probe(name)
            assert hash(resolve_probe(name)) == hash(resolve_probe(name))


def test_unknown_probe_rejected():
    with pytest.raises(ConfigError):
        resolve_probe("no_such_probe")
    with pytest.raises(ConfigError):
        resolve_probes(("kl_safety", "bogus"))
