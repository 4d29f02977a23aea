import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftlab.oracle as oracle_mod
from driftlab.core import OutcomeSpace, ProbVector
from driftlab.evolution import (
    UpdateRule,
    _counts,
    make_rng,
    sample_dataset,
    update_agents,
)
from driftlab.metrics import (
    cross_entropy,
    kl_divergence,
    mutual_information_plugin,
    shannon_entropy,
)
from driftlab.oracle import (
    LemmaReport,
    exact_expected_next_mass,
    oracle_cross_entropy,
    oracle_entropy,
    oracle_kl,
    oracle_mutual_information,
    run_all_lemma_checks,
    sample_simplex,
    verify_absence_bound,
    verify_dpi,
    verify_grouping_bound,
    verify_identity_lemmas,
)


def pv(*mass):
    return ProbVector(OutcomeSpace(len(mass)), list(mass))


# --- pure-python reference math ------------------------------------------------


def test_sample_simplex_is_a_valid_interior_point():
    rng = random.Random(4)
    for size in (2, 3, 17, 100):
        p = sample_simplex(size, rng)
        assert len(p) == size
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)
        assert min(p) > 0.0


def test_sample_simplex_deterministic_per_seed():
    a = sample_simplex(8, random.Random(12))
    b = sample_simplex(8, random.Random(12))
    assert a == b


def test_dual_routes_agree_on_random_distributions():
    """The fsum oracles and the numpy implementations must match to 1e-12."""
    rng = random.Random(11)
    for _ in range(50):
        size = rng.randint(2, 25)
        p = sample_simplex(size, rng)
        q = sample_simplex(size, rng)
        space = OutcomeSpace(size)
        p_vec, q_vec = ProbVector(space, p), ProbVector(space, q)
        assert kl_divergence(p_vec, q_vec) == pytest.approx(oracle_kl(p, q), abs=1e-12)
        assert cross_entropy(p_vec, q_vec) == pytest.approx(
            oracle_cross_entropy(p, q), abs=1e-12
        )
        assert shannon_entropy(p_vec) == pytest.approx(oracle_entropy(p), abs=1e-12)


def test_dual_routes_agree_on_mutual_information():
    rng = random.Random(13)
    for _ in range(30):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        joint = [[rng.random() for _ in range(cols)] for _ in range(rows)]
        total = math.fsum(v for row in joint for v in row)
        joint = [[v / total for v in row] for row in joint]
        assert mutual_information_plugin(np.array(joint)) == pytest.approx(
            oracle_mutual_information(joint), abs=1e-12
        )


def test_oracle_kl_support_escape_is_infinite():
    assert oracle_kl([0.5, 0.5], [1.0, 0.0]) == math.inf
    assert oracle_cross_entropy([0.5, 0.5], [1.0, 0.0]) == math.inf
    # zero p entries contribute nothing even against zero q
    assert oracle_kl([1.0, 0.0], [1.0, 0.0]) == 0.0


def test_oracle_kl_stays_finite_where_p_over_q_overflows():
    # p/q reaches 5e310 here, past the float range; KL = CE - H must hold to
    # a relative 1e-12, the lemma battery's identity tolerance
    p = [0.5, 0.25, 0.25]
    q = [1.0 - 2e-311, 1e-311, 1e-311]
    kl = oracle_kl(p, q)
    assert math.isfinite(kl)
    assert kl == pytest.approx(oracle_cross_entropy(p, q) - oracle_entropy(p), rel=1e-12, abs=0.0)


def test_oracle_mutual_information_stays_finite_where_the_margins_product_underflows():
    # the margins' product 1e-200 * 1e-200 underflows to 0 here; the MI of a
    # diagonal joint is the entropy of its margin, to a relative 1e-12, the
    # lemma battery's identity tolerance
    tiny = 1e-200
    mi = oracle_mutual_information([[tiny, 0.0], [0.0, 1.0 - tiny]])
    assert mi == pytest.approx(oracle_entropy([tiny, 1.0 - tiny]), rel=1e-12, abs=0.0)


# --- lemma verification drivers --------------------------------------------------


def test_all_lemma_checks_pass():
    reports = run_all_lemma_checks(seed=0, trials=50)
    assert {r.name for r in reports} == {
        "cross-entropy-identity",
        "divergence-dual-route",
        "safe-split-additivity",
        "grouping-lower-bound",
        "information-post-processing",
        "absence-probability-bound",
    }
    for rep in reports:
        assert rep.passed, rep.line()


def test_trial_count_threads_through():
    reports = run_all_lemma_checks(seed=5, trials=5)
    randomized = [r for r in reports if r.name != "absence-probability-bound"]
    assert all(r.trials == 5 for r in randomized)


def test_individual_verifiers_pass_on_small_budgets():
    assert all(r.passed for r in verify_identity_lemmas(trials=30, seed=9))
    assert verify_grouping_bound(trials=60, seed=10).passed
    assert verify_dpi(trials=30, seed=11).passed
    report = verify_absence_bound(mc_trials=2000, seed=12)
    assert report.passed
    assert "plausible_accidental_absence_points=" in report.details


def test_report_line_format():
    line = LemmaReport("demo", 10, 1.5e-13, 1e-12, True).line()
    assert line.startswith("demo: ok")
    assert "trials=10" in line and "max_violation=1.500e-13" in line
    assert "FAILED" in LemmaReport("demo", 10, 1.0, 1e-12, False).line()


def test_corrupted_divergence_is_caught():
    """The dual-route check must actually have teeth: poison one route."""
    real = oracle_mod.kl_divergence
    try:
        oracle_mod.kl_divergence = lambda p, q: real(p, q) + 0.01
        reports = {r.name: r for r in oracle_mod.verify_identity_lemmas(trials=20, seed=0)}
    finally:
        oracle_mod.kl_divergence = real
    assert not reports["divergence-dual-route"].passed
    # the pure-oracle identity never touches the poisoned route
    assert reports["cross-entropy-identity"].passed


# --- exact one-step expectation ---------------------------------------------------


def test_expected_next_mass_smoothed_frozen_example():
    # two outcomes, four draws, lambda 1, monitored mass 0.25:
    # E[(C + 1) / 6] with C ~ Bin(4, 1/4) gives 1/3; absence is (3/4)^4
    res = exact_expected_next_mass(
        pv(0.75, 0.25), (1,), 4, UpdateRule("smoothed-mle", lam=1.0)
    )
    assert res.unconditional == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert res.conditional_on_absence == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert res.absence_probability == 0.31640625


def test_expected_next_mass_mle_is_martingale():
    res = exact_expected_next_mass(pv(0.75, 0.25), (1,), 7, UpdateRule("mle"))
    assert res.unconditional == 0.25
    assert res.conditional_on_absence == 0.0
    assert res.absence_probability == pytest.approx(0.75**7, abs=1e-15)


def test_expected_next_mass_validation():
    with pytest.raises(ValueError):
        exact_expected_next_mass(pv(0.5, 0.5), (0,), 0, UpdateRule("mle"))
    with pytest.raises(ValueError, match="no closed form"):
        exact_expected_next_mass(pv(0.5, 0.5), (0,), 4, UpdateRule("memory-buffer", capacity=8))


@given(
    raw=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
    n=st.integers(1, 12),
    lam=st.floats(0.1, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_expected_next_mass_matches_linear_form(raw, n, lam):
    """The binomial enumeration must reduce to (n m + lam |A|) / (n + lam K)."""
    total = sum(raw)
    pt = pv(*[x / total for x in raw])
    idx = (0,)
    m = float(pt.mass[0])
    res = exact_expected_next_mass(pt, idx, n, UpdateRule("smoothed-mle", lam=lam))
    closed = (n * m + lam * 1) / (n + lam * pt.space.size)
    assert res.unconditional == pytest.approx(closed, abs=1e-12)


def test_expected_next_mass_monte_carlo_replay():
    """One-step simulation agrees with the closed form within sampling error."""
    pt = pv(0.75, 0.25)
    rule = UpdateRule("smoothed-mle", lam=1.0)
    res = exact_expected_next_mass(pt, (1,), 4, rule)
    reps = 10_000
    # one generator for every replicate draws as reps calls in turn would
    data = sample_dataset(np.tile(pt.mass, (reps, 1)), 4, [make_rng(5)] * reps)
    fitted = update_agents(rule, *_counts(data.ravel(), np.full(reps, 4), 2))
    masses = fitted[:, 1]
    absent = ~np.any(data == 1, axis=1)
    assert abs(float(masses.mean()) - res.unconditional) < 0.006
    assert abs(float(absent.mean()) - res.absence_probability) < 0.02
    # conditional on absence the smoothed update is deterministic
    np.testing.assert_allclose(masses[absent], res.conditional_on_absence, atol=1e-15)
