"""Independent reference implementations and exhaustive checks.

Everything in here recomputes quantities from first principles in pure
Python (math.fsum accumulation, stdlib random, exact integer binomials) so
that agreement with the numpy implementations in metrics.py is evidence,
not tautology. Keep it that way: do not "simplify" an oracle by calling the
code it is supposed to check, except where a check is explicitly a
cross-implementation comparison.

Checks provided:
  verify_identity_lemmas   cross-entropy = entropy + divergence, the numpy
                           divergence against the fsum one, and additivity of
                           the three-term safe-split decomposition
  verify_grouping_bound    two-outcome coarsening never exceeds the full
                           divergence (degenerate full-space groupings
                           included)
  verify_dpi               post-processing through a random channel never
                           gains information about the source
  verify_absence_bound     (1-m)^n <= exp(-n m) over a dense grid, plus a
                           Monte Carlo replay of the exact probability
  exact_expected_next_mass closed-form expectation of a monitored set's mass
                           after one update, by binomial enumeration
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import OutcomeSpace, ProbVector, SafetyReference, mass_of_set
from .errors import ConfigError
from .evolution import UpdateRule
from .metrics import (
    binarized_kl_lower_bound,
    kl_divergence,
    kl_safe_set_decomposition,
    mutual_information_plugin,
)

IDENTITY_TOL = 1e-12
DECOMPOSITION_TOL = 1e-10
DPI_SLACK = 1e-12
SIGNIFICANT_ABSENCE = 0.3


# ---------------------------------------------------------------------------
# pure-Python reference math


def oracle_kl(p: Sequence[float], q: Sequence[float]) -> float:
    """Divergence sum(p (ln p - ln q)) accumulated with fsum, each log taken
    alone so a ratio p/q past the float range stays finite; inf on support escape."""
    terms = []
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        terms.append(pi * (math.log(pi) - math.log(qi)))
    return math.fsum(terms)


def oracle_entropy(p: Sequence[float]) -> float:
    return -math.fsum(pi * math.log(pi) for pi in p if pi > 0.0)


def oracle_cross_entropy(p: Sequence[float], q: Sequence[float]) -> float:
    terms = []
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        terms.append(-pi * math.log(qi))
    return math.fsum(terms)


def oracle_mutual_information(joint: Sequence[Sequence[float]]) -> float:
    rows = [math.fsum(row) for row in joint]
    cols = [math.fsum(joint[i][j] for i in range(len(joint))) for j in range(len(joint[0]))]
    terms = []
    for i, row in enumerate(joint):
        for j, v in enumerate(row):
            if v > 0.0:
                terms.append(v * (math.log(v) - math.log(rows[i]) - math.log(cols[j])))
    return math.fsum(terms)


def sample_simplex(size: int, rng: random.Random, floor: float = 1e-9) -> list[float]:
    """Uniform-ish interior point of the simplex via exponential spacings.

    The floor keeps every coordinate strictly positive so divergences in the
    identity checks stay finite; the result is renormalized exactly with fsum.
    """
    draws = [-math.log(1.0 - rng.random()) for _ in range(size)]
    total = math.fsum(draws)
    raw = [max(d / total, floor) for d in draws]
    total = math.fsum(raw)
    return [r / total for r in raw]


# ---------------------------------------------------------------------------
# lemma verification drivers


@dataclass(frozen=True)
class LemmaReport:
    name: str
    trials: int
    max_violation: float
    tolerance: float
    passed: bool
    details: str = ""

    def line(self) -> str:
        status = "ok" if self.passed else "FAILED"
        extra = f" ({self.details})" if self.details else ""
        return (
            f"{self.name}: {status}  trials={self.trials}"
            f"  max_violation={self.max_violation:.3e}  tol={self.tolerance:.0e}{extra}"
        )


def _random_reference(size: int, rng: random.Random) -> tuple[SafetyReference, ProbVector]:
    """A random reference (random proper safe subset, epsilon fit to it) and a
    second random distribution to play the drifted one."""
    space = OutcomeSpace(size)
    pi = sample_simplex(size, rng)
    q = sample_simplex(size, rng)
    n_safe = rng.randint(1, size - 1)
    safe = sorted(rng.sample(range(size), n_safe))
    safe_mass = math.fsum(pi[z] for z in safe)
    eps = min(1.0 - 1e-12, max(1e-12, 1.0 - safe_mass + 1e-9))
    ref = SafetyReference(ProbVector(space, pi), tuple(safe), eps)
    return ref, ProbVector(space, q)


def verify_identity_lemmas(trials: int = 200, seed: int = 0) -> list[LemmaReport]:
    """Entropy identity, dual-route divergence agreement, split additivity."""
    rng = random.Random(seed)
    worst_identity = 0.0
    worst_cross = 0.0
    worst_split = 0.0
    for _ in range(trials):
        size = rng.randint(2, 30)
        ref, qv = _random_reference(size, rng)
        p = list(ref.pi_star.mass)
        q = list(qv.mass)

        lhs = oracle_cross_entropy(p, q)
        rhs = oracle_entropy(p) + oracle_kl(p, q)
        worst_identity = max(worst_identity, abs(lhs - rhs))

        worst_cross = max(worst_cross, abs(kl_divergence(ref.pi_star, qv) - oracle_kl(p, q)))

        dec = kl_safe_set_decomposition(ref, qv)
        split_sum = dec.mass_term + dec.in_safe_term + dec.out_safe_term
        worst_split = max(worst_split, abs(dec.total - split_sum))
        worst_split = max(worst_split, abs(dec.total - oracle_kl(p, q)))
    return [
        LemmaReport(
            "cross-entropy-identity", trials, worst_identity, IDENTITY_TOL,
            worst_identity <= IDENTITY_TOL,
        ),
        LemmaReport(
            "divergence-dual-route", trials, worst_cross, IDENTITY_TOL,
            worst_cross <= IDENTITY_TOL,
        ),
        LemmaReport(
            "safe-split-additivity", trials, worst_split, DECOMPOSITION_TOL,
            worst_split <= DECOMPOSITION_TOL,
        ),
    ]


def verify_grouping_bound(trials: int = 500, seed: int = 1) -> LemmaReport:
    """Binarized (in-set vs out-of-set) divergence never exceeds the full one.

    Works on raw (p, q, subset) triples so the degenerate full-space and
    empty groupings are exercised too; those collapse the bound to zero.
    """
    rng = random.Random(seed)
    worst = -math.inf
    for t in range(trials):
        size = rng.randint(2, 40)
        p = sample_simplex(size, rng)
        q = sample_simplex(size, rng)
        if t % 25 == 0:
            subset = list(range(size))  # degenerate: everything is "in"
        elif t % 25 == 1:
            subset = []
        else:
            subset = rng.sample(range(size), rng.randint(1, size - 1))
        pm = min(1.0, math.fsum(p[z] for z in subset))
        qm = min(1.0, math.fsum(q[z] for z in subset))
        gap = binarized_kl_lower_bound(pm, qm) - oracle_kl(p, q)
        worst = max(worst, gap)
    return LemmaReport(
        "grouping-lower-bound", trials, worst, DPI_SLACK, worst <= DPI_SLACK
    )


def _random_channel(n_in: int, n_out: int, rng: random.Random) -> list[list[float]]:
    return [sample_simplex(n_out, rng) for _ in range(n_in)]


def verify_dpi(trials: int = 1000, seed: int = 2) -> LemmaReport:
    """I(source; post-channel) <= I(source; pre-channel) on random chains.

    Builds source -> state -> next-state joints explicitly, computes both
    informations with the fsum oracle, and also checks the numpy plug-in
    estimator agrees with the oracle on every joint.
    """
    rng = random.Random(seed)
    worst_gap = -math.inf
    worst_agree = 0.0
    for _ in range(trials):
        a, b, c = 5, 5, 5
        p_src = sample_simplex(a, rng)
        ch1 = _random_channel(a, b, rng)
        ch2 = _random_channel(b, c, rng)
        joint_t = [[p_src[i] * ch1[i][j] for j in range(b)] for i in range(a)]
        joint_t1 = [
            [math.fsum(joint_t[i][j] * ch2[j][k] for j in range(b)) for k in range(c)]
            for i in range(a)
        ]
        i_t = oracle_mutual_information(joint_t)
        i_t1 = oracle_mutual_information(joint_t1)
        worst_gap = max(worst_gap, i_t1 - i_t)
        worst_agree = max(
            worst_agree,
            abs(mutual_information_plugin(joint_t) - i_t),
            abs(mutual_information_plugin(joint_t1) - i_t1),
        )
    passed = worst_gap <= DPI_SLACK and worst_agree <= IDENTITY_TOL
    return LemmaReport(
        "information-post-processing", trials, worst_gap, DPI_SLACK, passed,
        details=f"estimator_agreement={worst_agree:.3e}",
    )


def verify_absence_bound(mc_trials: int = 100_000, seed: int = 3) -> LemmaReport:
    """(1-m)^n <= exp(-n m) on a dense grid, plus Monte Carlo confirmation.

    The grid covers m in {0, 0.01, ..., 1} crossed with n in {1, ..., 100}.
    A few grid points are replayed by direct simulation; the empirical
    absence frequency must land within 3 standard errors of the exact value.
    Grid points where the exact probability exceeds 0.3 are counted as
    "plausible accidental absence" cases (absence alone proves little there).
    """
    worst = -math.inf
    significant = 0
    for mi in range(101):
        m = mi / 100.0
        for n in range(1, 101):
            exact = (1.0 - m) ** n
            bound = math.exp(-n * m)
            worst = max(worst, exact - bound)
            if exact > SIGNIFICANT_ABSENCE:
                significant += 1
    rng = random.Random(seed)
    mc_ok = True
    mc_notes = []
    for m, n in ((0.1, 10), (0.05, 20), (0.3, 3)):
        exact = (1.0 - m) ** n
        hits = sum(
            1 for _ in range(mc_trials) if all(rng.random() >= m for _ in range(n))
        )
        est = hits / mc_trials
        sigma = math.sqrt(exact * (1.0 - exact) / mc_trials)
        if abs(est - exact) > 3.0 * sigma:
            mc_ok = False
            mc_notes.append(f"mc({m},{n})={est:.5f} vs {exact:.5f}")
    passed = worst <= DPI_SLACK and mc_ok
    details = f"plausible_accidental_absence_points={significant}"
    if mc_notes:
        details += "; " + "; ".join(mc_notes)
    return LemmaReport(
        "absence-probability-bound", 101 * 100 + 3 * mc_trials, worst, DPI_SLACK,
        passed, details=details,
    )


def run_all_lemma_checks(seed: int = 0, trials: int | None = None) -> list[LemmaReport]:
    """Every lemma verifier on seeds seed..seed+3.

    trials overrides each check's randomized-trial count; the absence check
    keeps its fixed grid and gets 100x trials of Monte Carlo replay.
    """
    if trials is not None and trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    kw = {} if trials is None else {"trials": trials}
    reports = list(verify_identity_lemmas(seed=seed, **kw))
    reports.append(verify_grouping_bound(seed=seed + 1, **kw))
    reports.append(verify_dpi(seed=seed + 2, **kw))
    mc = {} if trials is None else {"mc_trials": max(1000, 100 * trials)}
    reports.append(verify_absence_bound(seed=seed + 3, **mc))
    return reports


# ---------------------------------------------------------------------------
# exact one-step expectation for monitored sets


class ExpectedNextMass(NamedTuple):
    unconditional: float
    conditional_on_absence: float
    absence_probability: float


def exact_expected_next_mass(
    pt: ProbVector, indices, n: int, rule: UpdateRule
) -> ExpectedNextMass:
    """Expected mass a monitored set carries after one shared-dataset update.

    For count-based rules the next mass depends on the draw only through the
    number of samples landing in the set, which is binomial; grouping the
    multinomial this way is exact, so the expectation is an exact finite sum
    with integer binomial coefficients. Available for the mle and
    smoothed-mle rules (the others depend on more than the in-set count).
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    idx = pt.space.validate_indices(indices)
    m = mass_of_set(pt, idx)
    k_states = pt.space.size
    absence = (1.0 - m) ** n
    if rule.kind == "mle":
        # next mass of the set is exactly (count in set) / n, mean m
        return ExpectedNextMass(m, 0.0, absence)
    if rule.kind != "smoothed-mle":
        raise ValueError(f"no closed form for update rule {rule.kind!r}")
    lam = rule.lam
    denom = n + lam * k_states
    terms = []
    for c in range(n + 1):
        pmf = math.comb(n, c) * (m**c) * ((1.0 - m) ** (n - c))
        terms.append(pmf * (c + lam * len(idx)) / denom)
    unconditional = math.fsum(terms)
    conditional = (lam * len(idx)) / denom
    return ExpectedNextMass(unconditional, conditional, absence)
