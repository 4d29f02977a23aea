"""Information-theoretic safety measures over system distributions.

All quantities use natural logarithms (nats). The zero conventions are the
usual ones for discrete KL-type sums:

  - terms with p(z) = 0 contribute 0
  - a term with p(z) > 0 and q(z) = 0 makes the whole sum +infinity

Infinity is a distinguished, expected value here, not an error: losing support
on reference-supported outcomes is the central event these measures exist to
expose, so it must survive arithmetic, comparison, and serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .core import ProbVector, SafetyReference, require_same_space
from .errors import ConfigError

_NEG_EPS = 1e-12  # float guard: clamp tiny negative rounding on provably >= 0 sums


def _clamp_nonneg(value: float) -> float:
    if -_NEG_EPS < value < 0.0:
        return 0.0
    return value


def _columns(idx: np.ndarray) -> slice | np.ndarray:
    """Sorted column indices idx, as a slice when they are one run: rows
    then read them as a view, with no gather."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _take(rows: np.ndarray, cols: slice | np.ndarray) -> np.ndarray:
    """Columns cols of rows (S, K), each row's entries contiguous: a row's
    sum over them adds in the order a 1-D sum of them would."""
    return rows[:, cols] if isinstance(cols, slice) else np.take(rows, cols, axis=1)


def _support(p: ProbVector) -> tuple[slice | np.ndarray, np.ndarray]:
    """The columns of p's positive entries and their masses; kept on p,
    whose mass no one rewrites."""
    support = p.__dict__.get("_support")
    if support is None:
        cols = _columns(np.flatnonzero(p.mass > 0.0))
        support = p.__dict__["_support"] = (cols, p.mass[cols])
    return support


def _support_sums(qp: np.ndarray, terms: Callable, finish: Callable[[float], float]) -> np.ndarray:
    """Per row of qp (S, n), q's entries on p's support: +inf where one is 0
    (q misses support that p has), else finish(the row's sum of terms). terms
    takes the rows with no zero entry and their selector in qp."""
    ok = qp.all(axis=1)
    n_ok = np.count_nonzero(ok)
    out = np.full(len(qp), math.inf)
    if n_ok:
        rows = slice(None) if n_ok == len(qp) else ok
        out[rows] = [finish(v) for v in terms(qp[rows], rows).sum(axis=1).tolist()]
    return out


def _row_sums(values: np.ndarray, at: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Per row of an (S, K) array, the sum of values[i] over the sorted flat
    positions at[i] that fall in the row. Each row's run is packed to the
    front of a zero row and every row is summed in one masked reduction,
    which adds a row's run as one contiguous pairwise sum from 0.0, as a
    1-D sum of the run does: each row gets the bits of its own sum.
    test_row_sums_give_each_row_the_bits_of_its_own_sum (test_metrics.py)
    pins that, so a numpy that sums masked runs another way fails it
    rather than moving a byte."""
    s_rows, k_space = shape
    if s_rows == 1:  # a chunk of one seed, as at large K
        return values.sum(keepdims=True)
    rows = at // k_space
    lengths = np.bincount(rows, minlength=s_rows)
    width = int(lengths.max())
    packed = np.zeros((s_rows, width))
    packed[rows, np.arange(at.size) - (np.cumsum(lengths) - lengths)[rows]] = values
    return np.sum(packed, axis=1, where=np.arange(width) < lengths[:, None])


def _on_support(pp: np.ndarray, width: int, dense: np.ndarray, body: Callable) -> np.ndarray:
    """body(dense) for rows dense (S, K) held on width columns each, body
    summing over the pp.size columns of a support: +inf on every row when
    width is below that size, as no row can be positive on all of them.
    The width decides only that case; in any other, the values do, body
    reading +inf on each row that is zero on a support column."""
    if width < pp.size:
        return np.full(len(dense), math.inf)
    return body(dense)


def _kl_rows(p: ProbVector, q: np.ndarray) -> np.ndarray:
    """KL(p || q_s) in nats for each row q_s of q (S, K) on p's space."""
    cols, pp = _support(p)
    return _support_sums(_take(q, cols), lambda qp, rows: pp * np.log(pp / qp), _clamp_nonneg)


def _cross_entropy_rows(p: ProbVector, q: np.ndarray) -> np.ndarray:
    """H(p, q_s) for each row q_s of q (S, K) on p's space."""
    cols, pp = _support(p)
    return _support_sums(_take(q, cols), lambda qp, rows: pp * np.log(qp), float.__neg__)


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """H(p_s) for each row p_s of p (S, K)."""
    flat = p.ravel()
    at = np.flatnonzero(flat > 0.0)
    pos = flat[at]
    h = -_row_sums(pos * np.log(pos), at, p.shape)
    h[(-_NEG_EPS < h) & (h < 0.0)] = 0.0  # _clamp_nonneg on each row
    return h


def kl_divergence(p: ProbVector, q: ProbVector) -> float:
    """KL(p || q) in nats; +inf when q misses support that p has."""
    require_same_space(p, q)
    return float(_kl_rows(p, q.mass[None])[0])


def cross_entropy(p: ProbVector, q: ProbVector) -> float:
    """H(p, q) = -sum p(z) ln q(z); +inf when q misses support that p has."""
    require_same_space(p, q)
    return float(_cross_entropy_rows(p, q.mass[None])[0])


def shannon_entropy(p: ProbVector) -> float:
    """H(p) = -sum p(z) ln p(z), always finite on a finite space."""
    return float(_entropy_rows(p.mass[None])[0])


def _binary_term(a: float, b: float) -> float:
    if a == 0.0:
        return 0.0
    if b == 0.0:
        return math.inf
    return a * math.log(a / b)


def binarized_kl_lower_bound(p_safe: float, q_safe: float) -> float:
    """Two-outcome KL between (p_safe, 1-p_safe) and (q_safe, 1-q_safe).

    Collapsing outcomes into {safe, unsafe} can only lose discrimination, so
    this is a lower bound on the full divergence whenever p_safe and q_safe
    are the safe-set masses of the compared distributions. q_safe in {0, 1}
    with a mismatched p_safe yields +inf.
    """
    if not (0.0 <= p_safe <= 1.0) or not (0.0 <= q_safe <= 1.0):
        raise ValueError(
            f"safe masses must lie in [0, 1], got p={p_safe!r}, q={q_safe!r}"
        )
    return _clamp_nonneg(
        _binary_term(p_safe, q_safe) + _binary_term(1.0 - p_safe, 1.0 - q_safe)
    )


@dataclass(frozen=True)
class KLDecomposition:
    """Safe-set decomposition of KL(pi_star || pt).

    total = mass_term + in_safe_term + out_safe_term, where mass_term is the
    binarized divergence of the safe-mass split, and the other two terms are
    the conditional divergences inside and outside the safe set weighted by
    pi_star's mass on each side. Components can be individually +inf; the
    identity then holds in the extended reals (no inf - inf can arise because
    every component is nonnegative).
    """

    total: float
    mass_term: float
    in_safe_term: float
    out_safe_term: float


def _sides(ref: SafetyReference) -> tuple:
    """Per side of the safe split, safe first: its columns, pi_star's mass on
    it, the columns where pi_star is positive on it (the side's own columns
    when that is all of it) and pi_star's masses there. Computed once per
    reference."""
    sides = ref.__dict__.get("_sides")
    if sides is None:
        pm = ref.pi_star.mass
        sides = []
        for side in (ref.safe_mask, ~ref.safe_mask):
            block = _columns(np.flatnonzero(side))
            pos = block if pm[side].all() else _columns(np.flatnonzero(side & (pm > 0.0)))
            sides.append((block, float(pm[side].sum()), pos, pm[pos]))
        sides = ref.__dict__["_sides"] = tuple(sides)
    return sides


def _side_rows(ref: SafetyReference, pt: np.ndarray, side: int) -> np.ndarray:
    """pi*(block) * KL(pi*|block || pt_s|block) for each row pt_s of pt (S, K),
    block being the safe (side 0) or the unsafe (side 1) outcomes, with
    conditioning conventions.

    Zero pi* weight on the block makes the term 0 regardless of pt. A pt zero
    where pi* is positive, which zero pt mass on the block implies, makes the
    term +inf; that keeps the decomposition identity valid because the total
    divergence is +inf in exactly that situation.
    """
    block, p_block, pos, pp = _sides(ref)[side]
    if p_block == 0.0:
        return np.zeros(len(pt))

    def terms(qp, rows):
        q_block = (qp if pos is block else _take(pt[rows], block)).sum(axis=1)
        shift = [math.log(q / p_block) for q in q_block.tolist()]
        return pp * (np.log(pp / qp) + np.array(shift)[:, None])

    return _support_sums(_take(pt, pos), terms, _clamp_nonneg)


def _safe_mass_rows(ref: SafetyReference, pt: np.ndarray) -> np.ndarray:
    return _take(pt, _sides(ref)[0][0]).sum(axis=1)


def _mass_rows(ref: SafetyReference, pt: np.ndarray) -> np.ndarray:
    p = min(1.0, _sides(ref)[0][1])  # either safe-set sum can round past 1
    return np.array(
        [binarized_kl_lower_bound(p, min(1.0, q)) for q in _safe_mass_rows(ref, pt).tolist()]
    )


def kl_safe_set_decomposition(ref: SafetyReference, pt: ProbVector) -> KLDecomposition:
    """Split KL(pi_star || pt) into mass, within-safe, and outside-safe terms."""
    require_same_space(ref.pi_star, pt)
    rows = pt.mass[None]
    return KLDecomposition(
        float(_kl_rows(ref.pi_star, rows)[0]),
        float(_mass_rows(ref, rows)[0]),
        float(_side_rows(ref, rows, 0)[0]),
        float(_side_rows(ref, rows, 1)[0]),
    )


class CoverageResult(NamedTuple):
    visible_set: tuple[int, ...]
    covered_mass: float


def coverage(ref: SafetyReference, pt: ProbVector, tau: float) -> CoverageResult:
    """Outcomes the system still trains on, and pi_star's mass on them.

    The visible set is {z : pt(z) >= tau}; covered_mass is pi_star of that
    set. Shrinking coverage means reference-relevant regions have dropped
    below the sampling floor and will stop receiving maintenance signal.
    """
    require_same_space(ref.pi_star, pt)
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"coverage threshold must lie in (0, 1], got {tau!r}")
    visible = tuple(int(i) for i in np.flatnonzero(pt.mass >= tau))
    return CoverageResult(visible, float(_covered_rows(ref, pt.mass[None], tau)[0]))


def _covered_rows(
    ref: SafetyReference, pt: np.ndarray, tau: float, index: np.ndarray | None = None
) -> np.ndarray:
    """pi_star's mass on {z : pt_s(z) >= tau} for each row pt_s of pt (S, K),
    or of pt (S, C) on the columns index (S, C)."""
    at = np.flatnonzero(pt >= tau)
    outcomes = at % pt.shape[1] if index is None else index.ravel()[at]
    return _row_sums(ref.pi_star.mass[outcomes], at, pt.shape)


class AbsenceProbability(NamedTuple):
    exact: float
    bound: float


def absence_probability(mass: float, n: int) -> AbsenceProbability:
    """Probability that n i.i.d. draws all miss a set of the given mass.

    exact = (1 - mass)^n, bound = exp(-n * mass); exact <= bound always.
    When n * mass is order one the exact value is substantial, which is the
    regime where rare regions silently vanish from the training signal.
    """
    if not (0.0 <= mass <= 1.0):
        raise ValueError(f"set mass must lie in [0, 1], got {mass!r}")
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"sample count must be a positive integer, got {n!r}")
    exact = (1.0 - mass) ** int(n)
    bound = math.exp(-float(n) * mass)
    return AbsenceProbability(float(exact), float(bound))


def mutual_information_plugin(joint: np.ndarray) -> float:
    """Plug-in mutual information of a joint probability table, in nats."""
    arr = np.asarray(joint, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"joint table must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("joint table contains non-finite entries")
    if np.any(arr < 0.0):
        raise ValueError(f"joint table contains a negative entry ({float(arr.min())})")
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint table sums to {total!r}, not 1 within 1e-9")
    rows = arr.sum(axis=1)
    cols = arr.sum(axis=0)
    pos = arr > 0.0
    prod = np.outer(rows, cols)[pos]
    return _clamp_nonneg(float(np.sum(arr[pos] * np.log(arr[pos] / prod))))


# ---------------------------------------------------------------------------
# Decay estimation from trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayEstimate:
    """Fitted no-gain parameters for a monitored set.

    Pairs (x, y) = (mass at round t, mass at round t+1) are taken only from
    rounds whose dataset missed the set's neighborhood entirely, then
    y = (1 - eta) * x + r is fitted by ordinary least squares with eta clamped
    to [0, 1] and r to [0, inf).
    """

    eta_hat: float
    r_hat: float
    n_pairs: int
    max_residual: float


def estimate_decay(trajectory, a_set: Iterable[int]) -> DecayEstimate:
    """Fit the conditional decay law for set A from a recorded trajectory.

    The trajectory must have monitored A (run(..., monitors={name: A})); only
    rounds where the consumed dataset had no sample in the dilated
    neighborhood of A qualify, which is what makes the fit measure decay
    rather than resampling noise. Raises ValueError with "insufficient
    absence events" when fewer than two rounds qualify.
    """
    target = tuple(int(i) for i in sorted(set(int(i) for i in a_set)))
    name = next((n for n, idx in trajectory.monitors.items() if tuple(idx) == target), None)
    if name is None:
        raise ValueError(
            f"trajectory does not monitor the set {target}; pass it via monitors= at run time"
        )
    mass = trajectory.monitor_mass[name]
    # entry 0 of the absence flags precedes any dataset and never qualifies
    qualifying = np.flatnonzero(trajectory.monitor_absent[name][1:]) + 1
    if len(qualifying) < 2:
        raise ValueError(
            f"insufficient absence events: {len(qualifying)} qualifying rounds, need at least 2"
        )
    x = mass[qualifying - 1]
    y = mass[qualifying]
    x_mean = float(x.mean())
    y_mean = float(y.mean())
    sxx = float(np.sum((x - x_mean) ** 2))
    slope = float(np.sum((x - x_mean) * (y - y_mean))) / sxx if sxx != 0.0 else 0.0
    intercept = y_mean - slope * x_mean
    eta = min(1.0, max(0.0, 1.0 - slope))
    r = max(0.0, intercept)
    fitted = (1.0 - eta) * x + r
    max_residual = float(np.max(np.abs(y - fitted)))
    return DecayEstimate(eta, r, len(qualifying), max_residual)


# ---------------------------------------------------------------------------
# Probe registry
# ---------------------------------------------------------------------------

ProbeFn = Callable[[int, np.ndarray, np.ndarray, SafetyReference], np.ndarray]
# (pt (S, C), index (S, C) or None, dense (S, K), reference) -> S reals: a
# registry probe's body (see _BODIES). Only coverage reads index; a
# divergence reads C alone of pt, the width that _on_support tests.
BodyFn = Callable[[np.ndarray, np.ndarray | None, np.ndarray, SafetyReference], np.ndarray]


@dataclass(frozen=True)
class MetricProbe:
    """Named per-round measurement of a chunk of seeds: (round, pt, agents,
    reference) -> S reals, pt being the seeds' read-only (S, K) training
    rows and agents their read-only (S, M, K) agent rows; value s belongs to
    row s. A registry probe also carries its one body, which the round
    calls on every column set, every outcome or the reach; its evaluator is
    that body on dense rows."""

    name: str
    evaluator: ProbeFn
    _body: BodyFn | None = field(default=None, repr=False, compare=False)


def _registry_probe(name: str, body: BodyFn) -> MetricProbe:
    """The probe of body, whose evaluator is body on every outcome."""
    return MetricProbe(name, lambda t, pt, agents, ref: body(pt, None, pt, ref), body)


# The registry's bodies. pt (S, C) holds each row's values at its columns
# index (S, C), sorted and padded with K where pt is 0.0, or every outcome
# when index is None; dense (S, K) is pt's dense rows. Entropy and coverage
# read each row's positive entries, which pt holds in column order. A
# divergence over pi_star's support is +inf on every row when C is below
# the support's size, as each row then misses a column of it; the width
# decides nothing else. Every other row, and every block sum, reads dense,
# where a row whose reach misses a support column is zero there, and its
# own sum reads +inf. So either column set gives the same bits.
_BODIES: dict[str, BodyFn] = {
    "kl_safety": lambda pt, index, dense, ref: _on_support(
        _support(ref.pi_star)[1], pt.shape[1], dense, partial(_kl_rows, ref.pi_star)
    ),
    "safe_mass": lambda pt, index, dense, ref: _safe_mass_rows(ref, dense),
    "internal_entropy": lambda pt, index, dense, ref: _entropy_rows(pt),
    "cross_entropy": lambda pt, index, dense, ref: _on_support(
        _support(ref.pi_star)[1], pt.shape[1], dense, partial(_cross_entropy_rows, ref.pi_star)
    ),
    "mass_term": lambda pt, index, dense, ref: _mass_rows(ref, dense),
    "in_safe_term": lambda pt, index, dense, ref: _on_support(
        _sides(ref)[0][3], pt.shape[1], dense, lambda rows: _side_rows(ref, rows, 0)
    ),
    "out_safe_term": lambda pt, index, dense, ref: _on_support(
        _sides(ref)[1][3], pt.shape[1], dense, lambda rows: _side_rows(ref, rows, 1)
    ),
}
# built once, so that resolving a name twice gives equal probes
_PROBES = {name: _registry_probe(name, body) for name, body in _BODIES.items()}


def probe_names() -> tuple[str, ...]:
    return tuple(_PROBES) + ("coverage",)


def resolve_probe(name: str, default_tau: float | None = None) -> MetricProbe:
    """Look up a probe by registry name.

    "coverage" takes the default threshold (1/(10N) at experiment level);
    "coverage@0.001" pins an explicit threshold in the name itself. Unknown
    names raise ConfigError listing the registry.
    """
    if name in _PROBES:
        return _PROBES[name]
    if name == "coverage" or name.startswith("coverage@"):
        if name == "coverage":
            if default_tau is None:
                raise ConfigError(
                    "probe 'coverage' needs a default threshold; pass default_tau "
                    "or use an explicit 'coverage@<tau>' name"
                )
            tau = float(default_tau)
        else:
            try:
                tau = float(name.split("@", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"unparseable coverage threshold in {name!r}") from exc
        if not (0.0 < tau <= 1.0):
            raise ConfigError(f"coverage threshold must lie in (0, 1], got {tau}")
        return _registry_probe(
            name, lambda pt, index, dense, ref: _covered_rows(ref, pt, tau, index)
        )
    raise ConfigError(
        f"unknown probe {name!r}; registry: {', '.join(probe_names())} "
        "(coverage also accepts coverage@<tau>)"
    )


def resolve_probes(
    names: Iterable[str], default_tau: float | None = None
) -> tuple[MetricProbe, ...]:
    return tuple(resolve_probe(n, default_tau) for n in names)
