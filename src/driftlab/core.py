"""Domain types: outcome space, distributions over it, and the safety reference.

A system state is a collection of categorical distributions over one shared
finite outcome space. The safety reference bundles the target distribution
pi_star together with the designated safe subset of outcomes and the tolerated
unsafe mass epsilon. Everything here is immutable after construction; the
evolution dynamics never receive the reference (isolation is enforced by
module structure, not by convention).

Conventions:
  - outcomes are the integers 0..K-1
  - probability vectors are float64, renormalized on construction; a sum off
    by more than 1e-6 is a hard error, anything closer is silently rescaled
  - inputs are checked once, at construction; the round renormalizes the
    distributions it derives from checked ones, and _wrap makes the
    ProbVectors of the populations a run returns, over copies of its rows
  - all randomness flows through numpy Philox generators created by callers
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, SpaceMismatchError

NORMALIZATION_HARD_LIMIT = 1e-6
UNIFORMITY_TOLERANCE = 1e-9
CONCENTRATION_SLACK = 1e-9  # float slack when checking pi*(S) >= 1 - epsilon


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of values, sorted: a sort and a neighbour compare,
    the array np.unique gives, without its hashing or its import of numpy.ma."""
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


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


@dataclass(frozen=True)
class OutcomeSpace:
    """Finite outcome space; outcomes are indices 0..size-1."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or isinstance(self.size, bool):
            raise ConfigError(f"outcome space size must be an int, got {self.size!r}")
        if self.size < 2:
            raise ConfigError(f"outcome space needs at least 2 outcomes, got {self.size}")

    def validate_indices(self, indices: Iterable[int]) -> np.ndarray:
        """Return the given outcome indices as a sorted, unique int array."""
        if not isinstance(indices, np.ndarray):
            indices = list(indices)
        idx = sorted_unique(np.asarray(indices, dtype=np.int64))
        if idx.size and (idx[0] < 0 or idx[-1] >= self.size):
            raise ConfigError(
                f"outcome indices must lie in [0, {self.size}), got range "
                f"[{idx[0]}, {idx[-1]}]"
            )
        return idx


@dataclass(frozen=True, eq=False)
class ProbVector:
    """Immutable probability vector over an outcome space.

    Construction validates shape and non-negativity, then renormalizes. The
    stored array is write-protected; treat instances as values.
    """

    space: OutcomeSpace
    mass: np.ndarray

    def __post_init__(self):
        arr = np.array(self.mass, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.shape[0] != self.space.size:
            raise ValueError(
                f"mass vector must have shape ({self.space.size},), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("mass vector contains non-finite entries")
        if np.any(arr < 0.0):
            worst = float(arr.min())
            raise ValueError(f"mass vector contains a negative entry ({worst})")
        total = float(arr.sum())
        if abs(total - 1.0) > NORMALIZATION_HARD_LIMIT:
            raise ValueError(
                f"mass vector sums to {total!r}, beyond the {NORMALIZATION_HARD_LIMIT} "
                "normalization limit; use make_prob_vector for unnormalized weights"
            )
        self._freeze(arr)

    def _freeze(self, arr: np.ndarray) -> None:
        arr /= float(arr.sum())
        arr.setflags(write=False)
        object.__setattr__(self, "mass", arr)

    def __getitem__(self, index: int) -> float:
        return float(self.mass[index])

    def __setstate__(self, state):
        # numpy unpickles an array writeable; a distribution read back stays frozen
        self.__dict__.update(state)
        self.mass.setflags(write=False)


def _wrap(space: OutcomeSpace, arr: np.ndarray) -> ProbVector:
    """ProbVector over `arr`, which the caller has already normalized (a copy
    of a row of a batched array, say); `arr` is frozen, not copied, so no one
    may write it afterwards."""
    pv = object.__new__(ProbVector)
    object.__setattr__(pv, "space", space)
    arr.setflags(write=False)
    object.__setattr__(pv, "mass", arr)
    return pv


def require_same_space(a: ProbVector, b: ProbVector) -> OutcomeSpace:
    if a.space != b.space:
        raise SpaceMismatchError(
            f"distributions live on different spaces ({a.space.size} vs {b.space.size})"
        )
    return a.space


def make_prob_vector(space: OutcomeSpace, weights: Sequence[float]) -> ProbVector:
    """Build a distribution from arbitrary non-negative weights.

    Unlike direct ProbVector construction this accepts any positive total and
    scales it away: mass[i] = weights[i] / sum(weights).
    """
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != space.size:
        raise ValueError(f"weights must have shape ({space.size},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("weights contain non-finite entries")
    if np.any(arr < 0.0):
        raise ValueError(f"weights contain a negative entry ({float(arr.min())})")
    total = float(arr.sum())
    if total <= 0.0:
        raise ValueError("weights sum to zero; no distribution exists")
    return ProbVector(space, arr / total)


def mass_of_set(pv: ProbVector, indices: Iterable[int]) -> float:
    """Total mass the distribution places on a set of outcomes."""
    idx = pv.space.validate_indices(indices)
    if idx.size == 0:
        return 0.0
    return float(pv.mass[idx].sum())


@dataclass(frozen=True, eq=False)
class SafetyReference:
    """The held-out alignment target: pi_star, its safe set, and epsilon.

    Invariants enforced at construction:
      - safe_set is a non-empty strict subset of the outcomes
      - epsilon lies in (0, 1)
      - pi_star places at least 1 - epsilon mass on the safe set
      - pi_star is not uniform (at least two entries differ by > 1e-9)
    """

    pi_star: ProbVector
    safe_set: tuple[int, ...]
    epsilon: float

    def __post_init__(self):
        space = self.pi_star.space
        idx = space.validate_indices(self.safe_set)
        if idx.size == 0:
            raise ConfigError("safe set is empty")
        if idx.size >= space.size:
            raise ConfigError("safe set must be a strict subset of the outcomes")
        object.__setattr__(self, "safe_set", tuple(idx.tolist()))
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        safe_mass = float(self.pi_star.mass[idx].sum())
        if safe_mass < 1.0 - self.epsilon - CONCENTRATION_SLACK:
            raise ConfigError(
                f"reference places {safe_mass:.12g} mass on the safe set, below the "
                f"required 1 - epsilon = {1.0 - self.epsilon:.12g}"
            )
        spread = float(self.pi_star.mass.max() - self.pi_star.mass.min())
        if spread <= UNIFORMITY_TOLERANCE:
            raise ConfigError(
                "reference distribution is uniform (or within 1e-9 of it); "
                "a uniform target makes the safety quantities degenerate"
            )
        mask = np.zeros(space.size, dtype=bool)
        mask[idx] = True
        mask.setflags(write=False)
        object.__setattr__(self, "_safe_mask", mask)

    @property
    def space(self) -> OutcomeSpace:
        return self.pi_star.space

    @property
    def safe_indices(self) -> np.ndarray:
        return np.asarray(self.safe_set, dtype=np.int64)

    @property
    def safe_mask(self) -> np.ndarray:
        return self._safe_mask  # type: ignore[attr-defined]

    @property
    def safe_mass(self) -> float:
        return mass_of_set(self.pi_star, self.safe_set)


# ---------------------------------------------------------------------------
# Named reference generators
# ---------------------------------------------------------------------------


def _default_epsilon(safe_mass: float, epsilon: float | None) -> float:
    if epsilon is not None:
        return float(epsilon)
    # smallest tolerance the achieved concentration supports, padded for floats
    return float(min(1.0 - 1e-9, max(1e-9, 1.0 - safe_mass + 1e-9)))


def _top_fraction_set(weights: np.ndarray, fraction: float) -> np.ndarray:
    """Indices of the heaviest ceil(fraction*K) outcomes, ties toward lower index."""
    k = weights.shape[0]
    if not (0.0 < fraction < 1.0):
        raise ConfigError(f"safe fraction must lie in (0, 1), got {fraction}")
    count = max(1, min(k - 1, int(round(fraction * k))))
    order = np.argsort(-weights, kind="stable")
    return np.sort(order[:count])


def _reference_on(
    pi: ProbVector,
    safe_set: Iterable[int] | None,
    safe_fraction: float,
    epsilon: float | None,
) -> SafetyReference:
    """pi_star on safe_set (default: its heaviest safe_fraction of outcomes),
    with epsilon or else the smallest tolerance the set's mass supports."""
    if safe_set is None:
        idx = _top_fraction_set(pi.mass, safe_fraction)
    else:
        idx = pi.space.validate_indices(safe_set)
    eps = _default_epsilon(float(pi.mass[idx].sum()), epsilon)
    return SafetyReference(pi, tuple(int(i) for i in idx), eps)


def two_tier_reference(
    size: int,
    safe_mass: float = 0.95,
    safe_fraction: float = 0.5,
    epsilon: float | None = None,
) -> SafetyReference:
    """Two flat tiers: the safe block shares safe_mass, the rest shares the remainder.

    The safe set is the leading block of outcomes, which keeps neighborhood
    dilation on the index line meaningful. safe_mass may be 1.0, in which case
    the unsafe tier has zero mass (pi_star supported entirely on S).
    """
    space = OutcomeSpace(size)
    if not (0.0 < safe_mass <= 1.0):
        raise ConfigError(f"safe_mass must lie in (0, 1], got {safe_mass}")
    if not (0.0 < safe_fraction < 1.0):
        raise ConfigError(f"safe_fraction must lie in (0, 1), got {safe_fraction}")
    n_safe = max(1, min(size - 1, int(round(safe_fraction * size))))
    weights = np.empty(size, dtype=np.float64)
    weights[:n_safe] = safe_mass / n_safe
    weights[n_safe:] = (1.0 - safe_mass) / (size - n_safe)
    pi = make_prob_vector(space, weights)
    eps = _default_epsilon(safe_mass, epsilon)
    return SafetyReference(pi, tuple(range(n_safe)), eps)


def zipf_reference(
    size: int,
    exponent: float = 1.1,
    safe_fraction: float = 0.5,
    safe_set: Iterable[int] | None = None,
    epsilon: float | None = None,
) -> SafetyReference:
    """Power-law reference: weight of outcome i proportional to 1/(i+1)^exponent."""
    space = OutcomeSpace(size)
    if exponent <= 0.0:
        raise ConfigError(f"zipf exponent must be positive, got {exponent}")
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks ** (-float(exponent))
    pi = make_prob_vector(space, weights)
    return _reference_on(pi, safe_set, safe_fraction, epsilon)


def dirichlet_reference(
    size: int,
    alpha: float = 1.0,
    draw_seed: int = 0,
    safe_fraction: float = 0.5,
    safe_set: Iterable[int] | None = None,
    epsilon: float | None = None,
) -> SafetyReference:
    """Random reference drawn once from a symmetric Dirichlet, then frozen.

    draw_seed is independent of any simulation seed so the same reference can
    be paired with many runs.
    """
    space = OutcomeSpace(size)
    if alpha <= 0.0:
        raise ConfigError(f"dirichlet alpha must be positive, got {alpha}")
    if draw_seed < 0:
        raise ConfigError(f"dirichlet draw_seed must be >= 0, got {draw_seed}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(draw_seed))))
    weights = rng.dirichlet(np.full(size, float(alpha)))
    # guard against exact zeros from extreme alpha draws
    weights = np.maximum(weights, 1e-300)
    pi = make_prob_vector(space, weights)
    return _reference_on(pi, safe_set, safe_fraction, epsilon)
