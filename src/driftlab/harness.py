"""Experiment runner: configs, seed sweeps, headline experiments, export.

Config files are flat key=value text with dotted keys (diff-friendly), e.g.

    space.size=1000
    evolution.sample_size=200
    experiment.seeds=20

A JSON file with the same keys (nested objects allowed; they are flattened
with dots) is accepted interchangeably. Every key can be overridden by an
environment variable: prefix DRIFTLAB_, uppercase, dots become double
underscores (evolution.sample_size -> DRIFTLAB_EVOLUTION__SAMPLE_SIZE).

Experiments:
  run_drift_experiment          isolated seed sweep, trend statistics,
                                terminal-state classification
  run_intervention_comparison   baseline vs. mitigation arms on shared seeds
  run_ensemble_mi               reference-ensemble mutual information decay

Trajectories serialize to CSV (header "round,seed,<probes>", 17 significant
digits, infinities as "inf", seed-major row order) and JSON (full nested
records); both are byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    OutcomeSpace,
    SafetyReference,
    _reference_on,
    dirichlet_reference,
    make_prob_vector,
    two_tier_reference,
    zipf_reference,
)
from .errors import ConfigError, SimulationError
from .evolution import (
    MAX_SEED,
    EvolutionConfig,
    Population,
    SelectionRule,
    Trajectory,
    UpdateRule,
    run,  # noqa: F401  (bench/test_bench.py expects driftlab.harness.run)
    run_batch,
)
from .interventions import (
    CoolingPolicy,
    DiversityPolicy,
    EntropyReleasePolicy,
    Schedule,
    VerifierPolicy,
)
from .metrics import mutual_information_plugin, resolve_probes

ENV_PREFIX = "DRIFTLAB_"
_INIT_STREAM = 0x496E6974  # distinguishes init draws from trajectory draws

# probes the drift experiment needs even when not requested (classification)
_REQUIRED_DRIFT_PROBES = ("safe_mass", "in_safe_term")
DEFAULT_PROBES = ("kl_safety", "safe_mass", "internal_entropy", "coverage")
# largest seed count or range a config may ask for
MAX_SEED_COUNT = 1_000_000


# ---------------------------------------------------------------------------
# flat-config parsing
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """key=value lines; blank lines and #-comments ignored; later keys win."""
    flat: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, value = line.partition("=")
        flat[key.strip()] = value.strip()
    return flat


def _flatten_json(obj, prefix: str, out: dict[str, str]) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten_json(v, f"{prefix}{k}." if prefix else f"{k}.", out)
        return
    key = prefix[:-1]
    if isinstance(obj, bool):
        out[key] = "true" if obj else "false"
    elif isinstance(obj, (list, tuple)):
        out[key] = ",".join(str(v) for v in obj)
    elif obj is None:
        out[key] = ""
    else:
        out[key] = str(obj)


def load_config_file(path: str) -> dict[str, str]:
    """Load a key=value or JSON config into the flat dotted-key form."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path!r} must hold a JSON object")
        flat: dict[str, str] = {}
        _flatten_json(data, "", flat)
        return flat
    return parse_config_text(text)


def apply_env_overrides(
    flat: Mapping[str, str], environ: Mapping[str, str] | None = None
) -> dict[str, str]:
    """Overlay DRIFTLAB_* variables; SECTION__KEY maps to section.key."""
    env = os.environ if environ is None else environ
    merged = dict(flat)
    for name, value in env.items():
        if name.startswith(ENV_PREFIX):
            key = name[len(ENV_PREFIX) :].lower().replace("__", ".")
            merged[key] = value
    return merged


def _as_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from exc


def _as_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def _as_bool(key: str, value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {value!r}")


def _as_floats(key: str, value: str) -> tuple[float, ...]:
    if not value.strip():
        raise ConfigError(f"{key} must be a comma-separated number list")
    return tuple(_as_float(key, part) for part in value.split(","))


def _as_ints(key: str, value: str) -> tuple[int, ...]:
    return tuple(_as_int(key, part) for part in value.split(","))


def parse_seed_spec(value: str) -> tuple[int, ...]:
    """Seed list forms: a count ("20"), a range ("3..7"), or a list ("0,4,9").

    Every seed must lie in [0, MAX_SEED) and a count or range may hold at
    most MAX_SEED_COUNT seeds; both are checked before any tuple is built.
    """
    value = value.strip()
    if ".." in value:
        lo_s, _, hi_s = value.partition("..")
        lo, hi = _as_int("experiment.seeds", lo_s), _as_int("experiment.seeds", hi_s)
        if hi < lo:
            raise ConfigError(f"seed range {value!r} is empty")
        seeds = range(lo, hi + 1)
    elif "," in value:
        seeds = _as_ints("experiment.seeds", value)
        lo, hi = min(seeds), max(seeds)
    else:
        count = _as_int("experiment.seeds", value)
        if count < 1:
            raise ConfigError(f"seed count must be >= 1, got {count}")
        lo, hi = 0, count - 1
        seeds = range(count)
    # a range's len() overflows past 2**63, so count from its bounds
    count = hi - lo + 1 if isinstance(seeds, range) else len(seeds)
    if count > MAX_SEED_COUNT:
        raise ConfigError(f"a seed sweep holds at most {MAX_SEED_COUNT} seeds, got {count}")
    if lo < 0 or hi >= MAX_SEED:
        raise ConfigError(f"seeds must lie in [0, 2**64), got {value!r}")
    return tuple(seeds)


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceSpec:
    generator: str = "two-tier"  # two-tier | zipf | dirichlet-draw | explicit
    safe_mass: float = 0.95
    safe_fraction: float = 0.5
    epsilon: float | None = None
    exponent: float = 1.1
    alpha: float = 1.0
    draw_seed: int = 0
    weights: tuple[float, ...] | None = None
    safe_set: str | None = None  # "0,1,2" or "top-fraction:0.5"


@dataclass(frozen=True)
class PopulationSpec:
    size: int = 4
    init: str = "copy"  # copy | perturbed | dirichlet
    sigma: float = 0.05
    alpha: float = 1.0

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError(f"population size must be >= 1, got {self.size}")
        if self.init not in ("copy", "perturbed", "dirichlet"):
            raise ConfigError(
                f"unknown population init {self.init!r}; one of copy, perturbed, dirichlet"
            )
        if self.sigma < 0.0:
            raise ConfigError(f"perturbation sigma must be >= 0, got {self.sigma}")
        if self.alpha <= 0.0:
            raise ConfigError(f"dirichlet alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class PolicySpec:
    """Raw mitigation-arm description; realized once per arm against ref."""

    name: str
    kind: str
    params: tuple[tuple[str, str], ...] = ()
    schedule: str = "every:1"


@dataclass(frozen=True)
class ExperimentConfig:
    space_size: int = 1000
    reference: ReferenceSpec = field(default_factory=ReferenceSpec)
    population: PopulationSpec = field(default_factory=PopulationSpec)
    sample_size: int = 200
    rounds: int = 100
    selection: SelectionRule = field(default_factory=lambda: SelectionRule("identity"))
    update: UpdateRule = field(default_factory=lambda: UpdateRule("mle"))
    per_agent_datasets: bool = False
    seeds: tuple[int, ...] = tuple(range(20))
    probes: tuple[str, ...] = DEFAULT_PROBES
    delta: float = 0.02
    visibility_c: float = 1.0
    margin: float = 0.05
    tau: float | None = None  # None -> 1 / (10 * sample_size)
    intervention: tuple[PolicySpec, ...] = ()
    ensemble_safe_masses: tuple[float, ...] = (0.95, 0.75)
    runs_per_ref: int = 200
    quantizer: float = 0.05
    output_csv: str | None = None
    output_json: str | None = None

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.sample_size < 1:
            raise ConfigError(f"sample_size must be >= 1, got {self.sample_size}")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 < self.margin < math.inf:
            raise ConfigError(f"margin must be finite and positive, got {self.margin}")
        if not 0.0 < self.visibility_c < math.inf:
            raise ConfigError(
                f"visibility_c must be finite and positive, got {self.visibility_c}"
            )
        if not (0.0 < self.quantizer <= 0.5):
            raise ConfigError(f"quantizer must lie in (0, 0.5], got {self.quantizer}")

    @property
    def coverage_tau(self) -> float:
        return self.tau if self.tau is not None else 1.0 / (10.0 * self.sample_size)

    def with_seed_base(self, base: int) -> "ExperimentConfig":
        """Rebase the sweep to base..base+n-1 (the --seed override)."""
        return replace(self, seeds=tuple(base + i for i in range(len(self.seeds))))


# rule fields a config may set (besides kind), each with its parser
_SELECTION_FIELDS = {"indices": _as_ints, "k": _as_int, "beta": _as_float, "reward": _as_floats}
_UPDATE_FIELDS = {
    "lam": _as_float, "capacity": _as_int, "alpha_mem": _as_float, "beta": _as_float,
    "reward": _as_floats, "reward_source": lambda key, value: value,
    "neighborhood_radius": _as_int,
}
_KNOWN_KEYS = {
    "space.size",
    "reference.generator", "reference.safe_mass", "reference.safe_fraction",
    "reference.epsilon", "reference.exponent", "reference.alpha",
    "reference.draw_seed", "reference.weights", "reference.safe_set",
    "population.size", "population.init", "population.sigma", "population.alpha",
    "evolution.sample_size", "evolution.rounds", "evolution.per_agent_datasets",
    "experiment.seeds", "experiment.probes", "experiment.delta",
    "experiment.visibility_c", "experiment.margin", "experiment.tau",
    "intervention.kind", "intervention.schedule",
    "ensemble.safe_masses", "ensemble.runs_per_ref", "ensemble.quantizer",
    "output.csv", "output.json",
    *(f"selection.{name}" for name in ("kind", *_SELECTION_FIELDS)),
    *(f"update.{name}" for name in ("kind", *_UPDATE_FIELDS)),
}


def _build_rule(flat: Mapping[str, str], section: str, rule_cls, default_kind: str, fields):
    kwargs = {
        name: parse(f"{section}.{name}", flat[f"{section}.{name}"])
        for name, parse in fields.items()
        if f"{section}.{name}" in flat
    }
    return rule_cls(flat.get(f"{section}.kind", default_kind), **kwargs)


def _optional_float(flat: Mapping[str, str], key: str) -> float | None:
    value = flat.get(key, "").strip()
    if not value or value.lower() == "auto":
        return None
    return _as_float(key, value)


def config_from_mapping(flat: Mapping[str, str]) -> ExperimentConfig:
    """Typed ExperimentConfig from the flat dotted-key mapping."""
    param_prefix = "intervention.params."
    params = tuple(
        sorted((k[len(param_prefix) :], v) for k, v in flat.items() if k.startswith(param_prefix))
    )
    unknown = {k for k in flat if not k.startswith(param_prefix)} - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def get(parse, key: str, default: str):
        return parse(key, flat.get(key, default))

    ref = ReferenceSpec(
        generator=flat.get("reference.generator", "two-tier"),
        safe_mass=get(_as_float, "reference.safe_mass", "0.95"),
        safe_fraction=get(_as_float, "reference.safe_fraction", "0.5"),
        epsilon=_optional_float(flat, "reference.epsilon"),
        exponent=get(_as_float, "reference.exponent", "1.1"),
        alpha=get(_as_float, "reference.alpha", "1.0"),
        draw_seed=get(_as_int, "reference.draw_seed", "0"),
        weights=(
            _as_floats("reference.weights", flat["reference.weights"])
            if "reference.weights" in flat
            else None
        ),
        safe_set=flat.get("reference.safe_set") or None,
    )
    pop = PopulationSpec(
        size=get(_as_int, "population.size", "4"),
        init=flat.get("population.init", "copy"),
        sigma=get(_as_float, "population.sigma", "0.05"),
        alpha=get(_as_float, "population.alpha", "1.0"),
    )
    intervention: tuple[PolicySpec, ...] = ()
    int_kind = flat.get("intervention.kind", "").strip()
    if int_kind and int_kind != "none":
        schedule = flat.get("intervention.schedule", "every:1")
        intervention = (PolicySpec(int_kind, int_kind, params, schedule),)
    probes_raw = flat.get("experiment.probes", "")
    probes = (
        tuple(p.strip() for p in probes_raw.split(",") if p.strip())
        if probes_raw
        else DEFAULT_PROBES
    )
    return ExperimentConfig(
        space_size=get(_as_int, "space.size", "1000"),
        reference=ref,
        population=pop,
        sample_size=get(_as_int, "evolution.sample_size", "200"),
        rounds=get(_as_int, "evolution.rounds", "100"),
        selection=_build_rule(flat, "selection", SelectionRule, "identity", _SELECTION_FIELDS),
        update=_build_rule(flat, "update", UpdateRule, "mle", _UPDATE_FIELDS),
        per_agent_datasets=get(_as_bool, "evolution.per_agent_datasets", "false"),
        seeds=parse_seed_spec(flat.get("experiment.seeds", "20")),
        probes=probes,
        delta=get(_as_float, "experiment.delta", "0.02"),
        visibility_c=get(_as_float, "experiment.visibility_c", "1.0"),
        margin=get(_as_float, "experiment.margin", "0.05"),
        tau=_optional_float(flat, "experiment.tau"),
        intervention=intervention,
        ensemble_safe_masses=get(_as_floats, "ensemble.safe_masses", "0.95,0.75"),
        runs_per_ref=get(_as_int, "ensemble.runs_per_ref", "200"),
        quantizer=get(_as_float, "ensemble.quantizer", "0.05"),
        output_csv=flat.get("output.csv") or None,
        output_json=flat.get("output.json") or None,
    )


def load_experiment_config(path: str, environ: Mapping[str, str] | None = None) -> ExperimentConfig:
    return config_from_mapping(apply_env_overrides(load_config_file(path), environ))


# ---------------------------------------------------------------------------
# reference / population / policy builders
# ---------------------------------------------------------------------------


def build_reference(cfg: ExperimentConfig) -> SafetyReference:
    """The configured reference. reference.safe_set, when given, replaces the
    generator's safe set, parsed against its pi_star, and reference.epsilon
    is checked against the requested set."""
    spec = cfg.reference
    size = cfg.space_size
    if spec.generator == "explicit":
        if spec.weights is None or spec.safe_set is None:
            raise ConfigError(
                "explicit reference needs reference.weights and reference.safe_set"
            )
        space = OutcomeSpace(size)
        try:
            pi = make_prob_vector(space, spec.weights)
        except ValueError as exc:
            raise ConfigError(f"reference.weights: {exc}") from exc
    else:
        # the generator's own set is dropped when a safe set is requested
        eps = None if spec.safe_set else spec.epsilon
        if spec.generator == "two-tier":
            ref = two_tier_reference(size, spec.safe_mass, spec.safe_fraction, eps)
        elif spec.generator == "zipf":
            ref = zipf_reference(size, spec.exponent, spec.safe_fraction, epsilon=eps)
        elif spec.generator == "dirichlet-draw":
            ref = dirichlet_reference(
                size, spec.alpha, spec.draw_seed, spec.safe_fraction, epsilon=eps
            )
        else:
            raise ConfigError(
                f"unknown reference generator {spec.generator!r}; "
                "one of two-tier, zipf, dirichlet-draw, explicit"
            )
        if not spec.safe_set:
            return ref
        pi = ref.pi_star
    if spec.safe_set.startswith("top-fraction:"):
        fraction = _as_float("reference.safe_set", spec.safe_set.split(":", 1)[1])
        return _reference_on(pi, None, fraction, spec.epsilon)
    safe = _as_ints("reference.safe_set", spec.safe_set)
    return _reference_on(pi, safe, spec.safe_fraction, spec.epsilon)


def build_population(spec: PopulationSpec, ref: SafetyReference, seed: int) -> Population:
    """Initial agents for one run; any randomness draws from a dedicated
    stream keyed on (seed, init) so it never consumes trajectory randomness."""
    space = ref.space
    if spec.init == "copy":
        return Population.equal_weights([ref.pi_star] * spec.size)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), _INIT_STREAM)))
    )
    agents = []
    for _ in range(spec.size):
        if spec.init == "perturbed":
            # a sigma whose tilt leaves the float range is reported below
            with np.errstate(over="ignore", invalid="ignore"):
                tilt = np.exp(spec.sigma * rng.standard_normal(space.size))
                weights = ref.pi_star.mass * tilt
            try:
                agents.append(make_prob_vector(space, weights))
            except ValueError as exc:
                raise ConfigError(
                    f"population.sigma={spec.sigma} gives no perturbed agent: {exc}"
                ) from exc
        else:  # dirichlet
            draw = np.maximum(rng.dirichlet(np.full(space.size, spec.alpha)), 1e-300)
            agents.append(make_prob_vector(space, draw))
    return Population.equal_weights(agents)


def parse_schedule(spec: str, ref: SafetyReference) -> Schedule:
    """"every", "every:k", or "kl:threshold"."""
    text = spec.strip() or "every:1"
    head, _, tail = text.partition(":")
    if head == "every":
        return Schedule("every", k=_as_int("schedule", tail) if tail else 1)
    if head == "kl":
        if not tail:
            raise ConfigError("kl-trigger schedule needs a threshold, e.g. kl:0.5")
        return Schedule("kl-trigger", threshold=_as_float("schedule", tail), ref=ref)
    raise ConfigError(f"unknown schedule {spec!r}; use every[:k] or kl:threshold")


def realize_policy(spec: PolicySpec, ref: SafetyReference):
    """Concrete policy object for every seed of an arm; an 'initial' anchor
    is each seed's own start population."""
    params = dict(spec.params)
    schedule = parse_schedule(spec.schedule, ref)

    def take_float(name: str, default: float) -> float:
        return _as_float(name, params.pop(name)) if name in params else default

    if spec.kind == "verifier":
        budget = params.pop("budget", None)
        policy = VerifierPolicy(
            ref,
            fp=take_float("fp", 0.0),
            fn_rate=take_float("fn_rate", 0.0),
            budget=_as_int("budget", budget) if budget is not None else None,
            schedule=schedule,
        )
    elif spec.kind == "cooling":
        policy = CoolingPolicy(
            ref,
            kl_threshold=take_float("kl_threshold", 0.5),
            blend=take_float("blend", 1.0),
            schedule=schedule,
        )
    elif spec.kind == "diversity":
        policy = DiversityPolicy(
            ref,
            temperature=take_float("temperature", 1.5),
            rho=take_float("rho", 0.1),
            schedule=schedule,
        )
    elif spec.kind == "entropy-release":
        anchor = params.pop("anchor", "uniform")
        if anchor not in ("uniform", "initial"):
            raise ConfigError(f"unknown anchor {anchor!r}; uniform or initial")
        prune_memory = params.pop("prune_memory", "false")
        policy = EntropyReleasePolicy(
            gamma=take_float("gamma", 0.05),
            prune_floor=take_float("prune_floor", 0.0),
            anchor=anchor,
            prune_memory=_as_bool("prune_memory", prune_memory),
            ref=ref,
            schedule=schedule,
        )
    else:
        raise ConfigError(
            f"unknown intervention kind {spec.kind!r}; "
            "one of verifier, cooling, diversity, entropy-release"
        )
    if params:
        raise ConfigError(
            f"unknown parameters for {spec.kind}: {', '.join(sorted(params))}"
        )
    return policy


def default_policy_specs() -> tuple[PolicySpec, ...]:
    """The four mitigation arms with their documented default parameters."""
    return (
        PolicySpec("verifier", "verifier", (("fp", "0"), ("fn_rate", "0"))),
        PolicySpec("cooling", "cooling", (("kl_threshold", "0.5"), ("blend", "1.0"))),
        PolicySpec("diversity", "diversity", (("temperature", "1.5"), ("rho", "0.1"))),
        PolicySpec(
            "entropy-release",
            "entropy-release",
            (("gamma", "0.05"), ("prune_floor", "0"), ("anchor", "uniform")),
        ),
    )


def parse_policies_json(text: str) -> tuple[PolicySpec, ...]:
    """Policy arms from a JSON list of {name?, kind, schedule?, params?}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"policies file is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ConfigError("policies file must hold a JSON list")
    specs = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"policy entry {i} must be an object with a 'kind'")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"policy entry {i}: params must be an object")
        specs.append(
            PolicySpec(
                name=str(entry.get("name", entry["kind"])),
                kind=str(entry["kind"]),
                params=tuple(sorted((str(k), str(v)) for k, v in params.items())),
                schedule=str(entry.get("schedule", "every:1")),
            )
        )
    return tuple(specs)


# ---------------------------------------------------------------------------
# trend statistics and terminal classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrendReport:
    """Monotonic-trend summary of one metric across a seed sweep."""

    metric: str
    median_series: tuple[float, ...]
    rank_correlation: float
    first_median: float
    last_median: float


def _average_ranks(arr: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values (equal infinities included) share their mean rank."""
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], arr.size)
    group = np.repeat(np.arange(starts.size), ends - starts)
    ranks = np.empty(arr.size)
    ranks[order] = ((starts + 1 + ends) / 2.0)[group]
    return ranks


def spearman_vs_round(series: Sequence[float]) -> float:
    """Rank correlation of a series against its round index: the Pearson
    correlation of average ranks. A constant series, or one holding NaN,
    reads 0."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.size < 2 or np.all(arr == arr[0]) or np.isnan(arr).any():
        return 0.0
    x = np.arange(arr.size, dtype=np.float64)
    x -= x.mean()
    y = _average_ranks(arr)
    y -= y.mean()
    stat = float((x * y).sum() / math.sqrt(float((x * x).sum()) * float((y * y).sum())))
    return max(-1.0, min(1.0, stat))


def compute_trend(metric: str, series_by_seed: Mapping[int, Sequence[float]]) -> TrendReport:
    seeds = sorted(series_by_seed)
    table = np.asarray([series_by_seed[s] for s in seeds], dtype=np.float64)
    median = np.median(table, axis=0)
    series = tuple(float(v) for v in median)
    return TrendReport(
        metric=metric,
        median_series=series,
        rank_correlation=spearman_vs_round(series),
        first_median=series[0],
        last_median=series[-1],
    )


def _rose_by(initial: float, terminal: float, margin: float) -> bool:
    if math.isinf(terminal) and not math.isinf(initial):
        return True
    if math.isinf(initial):
        return False
    return terminal - initial >= margin


CLASS_LEAKAGE = "unsafe leakage"
CLASS_COLLAPSE = "safe-mode collapse"
CLASS_STABLE = "stable"


def classify_terminal(trajectory: Trajectory, margin: float) -> str:
    """Terminal-state label from the recorded endpoints.

    "unsafe leakage": safe mass fell by at least `margin`.
    "safe-mode collapse": safe mass held, but the within-safe-set conditional
    divergence rose by at least `margin` (reaching +inf counts as a rise) —
    mass stayed in the safe region yet concentrated on a sub-region of it.
    "stable": neither movement.
    """
    first, last = trajectory.initial.values, trajectory.terminal.values
    if first["safe_mass"] - last["safe_mass"] >= margin:
        return CLASS_LEAKAGE
    if _rose_by(first["in_safe_term"], last["in_safe_term"], margin):
        return CLASS_COLLAPSE
    return CLASS_STABLE


# ---------------------------------------------------------------------------
# drift experiment
# ---------------------------------------------------------------------------


def monitored_rare_set(ref: SafetyReference, delta: float) -> tuple[int, ...]:
    """Smallest-mass safe outcomes accumulating at least `delta` reference mass.

    This is the canonical rare-but-safe monitored set: big enough to matter
    to the reference, small enough that finite sampling will miss it.
    """
    safe = ref.safe_indices
    masses = ref.pi_star.mass[safe]
    order = np.argsort(masses, kind="stable")
    chosen: list[int] = []
    total = 0.0
    for pos in order:
        chosen.append(int(safe[pos]))
        total += float(masses[pos])
        if total >= delta:
            break
    return tuple(sorted(chosen))


@dataclass(frozen=True)
class DriftResult:
    config: ExperimentConfig
    probes: tuple[str, ...]
    trajectories: dict[int, Trajectory]
    trends: dict[str, TrendReport]
    classifications: dict[int, str]
    failures: dict[int, str]
    monitored_set: tuple[int, ...]
    low_visibility_rounds: dict[int, int]

    def class_counts(self) -> dict[str, int]:
        counts = {CLASS_LEAKAGE: 0, CLASS_COLLAPSE: 0, CLASS_STABLE: 0}
        for label in self.classifications.values():
            counts[label] += 1
        return counts


def _evolution_config(cfg: ExperimentConfig) -> EvolutionConfig:
    """The round settings every seed of cfg shares; run_batch gives the seeds."""
    return EvolutionConfig(
        sample_size=cfg.sample_size,
        rounds=cfg.rounds,
        selection=cfg.selection,
        update=cfg.update,
        per_agent_datasets=cfg.per_agent_datasets,
    )


def _require_isolated(cfg: ExperimentConfig, experiment: str) -> None:
    if cfg.intervention:
        raise ConfigError(
            f"the {experiment} runs the isolated dynamics; remove the "
            "intervention or use the comparison runner"
        )


def run_drift_experiment(cfg: ExperimentConfig) -> DriftResult:
    """Isolated seed sweep with trend statistics and terminal classification.

    Requires no intervention in the config (use run_intervention_comparison
    for mitigation arms). Per-seed simulation failures are recorded and the
    sweep continues.
    """
    _require_isolated(cfg, "drift experiment")
    ref = build_reference(cfg)
    probe_list = list(cfg.probes)
    for required in _REQUIRED_DRIFT_PROBES:
        if required not in probe_list:
            probe_list.append(required)
    probes = resolve_probes(probe_list, default_tau=cfg.coverage_tau)
    monitored = monitored_rare_set(ref, cfg.delta)
    visibility_floor = cfg.visibility_c / cfg.sample_size

    trajectories: dict[int, Trajectory] = {}
    failures: dict[int, str] = {}
    results = run_batch(
        (build_population(cfg.population, ref, seed) for seed in cfg.seeds),
        _evolution_config(cfg),
        cfg.seeds,
        probes,
        ref=ref,
        monitors={"rare-safe": monitored},
    )
    for seed, result in zip(cfg.seeds, results):
        if isinstance(result, SimulationError):
            failures[seed] = str(result)
        else:
            trajectories[seed] = result

    trends: dict[str, TrendReport] = {}
    if trajectories:
        for name in probe_list:
            trends[name] = compute_trend(
                name,
                {
                    seed: [rec.values[name] for rec in traj.records]
                    for seed, traj in trajectories.items()
                },
            )
    classifications = {
        seed: classify_terminal(traj, cfg.margin) for seed, traj in trajectories.items()
    }
    low_visibility = {
        seed: sum(
            1
            for rec in traj.records
            if rec.monitor_mass["rare-safe"] <= visibility_floor
        )
        for seed, traj in trajectories.items()
    }
    return DriftResult(
        config=cfg,
        probes=tuple(probe_list),
        trajectories=trajectories,
        trends=trends,
        classifications=classifications,
        failures=failures,
        monitored_set=monitored,
        low_visibility_rounds=low_visibility,
    )


# ---------------------------------------------------------------------------
# intervention comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArmSummary:
    name: str
    median_terminal_kl: float
    median_terminal_safe_mass: float
    terminal_kl: dict[int, float]
    terminal_safe_mass: dict[int, float]
    failures: dict[int, str]


@dataclass(frozen=True)
class ComparisonResult:
    baseline: ArmSummary
    arms: tuple[ArmSummary, ...]
    paired_kl_diff: dict[str, dict[int, float]]

    def arm(self, name: str) -> ArmSummary:
        for summary in self.arms:
            if summary.name == name:
                return summary
        raise KeyError(name)


def paired_difference(arm_value: float, base_value: float) -> float:
    """arm - base; two same-signed infinities compare as indeterminate (nan)."""
    if (
        math.isinf(arm_value)
        and math.isinf(base_value)
        and (arm_value > 0) == (base_value > 0)
    ):
        return math.nan
    return arm_value - base_value


def _run_arm(cfg: ExperimentConfig, ref: SafetyReference, name: str, policy) -> ArmSummary:
    probes = resolve_probes(("kl_safety", "safe_mass"), default_tau=cfg.coverage_tau)
    terminal_kl: dict[int, float] = {}
    terminal_sm: dict[int, float] = {}
    failures: dict[int, str] = {}
    results = run_batch(
        (build_population(cfg.population, ref, seed) for seed in cfg.seeds),
        _evolution_config(cfg),
        cfg.seeds,
        probes,
        policy,
        ref=ref,
    )
    for seed, result in zip(cfg.seeds, results):
        if isinstance(result, SimulationError):
            failures[seed] = str(result)
            continue
        terminal_kl[seed] = result.terminal.values["kl_safety"]
        terminal_sm[seed] = result.terminal.values["safe_mass"]
    kl_values = list(terminal_kl.values())
    sm_values = list(terminal_sm.values())
    return ArmSummary(
        name=name,
        median_terminal_kl=float(np.median(kl_values)) if kl_values else math.nan,
        median_terminal_safe_mass=float(np.median(sm_values)) if sm_values else math.nan,
        terminal_kl=terminal_kl,
        terminal_safe_mass=terminal_sm,
        failures=failures,
    )


def run_intervention_comparison(
    cfg: ExperimentConfig, policy_specs: Sequence[PolicySpec] | None = None
) -> ComparisonResult:
    """Baseline plus one arm per policy, all on the same seed list.

    Without policy_specs the arms are the config's intervention, or the four
    default policies when it has none. Every arm replays the identical
    (seed, config) pair, so per-seed differences are paired comparisons of
    the same closed loop with and without the mitigation.
    """
    if policy_specs is not None:
        specs = tuple(policy_specs)
    else:
        specs = cfg.intervention or default_policy_specs()
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate arm names: {names}")
    ref = build_reference(cfg)
    # every arm's policy is realized before any seed runs
    policies = [realize_policy(spec, ref) for spec in specs]
    baseline = _run_arm(cfg, ref, "baseline", None)
    arms = tuple(_run_arm(cfg, ref, n, p) for n, p in zip(names, policies))
    paired: dict[str, dict[int, float]] = {}
    for arm in arms:
        diffs = {}
        for seed, kl in arm.terminal_kl.items():
            if seed in baseline.terminal_kl:
                diffs[seed] = paired_difference(kl, baseline.terminal_kl[seed])
        paired[arm.name] = diffs
    return ComparisonResult(baseline=baseline, arms=arms, paired_kl_diff=paired)


# ---------------------------------------------------------------------------
# ensemble mutual information
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleMIResult:
    mi_series: tuple[float, ...]  # index = round, 0..T
    quantizer: float
    bins: int
    runs_per_ref: int
    n_refs: int


def default_reference_family(cfg: ExperimentConfig) -> tuple[SafetyReference, ...]:
    """Two-tier references differing only in safe mass, sharing S exactly."""
    masses = cfg.ensemble_safe_masses
    if len(masses) < 2:
        raise ConfigError("degenerate ensemble: need at least 2 references")
    return tuple(
        two_tier_reference(cfg.space_size, m, cfg.reference.safe_fraction)
        for m in masses
    )


def run_ensemble_mi(
    cfg: ExperimentConfig, family: Sequence[SafetyReference] | None = None
) -> EnsembleMIResult:
    """How much the evolving state still reveals about which reference it
    started from.

    Each run draws one reference from the family (balanced assignment),
    initializes from it, then evolves in isolation. The state statistic is
    the training mass on a fixed outcome set (the first family member's safe
    set), binned at the quantizer resolution; the series is the plug-in
    mutual information between reference index and binned statistic, per
    round. Post-processing of a Markov chain cannot gain information, so the
    series should fall (up to estimator noise). Like the drift experiment it
    requires no intervention in the config.
    """
    _require_isolated(cfg, "ensemble experiment")
    refs = tuple(family) if family is not None else default_reference_family(cfg)
    if len(refs) < 2:
        raise ConfigError("degenerate ensemble: need at least 2 references")
    statistic_set = refs[0].safe_indices
    for ref in refs[1:]:
        if ref.space.size != refs[0].space.size:
            raise ConfigError("ensemble references must share one outcome space size")

    n_refs = len(refs)
    runs = cfg.runs_per_ref
    if runs < 1:
        raise ConfigError(f"runs_per_ref must be >= 1, got {runs}")
    q = cfg.quantizer
    bins = int(math.floor(1.0 / q + 0.5)) + 1
    rounds = cfg.rounds
    base_seed = cfg.seeds[0]

    # run k starts from reference k // runs with seed base_seed + k
    seeds = range(base_seed, base_seed + n_refs * runs)
    results = run_batch(
        (
            build_population(cfg.population, refs[k // runs], seed)
            for k, seed in enumerate(seeds)
        ),
        _evolution_config(cfg),
        seeds,
        monitors={"ens": statistic_set},
    )
    masses = np.empty((len(seeds), rounds + 1))
    for row, traj in enumerate(results):
        if isinstance(traj, SimulationError):
            raise traj
        masses[row] = [rec.monitor_mass["ens"] for rec in traj.records]
    # bin_counts[t][i][b] = number of runs of reference i whose statistic sat
    # in bin b at round t
    b = np.minimum(bins - 1, (masses / q).astype(np.int64))
    ref_index = np.repeat(np.arange(n_refs), runs)[:, None]
    cell = (np.arange(rounds + 1) * n_refs + ref_index) * bins + b
    bin_counts = (
        np.bincount(cell.ravel(), minlength=(rounds + 1) * n_refs * bins)
        .reshape(rounds + 1, n_refs, bins)
        .astype(np.float64)
    )

    total = float(n_refs * runs)
    series = tuple(
        float(mutual_information_plugin(bin_counts[t] / total))
        for t in range(rounds + 1)
    )
    return EnsembleMIResult(
        mi_series=series,
        quantizer=q,
        bins=bins,
        runs_per_ref=runs,
        n_refs=n_refs,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def format_value(v: float) -> str:
    """Fixed numeric formatting: 17 significant digits, infinities as inf."""
    f = float(v)
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    if math.isnan(f):
        return "nan"
    return "%.17g" % f


def _parse_value(v) -> float:
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        if v == "nan":
            return math.nan
        return float(v)
    return float(v)


def json_float(x: float):
    """JSON-ready float: non-finite values become their string names."""
    f = float(x)
    return f if math.isfinite(f) else format_value(f)


def trajectory_to_dict(traj: Trajectory) -> dict:
    """JSON-ready nested form; non-finite floats become their string names."""
    return {
        "seed": traj.seed,
        "probe_names": list(traj.probe_names),
        "monitors": {name: list(idx) for name, idx in traj.monitors.items()},
        "records": [
            {
                "round": rec.round,
                "values": {k: json_float(v) for k, v in rec.values.items()},
                "fired": list(rec.fired),
                "notes": list(rec.notes),
                "monitor_mass": {k: json_float(v) for k, v in rec.monitor_mass.items()},
                "monitor_absent": dict(rec.monitor_absent),
            }
            for rec in traj.records
        ],
    }


def csv_lines_from_dicts(traj_dicts: Sequence[dict]) -> list[str]:
    """CSV lines (no trailing newlines): header, then seed-major round rows."""
    if not traj_dicts:
        raise ValueError("no trajectories to export")
    probe_names = list(traj_dicts[0]["probe_names"])
    for td in traj_dicts[1:]:
        if list(td["probe_names"]) != probe_names:
            raise ValueError("trajectories disagree on probe columns")
    lines = ["round,seed," + ",".join(probe_names) if probe_names else "round,seed"]
    for td in sorted(traj_dicts, key=lambda d: int(d["seed"])):
        seed = int(td["seed"])
        for rec in td["records"]:
            cells = [str(int(rec["round"])), str(seed)]
            cells.extend(
                format_value(_parse_value(rec["values"][name])) for name in probe_names
            )
            lines.append(",".join(cells))
    return lines


def save_trajectories_csv(trajectories: Iterable[Trajectory], path: str) -> None:
    lines = csv_lines_from_dicts([trajectory_to_dict(t) for t in trajectories])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def save_trajectories_json(trajectories: Iterable[Trajectory], path: str) -> None:
    payload = {"trajectories": [trajectory_to_dict(t) for t in trajectories]}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def load_trajectory_dicts(path: str) -> list[dict]:
    """Read a stored trajectory JSON (bundle, list, or single trajectory)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"trajectory file {path!r} is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "trajectories" in data:
        data = data["trajectories"]
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list) or not all(isinstance(d, dict) for d in data):
        raise ConfigError(f"trajectory file {path!r} has an unrecognized layout")
    for td in data:
        if "records" not in td or "seed" not in td or "probe_names" not in td:
            raise ConfigError(
                f"trajectory file {path!r} entries need seed, probe_names, records"
            )
    return data
