"""In-memory span recorder and the map from driftlab layers to functions.

A traced run wraps driftlab's public functions from outside the package.
`install` replaces every binding of a wrapped function in every loaded
``driftlab`` module (so ``interventions.mixture`` and the names ``cli``
imports from ``harness`` are traced too) and patches methods on their
classes. If a later refactor routes work around a wrapper, that time lands
in the caller's self time or in ``trace.unattributed_share`` instead of
disappearing.

Spans are kept in four parallel integer arrays while the run lasts and are
reduced to per-layer self time, call counts and shares afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# layer name -> the functions whose calls are that layer's spans, written as
# "module:attribute" or "module:Class.method"
LAYERS: dict[str, tuple[str, ...]] = {
    "core.validate": (
        "driftlab.core:ProbVector.__post_init__",
        "driftlab.evolution:Population.__post_init__",
    ),
    "evolution.setup": ("driftlab.evolution:make_rng",),
    "evolution.mixture": ("driftlab.evolution:mixture",),
    "evolution.selection": ("driftlab.evolution:apply_selection",),
    "evolution.sampling": ("driftlab.evolution:sample_dataset",),
    "evolution.update": (
        "driftlab.evolution:update_agents",
        "driftlab.evolution:roll_memory",
    ),
    "evolution.loop": ("driftlab.evolution:run",),
    "metrics.kl": ("driftlab.metrics:kl_divergence", "driftlab.metrics:cross_entropy"),
    "metrics.entropy": ("driftlab.metrics:shannon_entropy",),
    "metrics.decomposition": ("driftlab.metrics:kl_safe_set_decomposition",),
    "metrics.coverage": ("driftlab.metrics:coverage",),
    "metrics.mi": ("driftlab.metrics:mutual_information_plugin",),
    "interventions.verifier": ("driftlab.interventions:VerifierPolicy.filter_dataset",),
    "interventions.cooling": ("driftlab.interventions:CoolingPolicy.cool",),
    "interventions.diversity": ("driftlab.interventions:DiversityPolicy.adjust_training",),
    "interventions.entropy_release": (
        "driftlab.interventions:EntropyReleasePolicy.adjust_population",
        "driftlab.interventions:EntropyReleasePolicy.prune_buffer",
    ),
    "interventions.schedule": ("driftlab.interventions:Schedule.fires",),
    "harness.config": ("driftlab.harness:load_experiment_config",),
    "harness.setup": (
        "driftlab.harness:build_reference",
        "driftlab.harness:build_population",
        "driftlab.harness:realize_policy",
        "driftlab.metrics:resolve_probes",
    ),
    "harness.runner": (
        "driftlab.harness:run_drift_experiment",
        "driftlab.harness:run_intervention_comparison",
        "driftlab.harness:run_ensemble_mi",
    ),
    "harness.summary": ("driftlab.harness:compute_trend", "driftlab.harness:classify_terminal"),
    "harness.export": (
        "driftlab.harness:save_trajectories_csv",
        "driftlab.harness:save_trajectories_json",
    ),
    "cli": (
        "driftlab.cli:cmd_simulate",
        "driftlab.cli:cmd_compare",
        "driftlab.cli:cmd_ensemble_mi",
    ),
}


def _count_run(fn, counts: Counter):
    @functools.wraps(fn)
    def counted(pop0, cfg, *args, **kwargs):
        traj = fn(pop0, cfg, *args, **kwargs)
        counts["seed_rounds"] += int(cfg.rounds)
        counts["records"] += len(traj.records)
        return traj

    return counted


def _count_verifier(fn, counts: Counter):
    @functools.wraps(fn)
    def counted(self, data, rng):
        inspected = len(data) if self.budget is None else min(self.budget, len(data))
        counts["verifier.inspected"] += inspected
        kept = fn(self, data, rng)  # raises when every sample is dropped: 0 kept
        counts["verifier.kept"] += inspected - (len(data) - len(kept))
        return kept

    return counted


def _count_cooling(fn, counts: Counter):
    @functools.wraps(fn)
    def counted(self, pop, checkpoint):
        result = fn(self, pop, checkpoint)
        counts["cooling.checks"] += 1
        counts["cooling.rollbacks"] += int(result[2])
        return result

    return counted


# targets whose arguments or results feed the ratios in Tracer.summary
_COUNTERS = {
    "driftlab.evolution:run": _count_run,
    "driftlab.interventions:VerifierPolicy.filter_dataset": _count_verifier,
    "driftlab.interventions:CoolingPolicy.cool": _count_cooling,
}


class Tracer:
    """Records one span per call of a wrapped function.

    Span i has layer ids[i], parent span parents[i] (-1 at the top) and
    start/end times in perf_counter nanoseconds.
    """

    def __init__(self):
        self.layers = list(LAYERS)
        self.ids = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, layer: str, fn):
        layer_id = self.layers.index(layer)
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def summary(self, wall_ns: int) -> dict[str, float]:
        """Per-layer self_ms, calls and share of wall_ns, plus the ratios.

        A ratio whose base is 0 (no verifier, no cooling) reads 0; the base
        is reported next to it.
        """
        n = len(self.layers)
        self_ns = [0] * n
        calls = [0] * n
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        for i in range(len(ids)):
            dur = ends[i] - starts[i]
            self_ns[ids[i]] += dur
            calls[ids[i]] += 1
            if parents[i] >= 0:
                self_ns[ids[parents[i]]] -= dur
        out: dict[str, float] = {}
        for layer, ns, count in zip(self.layers, self_ns, calls):
            out[f"{layer}.self_ms"] = ns / 1e6
            out[f"{layer}.calls"] = count
            out[f"{layer}.share"] = ns / wall_ns
        c = self.counts
        seed_rounds, records = c["seed_rounds"], c["records"]
        calls_of = dict(zip(self.layers, calls))

        def ratio(num, den):
            return num / den if den else 0.0

        out["trace.seed_rounds"] = seed_rounds
        out["trace.records"] = records
        out["evolution.mixture.calls_per_round"] = ratio(calls_of["evolution.mixture"], seed_rounds)
        out["core.validate.calls_per_round"] = ratio(calls_of["core.validate"], seed_rounds)
        out["metrics.kl.calls_per_record"] = ratio(calls_of["metrics.kl"], records)
        out["interventions.verifier.inspected"] = c["verifier.inspected"]
        out["interventions.verifier.keep_ratio"] = ratio(
            c["verifier.kept"], c["verifier.inspected"]
        )
        out["interventions.cooling.checks"] = c["cooling.checks"]
        out["interventions.cooling.rollback_ratio"] = ratio(
            c["cooling.rollbacks"], c["cooling.checks"]
        )
        out["trace.unattributed_share"] = (wall_ns - sum(self_ns)) / wall_ns
        return out

    def save(self, path: str) -> None:
        """Write the raw spans as a numpy archive."""
        import numpy as np

        np.savez(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start_ns=np.frombuffer(self.starts, dtype=np.int64),
            end_ns=np.frombuffer(self.ends, dtype=np.int64),
        )


def _resolve(target: str):
    module_name, _, qualname = target.partition(":")
    owner = sys.modules[module_name]
    *class_path, attr = qualname.split(".")
    for part in class_path:
        owner = getattr(owner, part)
    return owner, attr, bool(class_path)


def install(tracer: Tracer) -> None:
    """Wrap every LAYERS target in every driftlab namespace that binds it."""
    import driftlab.cli  # noqa: F401  (loads every module the CLI uses)

    modules = [
        m for name, m in sys.modules.items() if name == "driftlab" or name.startswith("driftlab.")
    ]
    for layer, targets in LAYERS.items():
        for target in targets:
            owner, attr, is_method = _resolve(target)
            original = vars(owner)[attr]
            fn = original
            if target in _COUNTERS:
                fn = _COUNTERS[target](fn, tracer.counts)
            wrapped = tracer.wrap(layer, fn)
            if is_method:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
