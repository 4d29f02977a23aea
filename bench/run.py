"""driftlab benchmark: four CLI workloads, timed end to end from outside.

    python3 bench/run.py --workload drift --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

Each timed run is one fresh child process (bench/child.py) that imports
driftlab from src/, loads the workload config and calls driftlab.cli.main
once. That is a closed loop with one client: one process at a time, numpy
held to one thread. Runs repeat until --seconds have passed and medians are
reported. --seed is the base seed of the workload's sweep, passed through as
the CLI's --seed.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced runs and reports the per-layer metrics (spans.py). --workload all runs
every workload both ways. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. Full results, with machine
information and every sample, are written to .bench_out/results/.

A run fails when the child exits non-zero, the CLI raises or returns
non-zero, or an output is wrong: it differs between runs of one workload and
seed, between traced and untraced runs, from the golden digest recorded for
seed 0, or from the expected shape. Any failure makes the exit status 1.
Without driftlab sources next to this directory the exit status is 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

# stop starting children when the next one could push a run past this
MAX_RUN_S = 150.0
CHILD_TIMEOUT_S = 150.0

DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# output shape checks: each returns a problem description or None
# ---------------------------------------------------------------------------


def check_trajectory_csv(text: str, seed: int, *, seeds: int, rounds: int) -> str | None:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("round,seed,"):
        return "trajectory CSV header is missing"
    width = lines[0].count(",") + 1
    if len(lines) != 1 + seeds * (rounds + 1):
        return f"trajectory CSV has {len(lines) - 1} rows, expected {seeds * (rounds + 1)}"
    seen = set()
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != width:
            return f"trajectory CSV row has {len(cells)} cells, expected {width}"
        seen.add(int(cells[1]))
        for cell in cells[2:]:
            float(cell)
    if seen != set(range(seed, seed + seeds)):
        return "trajectory CSV seeds do not match the requested sweep"
    return None


def check_comparison_json(text: str, seed: int, *, seeds: int, arms: tuple[str, ...]) -> str | None:
    data = json.loads(text)
    names = tuple(arm["name"] for arm in data["arms"])
    if names != arms:
        return f"comparison arms are {names}, expected {arms}"
    expected = {str(s) for s in range(seed, seed + seeds)}
    for arm in [data["baseline"], *data["arms"]]:
        if arm["failures"] or set(arm["terminal_kl"]) != expected:
            return f"arm {arm['name']} does not cover every seed"
    return None


def check_mi_csv(text: str, seed: int, *, rounds: int) -> str | None:
    lines = text.splitlines()
    if lines[:1] != ["round,mi"] or len(lines) != rounds + 2:
        return f"MI CSV should hold a header and {rounds + 1} rows"
    series = [float(line.split(",")[1]) for line in lines[1:]]
    if not all(math.isfinite(v) and v >= 0.0 for v in series):
        return "MI series holds a negative or non-finite value"
    # the two references' safe masses (0.95 and 0.75) fall in different bins,
    # so round 0 reveals the reference exactly: ln 2 nats
    if abs(series[0] - math.log(2.0)) > 1e-12:
        return f"round-0 MI is {series[0]!r}, expected ln 2"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One CLI invocation; `work` counts runs x rounds x arms per invocation."""

    command: str
    config: str
    output_flag: str
    output_name: str
    work: int
    check: Callable[[str, int], str | None]
    golden: str | None = None  # sha256 of the output at DEFAULT_SEED


ARMS = ("verifier", "cooling", "diversity", "entropy-release")
WORKLOAD_DIR = BENCH_DIR / "workloads"

# Why each workload exists is written down in bench/README.md.
WORKLOADS: dict[str, Workload] = {
    "drift": Workload(
        "simulate", str(WORKLOAD_DIR / "drift.cfg"), "--csv", "drift.csv",
        work=200 * 100,
        check=partial(check_trajectory_csv, seeds=200, rounds=100),
        golden="3b472b354ac995fe4b277a2e6906a0bb0d716b25ba8711bd7fe20ffec747f615",
    ),
    "compare": Workload(
        "compare", str(WORKLOAD_DIR / "compare.cfg"), "--json", "compare.json",
        work=40 * 100 * (1 + len(ARMS)),
        check=partial(check_comparison_json, seeds=40, arms=ARMS),
        golden="4d7bc296dc9173b43d3cc92dd41424161a41c9ec1fae8d3f4bdd4cbea4691558",
    ),
    "ensemble": Workload(
        "ensemble-mi", str(WORKLOAD_DIR / "ensemble.cfg"), "--csv", "ensemble.csv",
        work=2 * 200 * 100,
        check=partial(check_mi_csv, rounds=100),
        golden="708168db32c2ff581a7d5760d9765c3ef764f0518f18241146d77b586b7e4660",
    ),
    "wide": Workload(
        "simulate", str(WORKLOAD_DIR / "wide.cfg"), "--csv", "wide.csv",
        work=6 * 100,
        check=partial(check_trajectory_csv, seeds=6, rounds=100),
        golden="c94985db6e5748f743734f414a7a691bfb4b5903dfeb1b62c330632b25021563",
    ),
}


# ---------------------------------------------------------------------------
# one child process
# ---------------------------------------------------------------------------


def clean_env() -> dict[str, str]:
    """The parent's environment without DRIFTLAB_* overrides, BLAS at 1 thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRIFTLAB_")}
    env.pop("PYTHONPATH", None)  # the child puts ROOT/src first itself
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(spec: dict) -> tuple[dict | None, str | None]:
    """(report, problem) for one invocation; problem is None on success."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
            env=clean_env(),
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"child ran longer than {CHILD_TIMEOUT_S:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"child exited {proc.returncode}: {' | '.join(tail)}"
    report = json.loads(lines[-1])
    if report["exit"] != 0:
        detail = (report["error"] or "").strip().splitlines()[-1:]
        return report, f"driftlab returned {report['exit']} {' '.join(detail)}".rstrip()
    return report, None


# ---------------------------------------------------------------------------
# one measurement: repeated children for one workload, seed and trace mode
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    name: str
    seed: int
    trace: bool
    samples: list[dict]
    metrics: dict[str, float]
    units: dict[str, str]

    @property
    def problems(self) -> list[str]:
        return [s["problem"] for s in self.samples if s["problem"] is not None]

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return len(self.problems)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


END_TO_END_UNITS = {"wall_s": "s", "seed_rounds_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(metric: str) -> str:
    if metric.endswith(".self_ms"):
        return "ms"
    if metric.endswith((".calls", ".seed_rounds", ".records", ".inspected", ".checks")):
        return "count"
    if metric.endswith(".calls_per_round"):
        return "calls/round"
    if metric.endswith(".calls_per_record"):
        return "calls/record"
    return "ratio"


def check_output(
    wl: Workload, seed: int, output: Path, digest: str | None, reference: str | None,
    checked: set[str],
) -> str | None:
    """The byte-identity gate for one run's output; None when it passes."""
    if digest is None:
        return "no output was written"
    if digest != reference:
        return f"output digest {digest[:12]} differs from the first run's {reference[:12]}"
    if seed == DEFAULT_SEED and wl.golden and digest != wl.golden:
        return f"output digest {digest[:12]} differs from the golden {wl.golden[:12]}"
    if digest not in checked:
        checked.add(digest)
        return wl.check(output.read_text(encoding="utf-8"), seed)
    return None


def measure(name: str, wl: Workload, seed: int, seconds: float, trace: bool) -> Measurement:
    """Run children until `seconds` have passed; in trace mode, alternate
    untraced and traced children.

    At any seed but the default, one untimed extra child first runs the
    workload at the default seed, so every run is checked against the golden.
    """
    work_dir = OUT_DIR / "work" / name
    work_dir.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "spans").mkdir(parents=True, exist_ok=True)
    output = work_dir / wl.output_name
    samples: list[dict] = []
    references: dict[int, str | None] = {}
    checked: set[str] = set()

    def one_run(kind: str, run_seed: int) -> float:
        spec = {
            "root": str(ROOT),
            "config": wl.config,
            "argv": [
                wl.command, wl.config, "--seed", str(run_seed),
                wl.output_flag, str(output), "--quiet",
            ],
            "outputs": [str(output)],
            "trace": kind == "traced",
            "spans": str(OUT_DIR / "spans" / f"{name}-seed{run_seed}.npz"),
        }
        output.unlink(missing_ok=True)
        t = time.perf_counter()
        report, problem = run_child(spec)
        duration = time.perf_counter() - t
        digest = report["digests"][str(output)] if report else None
        if problem is None:
            if digest is not None:
                references.setdefault(run_seed, digest)
            problem = check_output(wl, run_seed, output, digest, references.get(run_seed), checked)
        samples.append({"kind": kind, "problem": problem, "digest": digest, "report": report})
        return duration

    if seed != DEFAULT_SEED and wl.golden:
        one_run("golden", DEFAULT_SEED)
    start = time.perf_counter()
    longest = 0.0
    while True:
        timed = [s for s in samples if s["kind"] != "golden"]
        kind = "traced" if trace and len(timed) % 2 == 1 else "plain"
        longest = max(longest, one_run(kind, seed))
        elapsed = time.perf_counter() - start
        enough = len(timed) + 1 >= (2 if trace else 1) or samples[-1]["problem"] is not None
        if (elapsed >= seconds and enough) or elapsed + longest > MAX_RUN_S:
            break

    good = [s for s in samples if s["problem"] is None]
    plain = [s["report"] for s in good if s["kind"] == "plain"]
    traced = [s["report"] for s in good if s["kind"] == "traced"]
    metrics: dict[str, float] = {}
    if plain and not trace:
        wall = statistics.median(r["wall_s"] for r in plain)
        metrics = {
            "wall_s": wall,
            "seed_rounds_per_s": wl.work / wall,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    elif plain and traced:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(r["layers"][key] for r in traced)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead"] = traced_wall / statistics.median(r["wall_s"] for r in plain)
    units = {key: END_TO_END_UNITS[key] if not trace else layer_unit(key) for key in metrics}
    return Measurement(name, seed, trace, samples, metrics, units)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=str(ROOT), capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_info() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (
            line.split(":", 1)[1].strip()
            for line in cpuinfo.splitlines()
            if line.startswith("model name")
        ),
        platform.processor() or None,
    )
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = (_read(f"{base}/{f}") for f in ("level", "type", "size"))
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    # only ROOT's own repository: a plain checkout may sit inside another one
    commit = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain") if commit else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
        "platform": platform.platform(),
        "git_commit": commit,
        "git_dirty": bool(status) if status is not None else None,
    }


def describe(m: Measurement, machine: dict, seconds: float) -> tuple[list[str], dict]:
    """Printable lines and the result-file payload for one measurement."""
    versions = next((s["report"]["versions"] for s in m.samples if s["report"]), {})
    fail_ratio = m.failed / m.attempted
    lines = [
        f"== {m.name}  seed={m.seed}  trace={int(m.trace)}  seconds={seconds:g}",
        "machine: python {python} numpy {numpy} scipy {scipy}".format(
            **{k: versions.get(k, "?") for k in ("python", "numpy", "scipy")}
        )
        + f" | nproc {machine['nproc']} | {machine['cpu_model']} | L2 {machine['l2_cache']}"
        f" L3 {machine['l3_cache']} | commit {machine['git_commit']} dirty={machine['git_dirty']}",
        f"runs: {m.attempted} attempted, {m.failed} failed",
    ]
    lines.extend(f"  problem: {p}" for p in m.problems[:5])
    plain_walls = [
        s["report"]["wall_s"] for s in m.samples if s["problem"] is None and s["kind"] == "plain"
    ]
    wall_q = _quartiles(plain_walls) if plain_walls else None
    if not m.trace:
        for key, value in m.metrics.items():
            line = f"  {key:<20s} {value:14.6f} {m.units[key]}"
            if key == "wall_s":
                line += f"   (q1 {wall_q[0]:.4f}, q3 {wall_q[2]:.4f}, n={len(plain_walls)})"
            lines.append(line)
        lines.append(f"  {'fail_ratio':<20s} {fail_ratio:14.6f} ratio")
    elif m.metrics:
        shares = sorted(
            ((k[: -len(".share")], v) for k, v in m.metrics.items() if k.endswith(".share")),
            key=lambda kv: -kv[1],
        )
        for layer, share in shares:
            if share > 0.0:
                lines.append(
                    f"  {layer:<32s} share {share:7.3f}"
                    f"  self {m.metrics[layer + '.self_ms']:10.1f} ms"
                    f"  calls {m.metrics[layer + '.calls']:.0f}"
                )
        for key, value in m.metrics.items():
            if not key.endswith((".share", ".self_ms", ".calls")):
                lines.append(f"  {key:<44s} {value:12.4f} {m.units[key]}")
    payload = {
        "workload": m.name,
        "seed": m.seed,
        "seconds": seconds,
        "trace": m.trace,
        "machine": machine,
        "versions": versions,
        "attempted": m.attempted,
        "failed": m.failed,
        "fail_ratio": fail_ratio,
        "problems": m.problems,
        "wall_s_quartiles": wall_q,
        "metrics": {k: {"value": v, "unit": m.units[k]} for k, v in m.metrics.items()},
        "samples": [
            {
                "kind": s["kind"],
                "problem": s["problem"],
                "digest": s["digest"],
                **{
                    k: s["report"][k]
                    for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
                    if s["report"]
                },
            }
            for s in m.samples
        ],
    }
    return lines, payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="driftlab end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base seed of the sweep")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "driftlab" / "cli.py", WORKLOAD_DIR) if not p.exists()]
    if missing:
        print(f"bench: cannot run, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    machine = machine_info()
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    complete = True
    metrics: dict[str, dict] = {}
    for name, trace in plan:
        m = measure(name, WORKLOADS[name], args.seed, args.seconds, trace)
        lines, payload = describe(m, machine, args.seconds)
        path = OUT_DIR / "results" / f"{name}-seed{args.seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print("\n".join(lines))
        print(f"results -> {path.relative_to(ROOT)}")
        attempted += m.attempted
        failed += m.failed
        complete = complete and bool(m.metrics)
        prefix = f"{name}." if len(plan) > 1 else ""
        for key, value in m.metrics.items():
            metrics[prefix + key] = {"value": value, "unit": m.units[key]}
    correct = failed == 0 and complete
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
