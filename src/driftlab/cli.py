"""Command line entry points.

    driftlab simulate CONFIG [--seed S] [--csv PATH] [--json PATH] [--quiet]
    driftlab verify-lemmas [--trials N] [--seed S] [--json PATH] [--quiet]
    driftlab compare CONFIG [--policies FILE] [--seed S] [--json PATH] [--quiet]
    driftlab ensemble-mi CONFIG [--seed S] [--csv PATH] [--json PATH] [--quiet]
    driftlab export TRAJECTORY --format {csv,json} [--out PATH]

Exit status: 0 on success, 1 when a lemma check fails or a simulation
aborts (a worker process that dies mid-run included), 2 on configuration
problems (bad files, bad keys, bad values).
--seed rebases the sweep to S..S+n-1 while keeping its length.
compare runs the arms of the --policies file, or the four built-in policies.
export reads a file that simulate --json wrote and writes its trajectories
with simulate's own writers: the bytes of simulate's --csv or --json file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from .errors import ConfigError, SimulationError
from .harness import (
    ComparisonResult,
    DriftResult,
    EnsembleMIResult,
    column_median,
    _write_text,
    format_value,
    json_text,
    load_experiment_config,
    load_trajectories,
    parse_policies_json,
    plain,
    run_drift_experiment,
    run_ensemble_mi,
    run_intervention_comparison,
    save_trajectories_csv,
    save_trajectories_json,
)
from .oracle import run_all_lemma_checks


def _say(quiet: bool, text: str) -> None:
    if not quiet:
        print(text)


def _write_json(path: str, payload: dict, quiet: bool) -> None:
    _write_text(path, [json_text(payload)])
    _say(quiet, f"json -> {path}")


def _load_cfg(args):
    cfg = load_experiment_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed_base(args.seed)
    return cfg


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _print_drift_summary(result: DriftResult, quiet: bool) -> None:
    cfg = result.config
    _say(
        quiet,
        f"drift sweep: {len(cfg.seeds)} seeds x {cfg.evolution.rounds} rounds, "
        f"space {cfg.space_size}, sample {cfg.evolution.sample_size}",
    )
    _say(
        quiet,
        f"monitored rare-safe set: {len(result.monitored_set)} outcomes",
    )
    for name in result.probes:
        trend = result.trends.get(name)
        if trend is None:
            continue
        _say(
            quiet,
            f"{name:<16s} first={format_value(trend.first_median):<12s} "
            f"last={format_value(trend.last_median):<12s} "
            f"spearman={trend.rank_correlation:+.3f}",
        )
    counts = result.class_counts()
    _say(
        quiet,
        "terminal classes: "
        + "  ".join(f"{label}={count}" for label, count in counts.items()),
    )
    if result.low_visibility_rounds:
        median_low = column_median(list(result.low_visibility_rounds.values()))
        _say(
            quiet,
            f"low-visibility rounds (monitored mass <= c/N): median "
            f"{format_value(median_low)} of {cfg.evolution.rounds + 1}",
        )
    for seed, reason in sorted(result.failures.items()):
        print(f"seed {seed} failed: {reason}", file=sys.stderr)


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    result = run_drift_experiment(cfg)
    trajs = [result.trajectories[s] for s in sorted(result.trajectories)]
    if args.csv and trajs:
        save_trajectories_csv(trajs, args.csv)
        _say(args.quiet, f"csv -> {args.csv}")
    if args.json and trajs:
        save_trajectories_json(trajs, args.json)
        _say(args.quiet, f"json -> {args.json}")
    _print_drift_summary(result, args.quiet)
    return 1 if result.failures else 0


# ---------------------------------------------------------------------------
# verify-lemmas
# ---------------------------------------------------------------------------


def cmd_verify_lemmas(args) -> int:
    reports = run_all_lemma_checks(seed=args.seed, trials=args.trials)
    for report in reports:
        _say(args.quiet, report.line())
    all_passed = all(r.passed for r in reports)
    if args.json:
        payload = {"passed": all_passed, "reports": [plain(asdict(r)) for r in reports]}
        _write_json(args.json, payload, args.quiet)
    if not all_passed:
        for r in reports:
            if not r.passed:
                print(f"lemma check failed: {r.line()}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _nanmedian(values) -> float:
    """Median of the values that are not nan; nan when none is."""
    arr = np.asarray(list(values), dtype=np.float64)
    return float(column_median(arr[~np.isnan(arr)]))


def _print_comparison(result: ComparisonResult, quiet: bool) -> None:
    rows = [(result.baseline, None)]
    rows.extend((arm, result.paired_kl_diff[arm.name]) for arm in result.arms)
    for arm, diffs in rows:
        line = (
            f"{arm.name:<16s} terminal KL median={format_value(arm.median_terminal_kl):<12s} "
            f"safe mass median={format_value(arm.median_terminal_safe_mass):<12s}"
        )
        if diffs is not None:
            line += f" paired dKL median={format_value(_nanmedian(diffs.values()))}"
        _say(quiet, line)
        for seed, reason in sorted(arm.failures.items()):
            print(f"{arm.name} seed {seed} failed: {reason}", file=sys.stderr)


def cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    specs = None
    if args.policies:
        try:
            with open(args.policies, "r", encoding="utf-8") as fh:
                specs = parse_policies_json(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read policies file {args.policies!r}: {exc}") from exc
    result = run_intervention_comparison(cfg, specs)
    _print_comparison(result, args.quiet)
    if args.json:
        _write_json(args.json, plain(asdict(result)), args.quiet)
    failed = bool(result.baseline.failures) or any(a.failures for a in result.arms)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# ensemble-mi
# ---------------------------------------------------------------------------


def _print_ensemble(result: EnsembleMIResult, quiet: bool) -> None:
    series = result.mi_series
    rises = [series[t + 1] - series[t] for t in range(len(series) - 1)]
    max_rise = max(rises) if rises else 0.0
    _say(
        quiet,
        f"ensemble MI: refs={result.n_refs} runs/ref={result.runs_per_ref} "
        f"bins={result.bins} quantizer={result.quantizer:g}",
    )
    _say(
        quiet,
        f"round 0 MI={format_value(series[0])}  terminal MI={format_value(series[-1])}  "
        f"max one-step rise={format_value(max_rise)}",
    )


def cmd_ensemble_mi(args) -> int:
    cfg = _load_cfg(args)
    result = run_ensemble_mi(cfg)
    _print_ensemble(result, args.quiet)
    if args.csv:
        rows = "".join(f"{t},{format_value(v)}\n" for t, v in enumerate(result.mi_series))
        _write_text(args.csv, ["round,mi\n", rows])
        _say(args.quiet, f"csv -> {args.csv}")
    if args.json:
        _write_json(args.json, plain(asdict(result)), args.quiet)
    return 0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def cmd_export(args) -> int:
    """Write a stored trajectory file again with simulate's own writers."""
    trajectories = load_trajectories(args.trajectory)
    out = args.out or sys.stdout
    if args.format == "json":
        save_trajectories_json(trajectories, out)
        return 0
    try:
        save_trajectories_csv(trajectories, out)
    except ValueError as exc:  # no trajectories, or probe columns that disagree or miss a round
        raise ConfigError(str(exc)) from exc
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Closed-loop multi-agent drift simulator and lemma verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="key=value experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="rebase the seed sweep to start here")
        p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")

    p_sim = sub.add_parser("simulate", help="isolated drift sweep")
    add_common(p_sim)
    p_sim.add_argument("--csv", default=None, help="write trajectories as CSV")
    p_sim.add_argument("--json", default=None, help="write trajectories as JSON")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify-lemmas", help="run all exact lemma checks")
    p_ver.add_argument("--trials", type=int, default=1000,
                       help="randomized trials per check (default 1000)")
    p_ver.add_argument("--seed", type=int, default=0, help="base seed for the checks")
    p_ver.add_argument("--json", default=None, help="write machine-readable reports")
    p_ver.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    p_ver.set_defaults(func=cmd_verify_lemmas)

    p_cmp = sub.add_parser("compare", help="baseline vs mitigation arms")
    add_common(p_cmp)
    p_cmp.add_argument("--policies", default=None,
                       help="JSON list of policy arms (default: the four built-ins)")
    p_cmp.add_argument("--json", default=None, help="write the comparison as JSON")
    p_cmp.set_defaults(func=cmd_compare)

    p_ens = sub.add_parser("ensemble-mi", help="reference-ensemble information decay")
    add_common(p_ens)
    p_ens.add_argument("--csv", default=None, help="write the round,mi series as CSV")
    p_ens.add_argument("--json", default=None, help="write the MI result as JSON")
    p_ens.set_defaults(func=cmd_ensemble_mi)

    p_exp = sub.add_parser("export", help="convert stored trajectories")
    p_exp.add_argument("trajectory", help="trajectory JSON written by simulate")
    p_exp.add_argument("--format", choices=("csv", "json"), required=True)
    p_exp.add_argument("--out", default=None, help="output path (default stdout)")
    p_exp.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ChildProcessError) as exc:  # the latter, a dead worker, is an OSError
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a read that fails is a ConfigError already
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("config error: the configured run does not fit in memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
