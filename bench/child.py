"""Run one driftlab CLI invocation in this fresh process and report its cost.

    python3 bench/child.py SPEC

SPEC is a JSON object written by run.py:
    root      checkout root; driftlab is imported from ROOT/src
    config    workload config, loaded once during set-up
    argv      arguments for driftlab.cli.main
    outputs   files the invocation writes; each is hashed afterwards
    trace     true to wrap every layer (see spans.py)
    spans     where a traced run writes its raw spans

The last stdout line is one JSON object: setup_s, wall_s, peak_rss_mb, the
CLI exit code (null when it raised), the error text, output sha256 digests,
library versions and, when traced, the per-layer summary.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback


def _sha256(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)

    # set-up: what every CLI invocation pays before its subcommand runs
    t0 = time.perf_counter()
    import driftlab.cli
    from driftlab.harness import load_experiment_config

    load_experiment_config(spec["config"])
    setup_s = time.perf_counter() - t0

    if not os.path.abspath(driftlab.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"driftlab was imported from {driftlab.cli.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    error = None
    c1 = time.process_time()
    t1 = time.perf_counter_ns()
    try:
        code = driftlab.cli.main(spec["argv"])
    except (Exception, SystemExit):
        code = None
        error = traceback.format_exc()
    wall_ns = time.perf_counter_ns() - t1
    cpu_s = time.process_time() - c1

    import numpy
    import scipy

    report = {
        "setup_s": setup_s,
        "wall_s": wall_ns / 1e9,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit": code,
        "error": error,
        "digests": {path: _sha256(path) for path in spec["outputs"]},
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        report["layers"] = tracer.summary(wall_ns)
        tracer.save(spec["spans"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
