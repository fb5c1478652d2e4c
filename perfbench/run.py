"""The repository benchmark: time-to-suite for batch synthesis and request
latency/throughput for the synthesis daemon.

Run from the repository root::

    python3 perfbench/run.py --workload synth-explicit --seed 1 --seconds 44 --trace 0

Workloads (see ``perfbench/README.md`` for why each one exists):
``synth-explicit``, ``synth-relational`` and ``serve-mixed``.

With ``--trace 0`` the run repeats untraced passes of the workload,
each in a fresh process (a fresh daemon for ``serve-mixed``), until
another pass of average length would end after ``--seconds`` (at least
one pass), and reports the medians of the end-to-end metrics over the
passes.  With ``--trace 1`` it makes one
untraced and one traced pass and reports the per-layer metrics, plus the
tracing overhead; the spans go to ``.perfbench/spans-<workload>.jsonl``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import benchlib
import serve
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("synth-explicit", "synth-relational", "serve-mixed")

END_TO_END = {
    "setup_s": "s",
    "suite_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "enumerator.candidates": "count",
    "enumerator.busy_s": "s",
    "canonical.busy_s": "s",
    "canonical.unique_ratio": "ratio",
    "relax.applications": "count",
    "relax.busy_s": "s",
    "minimality.checks": "count",
    "minimality.self_s": "s",
    "minimality.minimal_ratio": "ratio",
    "oracle.analyze_s": "s",
    "oracle.observable_s": "s",
    "oracle.analysis_hit_rate": "ratio",
    "oracle.observe_hit_rate": "ratio",
    "semantics.executions": "count",
    "alloy.analyze_s": "s",
    "alloy.sessions": "count",
    "alloy.compile_misses": "count",
    "alloy.compile_hit_rate": "ratio",
    "sat.queries": "count",
    "sat.reuse_rate": "ratio",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "suite.add_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.wire_s": "s",
    "service.dedup_hits": "count",
    "service.warm_hit_rate": "ratio",
    "service.repeat_share": "ratio",
    "trace.overhead_s": "s",
}

#: a child pass that takes longer than this is broken, not slow
PASS_TIMEOUT_S = 170


def batch_pass(workload: str, seed: int, trace_out: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "batch.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd += ["--spawned-at", repr(time.monotonic())]  # set-up starts here
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    cells = result["cells"]
    result["attempted"] = len(cells)
    result["failed"] = sum(1 for cell in cells if cell["problems"])
    result["problems"] = [p for cell in cells for p in cell["problems"]]
    result["jobs_per_s"] = len(cells) / result["suite_s"]
    return result


def one_pass(workload: str, seed: int, index: int, traced: bool) -> dict:
    trace_out = OUT / f"spans-{workload}.jsonl" if traced else None
    if workload == "serve-mixed":
        tracer = Tracer() if traced else None
        result = serve.serve_pass(
            ROOT, OUT / f"run-{os.getpid()}" / f"serve-{index}", seed, tracer
        )
        if tracer is not None:
            tracer.write_jsonl(trace_out)
        return result
    return batch_pass(workload, seed, trace_out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            passes = [one_pass(args.workload, args.seed, 0, traced=False),
                      one_pass(args.workload, args.seed, 1, traced=True)]
        else:
            passes = []
            start = time.monotonic()
            while True:
                passes.append(one_pass(args.workload, args.seed, len(passes), False))
                # stop before a pass of average length would end after --seconds
                elapsed = time.monotonic() - start
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
    finally:
        shutil.rmtree(OUT / f"run-{os.getpid()}", ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    for msg in problems[:20]:
        print(f"MISMATCH {msg}")
    if args.trace:
        untraced, traced = passes
        metrics = dict.fromkeys(PER_LAYER, 0)
        metrics.update(traced["layers"])
        metrics["trace.overhead_s"] = traced["suite_s"] - untraced["suite_s"]
        units = PER_LAYER
    else:
        metrics = {
            name: statistics.median(p[name] for p in passes) for name in END_TO_END
        }
        units = END_TO_END
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<26s} {value:>14.6g} {units[name]}")
    samples = passes[0].get("latency_samples")
    if samples:
        print(f"  latency samples per pass: {samples} (highest percentile with "
              f">= 10 samples beyond it: p{benchlib.highest_percentile(samples)})")
    if "shape_counts" in passes[0]:
        print(f"  request shapes: {json.dumps(passes[0]['shape_counts'])}")
        print(f"  service.repeat_share "
              f"{passes[0]['layers']['service.repeat_share']:.4f}")
    print(f"  failed_share {failed / attempted:.4f} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
