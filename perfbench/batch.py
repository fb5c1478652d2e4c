"""One pass of a batch workload (``synth-explicit`` / ``synth-relational``)
in a fresh process, so every pass starts with empty in-memory caches.

Run by ``run.py`` as::

    python3 perfbench/batch.py --workload synth-explicit --seed 1 \
        --spawned-at <time.monotonic() just before the spawn> [--trace-out F]

and prints one JSON object on stdout.  Without ``--trace-out`` each cell
runs through ``run_sequential`` (the loop ``synthesize`` runs for these
options) over a checker built during set-up.  With it, the pass mirrors
that loop through the public layer calls, recording a span around each
one, and writes the spans to ``F`` as JSONL.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

import benchlib
from spans import Tracer, layer_totals


class OracleProxy:
    """Times ``analyze`` / ``observable`` calls into an oracle."""

    def __init__(self, tracer: Tracer, oracle, layer: str):
        self._tracer = tracer
        self._oracle = oracle
        self._analyze = f"{layer}.analyze"
        self._observable = f"{layer}.observable"

    def analyze(self, test):
        with self._tracer.span(self._analyze):
            return self._oracle.analyze(test)

    def observable(self, test, constraint):
        with self._tracer.span(self._observable):
            return self._oracle.observable(test, constraint)

    def __getattr__(self, name):
        return getattr(self._oracle, name)


class RelaxProxy:
    """Times and counts the calls into one relaxation."""

    def __init__(self, tracer: Tracer, relaxation):
        self._tracer = tracer
        self._relaxation = relaxation
        self.name = relaxation.name

    def applications(self, test, vocab):
        with self._tracer.span("relax.applications"):
            apps = list(self._relaxation.applications(test, vocab))
        self._tracer.counts["relax.applications"] += len(apps)
        return apps

    def apply(self, test, app, vocab):
        with self._tracer.span("relax.apply"):
            return self._relaxation.apply(test, app, vocab)

    def __getattr__(self, name):
        return getattr(self._relaxation, name)


def untraced_cell(model, opts, checker):
    """Run one cell; return (result, suite_s, per-candidate latencies).

    A reject filter that never rejects stamps each candidate as the
    enumerator hands it over; the gap to the next stamp is the time that
    candidate spent in the pipeline (plus enumerating its successor)."""
    from repro.core.synthesis import run_sequential

    stamps: list[float] = []

    def stamp(_test) -> bool:
        stamps.append(time.perf_counter())
        return False

    opts.reject = stamp
    result = run_sequential(model, opts, checker)
    stamps.append(time.perf_counter())
    latencies = [b - a for a, b in zip(stamps, stamps[1:])]
    return result, stamps[-1] - stamps[0], latencies


def traced_cell(tracer, key, model, opts, checker, layer):
    """The sequential synthesis loop, rebuilt from public calls with a
    span around each call into a layer.  Returns (per_axiom, union,
    suite_s) — the suites must match the untraced run's."""
    from repro import MinimalityChecker, TestSuite, canonical_form
    from repro.core.enumerator import enumerate_tests

    oracle = OracleProxy(tracer, checker.oracle, layer)
    relaxations = tuple(RelaxProxy(tracer, r) for r in checker.relaxations)
    mirror = MinimalityChecker(
        model, opts.mode, relaxations=relaxations, oracle=oracle
    )
    axiom_names = opts.axiom_names(model)
    per_axiom = {
        name: TestSuite(model.name, name, opts.exact_symmetry)
        for name in axiom_names
    }
    union = TestSuite(model.name, "union", opts.exact_symmetry)
    stream = enumerate_tests(model.vocabulary, opts.resolved_config(model))
    seen = set()
    counts = tracer.counts
    first = None
    index = 0
    while True:
        request = f"{key}#{index}"
        with tracer.span("enumerator.next", request):
            test = next(stream, None)
        if test is None:
            break
        if first is None:
            first = time.perf_counter()
        index += 1
        counts["enumerator.candidates"] += 1
        with tracer.span("canonical.form", request):
            canon = canonical_form(test)
        if canon in seen:
            continue
        seen.add(canon)
        counts["canonical.unique"] += 1
        minimal_for = []
        witness = None
        for name in axiom_names:
            with tracer.span("minimality.check", request):
                result = mirror.check(test, name)
            counts["minimality.checks"] += 1
            if result.is_minimal:
                counts["minimality.minimal"] += 1
                minimal_for.append(name)
                witness = result.witness
                with tracer.span("suite.add", request):
                    per_axiom[name].add(test, result.witness, [name])
        if minimal_for:
            with tracer.span("suite.add", request):
                union.add(test, witness, minimal_for)
    return per_axiom, union, time.perf_counter() - first


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, layer: str, oracle_counts: dict) -> dict:
    """The per-layer metrics of a traced batch pass; ``oracle_counts``
    are the summed raw counters of the ``layer`` oracle."""
    totals = layer_totals(tracer.spans)
    counts = tracer.counts

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    e = oracle_counts if layer == "oracle" else {}
    a = oracle_counts if layer == "alloy" else {}
    return {
        "enumerator.candidates": counts["enumerator.candidates"],
        "enumerator.busy_s": total("enumerator.next"),
        "canonical.busy_s": total("canonical.form"),
        "canonical.unique_ratio": _ratio(
            counts["canonical.unique"], counts["enumerator.candidates"]
        ),
        "relax.applications": counts["relax.applications"],
        "relax.busy_s": total("relax.applications") + total("relax.apply"),
        "minimality.checks": counts["minimality.checks"],
        "minimality.self_s": totals.get("minimality.check", {}).get("self_s", 0.0),
        "minimality.minimal_ratio": _ratio(
            counts["minimality.minimal"], counts["minimality.checks"]
        ),
        "oracle.analyze_s": total("oracle.analyze"),
        "oracle.observable_s": total("oracle.observable"),
        "oracle.analysis_hit_rate": _ratio(
            e.get("analysis_hits", 0),
            e.get("analysis_hits", 0) + e.get("analyses", 0),
        ),
        "oracle.observe_hit_rate": _ratio(
            e.get("observe_hits", 0),
            e.get("observe_hits", 0) + e.get("observations", 0),
        ),
        "semantics.executions": e.get("executions", 0),
        "alloy.analyze_s": total("alloy.analyze") + total("alloy.observable"),
        "alloy.sessions": a.get("sessions", 0),
        "alloy.compile_misses": a.get("compile_misses", 0),
        "alloy.compile_hit_rate": _ratio(
            a.get("compile_hits", 0),
            a.get("compile_hits", 0) + a.get("compile_misses", 0),
        ),
        "sat.queries": a.get("sat_queries", 0),
        "sat.reuse_rate": _ratio(a.get("sat_reuse_hits", 0), a.get("sat_queries", 0)),
        "sat.conflicts": a.get("sat_conflicts", 0),
        "sat.propagations": a.get("sat_propagations", 0),
        "suite.add_s": total("suite.add"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(benchlib.BATCH_CELLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    # -- set-up: imports, the model registry (with its registration-time
    # lint) and one checker per cell
    import repro
    from repro.core.minimality import CriterionMode
    from repro.core.synthesis import build_checker

    oracle_name, cells = benchlib.BATCH_CELLS[args.workload]
    cells = list(cells)
    random.Random(args.seed).shuffle(cells)
    spec = repro.OracleSpec(oracle=oracle_name)
    prepared = []
    for name, bound in cells:
        model = repro.get_model(name)
        opts = repro.SynthesisOptions(bound=bound, oracle_spec=spec)
        checker = build_checker(model, CriterionMode.EXACT, spec)
        prepared.append((benchlib.cell_key(name, bound), model, opts, checker))
    setup_s = time.monotonic() - args.spawned_at

    table = benchlib.load_expected()
    tracer = Tracer() if args.trace_out else None
    layer = "alloy" if oracle_name == "relational" else "oracle"
    out_cells = []
    latencies: list[float] = []
    oracle_counts: dict[str, float] = {}  # summed raw oracle counters
    for key, model, opts, checker in prepared:
        if tracer is None:
            result, suite_s, lat = untraced_cell(model, opts, checker)
            latencies.extend(lat)
            per_axiom, union = result.per_axiom, result.union
        else:
            per_axiom, union, suite_s = traced_cell(
                tracer, key, model, opts, checker, layer
            )
            for name, value in checker.oracle.as_metrics().items():
                oracle_counts[name] = oracle_counts.get(name, 0) + value
        sizes, digest = benchlib.suite_fingerprint(per_axiom, union)
        out_cells.append(
            {
                "key": key,
                "suite_s": suite_s,
                "sizes": sizes,
                "union_sha256": digest,
                "problems": benchlib.check_cell(table, key, sizes, digest),
            }
        )
    out = {
        "setup_s": setup_s,
        "suite_s": sum(cell["suite_s"] for cell in out_cells),
        "cells": out_cells,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is None:
        out["latency_p50_s"] = benchlib.percentile(latencies, 50)
        out["latency_p90_s"] = benchlib.percentile(latencies, 90)
        out["latency_samples"] = len(latencies)
    else:
        out["layers"] = layer_metrics(tracer, layer, oracle_counts)
        tracer.write_jsonl(args.trace_out)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
