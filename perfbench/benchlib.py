"""Shared helpers of the benchmark: percentiles, the expected-output table,
and the request shapes and cells the workloads run.

Pure standard library; it never imports ``repro``, so ``run.py`` can load
it before it knows whether the checkout holds the program at all.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: batch cells: (model, bound); every cell uses the default
#: ``SynthesisOptions(bound=...)`` with the workload's oracle
BATCH_CELLS = {
    "synth-explicit": ("explicit", (("tso", 5), ("sc", 5), ("tso_vmem", 3))),
    "synth-relational": ("relational", (("tso", 4), ("sc", 4), ("armv8", 3))),
}

#: serve-mixed request shapes in Zipf popularity order, most popular
#: first: small-model queries dominate and the bound-3 explicit jobs of
#: the larger vocabularies form the heavy tail.  The ranks of tso@3 and
#: power@3 put the 50th and 90th latency percentiles inside the blocks of
#: their warm-worker runs, where the time is mostly synthesis, instead of
#: among ~10 ms round trips (wake-up noise) or on the edge between two
#: shapes (where a percentile jumps with the seeded order).
SERVE_SHAPES = (
    ("tso", 3, "explicit"),
    ("tso", 2, "explicit"),
    ("power", 3, "explicit"),
    ("sc", 2, "explicit"),
    ("sc", 3, "explicit"),
    ("armv8", 2, "explicit"),
    ("power", 2, "explicit"),
    ("tso_vmem", 2, "explicit"),
    ("sc_vmem", 2, "explicit"),
    ("tso", 3, "relational"),
    ("sc", 3, "relational"),
    ("sc_vmem", 3, "explicit"),
    ("tso_vmem", 3, "explicit"),
    ("armv8", 3, "explicit"),
)
SERVE_REQUESTS = 120
ZIPF_EXPONENT = 1.4

#: suite sizes the paper states by hand; checked beside the table
PAPER_SUITE_SIZES = {"tso@5": {"sc_per_loc": 10}}


def cell_key(model: str, bound: int) -> str:
    """The expected-table key.  It names no oracle: every oracle must
    produce the same suites for a cell."""
    return f"{model}@{bound}"


def zipf_counts(n: int, shapes: int, exponent: float) -> list[int]:
    """Split ``n`` requests over ``shapes`` ranks by Zipf weights, rounding
    by largest remainder so the counts sum to ``n`` and every rank gets at
    least one request."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(shapes)]
    total = sum(weights)
    exact = [n * w / total for w in weights]
    counts = [max(1, math.floor(x)) for x in exact]
    order = sorted(range(shapes), key=lambda i: exact[i] - math.floor(exact[i]),
                   reverse=True)
    for i in order[: max(0, n - sum(counts))]:
        counts[i] += 1
    return counts


def request_sequence(seed: int, n: int = SERVE_REQUESTS) -> list[tuple]:
    """The seeded serve-mixed request sequence: Zipf quotas per shape,
    in an order drawn from ``seed``.

    The quotas do not depend on the seed, so every seed asks for the same
    amount of work; the seed decides the order, and with it which
    requests coalesce, which land on a warm worker, and how the tail
    falls between the two connections."""
    sequence = [
        shape
        for shape, count in zip(
            SERVE_SHAPES, zipf_counts(n, len(SERVE_SHAPES), ZIPF_EXPONENT)
        )
        for _ in range(count)
    ]
    random.Random(seed).shuffle(sequence)
    return sequence


def percentile(values: list[float], p: float) -> float:
    """The ``p``-th percentile (0-100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_percentile(n: int) -> float | None:
    """The highest of p50/p90/p99/p99.9 with at least ten of ``n``
    samples beyond it, or None when even the median has fewer."""
    best = None
    for p in (50, 90, 99, 99.9):
        if n * (100.0 - p) / 100.0 >= 10 - 1e-9:  # 99.9 is inexact
            best = p
    return best


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())


def check_cell(
    table: dict, key: str, suite_sizes: dict[str, int], union_sha256: str
) -> list[str]:
    """Compare one synthesized cell against the expected table (and the
    paper's hand-stated sizes); returns one message per mismatch."""
    want = table.get(key)
    if want is None:
        return [f"{key}: no expected entry"]
    problems = []
    if suite_sizes != want["suite_sizes"]:
        problems.append(
            f"{key}: suite sizes {suite_sizes} != expected {want['suite_sizes']}"
        )
    if union_sha256 != want["union_sha256"]:
        problems.append(
            f"{key}: union digest {union_sha256[:16]} != expected "
            f"{want['union_sha256'][:16]}"
        )
    for axiom, size in PAPER_SUITE_SIZES.get(key, {}).items():
        if suite_sizes.get(axiom) != size:
            problems.append(
                f"{key}: {axiom} suite has {suite_sizes.get(axiom)} tests, "
                f"the paper states {size}"
            )
    return problems


def suite_fingerprint(per_axiom: dict, union) -> tuple[dict[str, int], str]:
    """(per-axiom and union suite sizes, sha256 of ``union.to_json()``)."""
    sizes = {name: len(suite) for name, suite in per_axiom.items()}
    sizes["union"] = len(union)
    return sizes, digest(union.to_json())
