"""Tests of the benchmark's own helpers.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import benchlib  # noqa: E402
from spans import Span, Tracer, layer_totals, self_times  # noqa: E402


def test_highest_percentile_needs_ten_samples_beyond():
    assert benchlib.highest_percentile(19) is None
    assert benchlib.highest_percentile(20) == 50
    assert benchlib.highest_percentile(99) == 50
    assert benchlib.highest_percentile(100) == 90
    assert benchlib.highest_percentile(120) == 90
    assert benchlib.highest_percentile(999) == 90
    assert benchlib.highest_percentile(1000) == 99
    assert benchlib.highest_percentile(10000) == 99.9


def test_percentile_interpolates():
    assert benchlib.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert benchlib.percentile([1.0, 2.0, 3.0], 0) == 1.0
    assert benchlib.percentile([1.0, 2.0, 3.0], 100) == 3.0
    assert benchlib.percentile([7.0], 90) == 7.0


def test_self_time_subtracts_covered_child_intervals_once():
    spans = [
        Span(1, "parent", 0.0, 10.0, None, "r"),
        Span(2, "child", 1.0, 3.0, 1, "r"),
        Span(3, "child", 2.0, 5.0, 1, "r"),  # overlaps span 2
        Span(4, "child", 6.0, 7.0, 1, "r"),
        Span(5, "grandchild", 6.2, 6.8, 4, "r"),
    ]
    own = self_times(spans)
    assert own[1] == 10.0 - (5.0 - 1.0) - (7.0 - 6.0)
    assert own[2] == 2.0
    assert abs(own[4] - 0.4) < 1e-12
    assert abs(own[5] - 0.6) < 1e-12
    totals = layer_totals(spans)
    assert totals["child"]["count"] == 3
    assert totals["child"]["total_s"] == 2.0 + 3.0 + 1.0


def test_tracer_links_nested_spans_and_inherits_request():
    tracer = Tracer()
    with tracer.span("outer", "req-7"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert inner.request == "req-7"
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_request_sequence_is_deterministic_per_seed():
    first = benchlib.request_sequence(5)
    assert first == benchlib.request_sequence(5)
    assert first != benchlib.request_sequence(6)
    assert len(first) == benchlib.SERVE_REQUESTS
    # the seed orders the requests; the Zipf quotas are fixed
    assert Counter(first) == Counter(benchlib.request_sequence(6))
    counts = benchlib.zipf_counts(benchlib.SERVE_REQUESTS, len(benchlib.SERVE_SHAPES),
                                  benchlib.ZIPF_EXPONENT)
    assert counts == sorted(counts, reverse=True) and min(counts) >= 1
    assert [Counter(first)[shape] for shape in benchlib.SERVE_SHAPES] == counts


def test_expected_table_checker_flags_a_changed_digest():
    table = benchlib.load_expected()
    want = table["tso@4"]
    sizes, digest = dict(want["suite_sizes"]), want["union_sha256"]
    assert benchlib.check_cell(table, "tso@4", sizes, digest) == []
    changed = ("0" if digest[0] != "0" else "1") + digest[1:]
    problems = benchlib.check_cell(table, "tso@4", sizes, changed)
    assert len(problems) == 1 and "digest" in problems[0]
    assert benchlib.check_cell(table, "tso@9", sizes, digest) != []


def test_expected_table_holds_the_paper_tso_saturation():
    table = benchlib.load_expected()
    entry = table["tso@5"]
    assert entry["suite_sizes"]["sc_per_loc"] == 10
    sizes = dict(entry["suite_sizes"], sc_per_loc=11)
    problems = benchlib.check_cell(table, "tso@5", sizes, entry["union_sha256"])
    assert any("paper" in p for p in problems)


def test_expected_table_covers_every_cell_and_shape():
    table = benchlib.load_expected()
    keys = {benchlib.cell_key(m, b) for _, cells in benchlib.BATCH_CELLS.values()
            for m, b in cells}
    keys |= {benchlib.cell_key(m, b) for m, b, _ in benchlib.SERVE_SHAPES}
    assert keys <= set(table)
