"""The enumerator against a frozen reference implementation.

``reference_enumerate`` below is the straightforward enumerator loop:
every work item builds every selection from an unrestricted copy of its
pool tail and lets the per-selection filters reject what does not
belong.  The shipped :func:`repro.core.enumerator.enumerate_shard` skips
work the filters would throw away; it must still yield the identical
``(item, test)`` stream, unsharded and per shard.
"""

import functools
from itertools import combinations_with_replacement, product

import pytest

import repro.core.enumerator as enumerator
from repro.core.enumerator import (
    EnumerationConfig,
    _addresses_canonical,
    _assembled_variants,
    _communicates,
    _group_sizes,
    _partitions,
    enumerate_shard,
    thread_units,
)
from repro.models.registry import get_model
from repro.obs import current_registry


def _reference_unit_selections(groups, unit_pool, vocab, config, first_index=None):
    per_group: list = []
    for gi, (size, count) in enumerate(groups):
        if size not in unit_pool:
            unit_pool[size] = thread_units(size, vocab, config)
        pool = unit_pool[size]
        if gi == 0 and first_index is not None:
            first = pool[first_index]
            per_group.append(
                [
                    (first,) + rest
                    for rest in combinations_with_replacement(
                        pool[first_index:], count - 1
                    )
                ]
            )
        else:
            per_group.append(combinations_with_replacement(pool, count))
    for combo in product(*per_group):
        yield tuple(u for group in combo for u in group)


def reference_enumerate(vocab, config, reject=None):
    unit_pool: dict = {}
    item = -1
    for n in range(config.min_events, config.max_events + 1):
        cap = (
            n
            if config.max_thread_size is None
            else min(n, config.max_thread_size)
        )
        for sizes in _partitions(n, config.max_threads, cap):
            groups = _group_sizes(sizes)
            first_size = groups[0][0]
            if first_size not in unit_pool:
                unit_pool[first_size] = thread_units(first_size, vocab, config)
            for first_index in range(len(unit_pool[first_size])):
                item += 1
                for selection in _reference_unit_selections(
                    groups, unit_pool, vocab, config, first_index
                ):
                    if config.max_rmws and sum(len(u.rmw) for u in selection) > config.max_rmws:
                        continue
                    if config.max_deps and sum(len(u.deps) for u in selection) > config.max_deps:
                        continue
                    if not _addresses_canonical(selection):
                        continue
                    communicates = (
                        not config.require_communication
                        or _communicates(selection)
                    )
                    if not communicates and config.max_aliases == 0:
                        continue
                    for candidate in _assembled_variants(
                        selection, vocab, config, communicates
                    ):
                        if reject is None:
                            yield item, candidate
                            continue
                        current_registry().count("reject_checks")
                        if not reject(candidate):
                            yield item, candidate
                        else:
                            current_registry().count("early_rejects")


def _single_thread(test):
    return len(test.threads) == 1


GRID = {
    # one-thread lead groups over large pools (size-3 pool of ~7k units)
    "armv8@3": ("armv8", EnumerationConfig(max_events=3, max_addresses=2), None),
    # multi-unit lead groups and multi-group partitions
    "tso@4": ("tso", EnumerationConfig(max_events=4), None),
    # Power's size-4 pool (130k units with dependency overlays) makes the
    # reference take minutes; capping threads at 3 keeps the (2, 2),
    # (3, 1), (2, 1, 1) and (1, 1, 1, 1) partitions and their big pools.
    "power@4": (
        "power",
        EnumerationConfig(max_events=4, max_thread_size=3),
        None,
    ),
    # aliasing: non-communicating selections survive into aliased variants
    "tso_vmem@3": (
        "tso_vmem",
        EnumerationConfig(max_events=3, max_aliases=1),
        None,
    ),
    # scoped vocabulary: group assignments fan out per selection
    "scc@3": ("scc", EnumerationConfig(max_events=3), None),
    "tso@4+reject": ("tso", EnumerationConfig(max_events=4), _single_thread),
}


@functools.cache
def _reference_stream(cell):
    model_name, config, reject = GRID[cell]
    vocab = get_model(model_name).vocabulary
    return list(reference_enumerate(vocab, config, reject=reject))


@pytest.mark.parametrize("cell", sorted(GRID))
@pytest.mark.parametrize("shard", [None, (0, 3), (1, 3), (2, 3)])
def test_stream_matches_reference(cell, shard):
    model_name, config, reject = GRID[cell]
    vocab = get_model(model_name).vocabulary
    expected = _reference_stream(cell)
    assert expected
    if shard is not None:
        # a shard is the work items whose ordinal is i modulo n
        index, count = shard
        expected = [pair for pair in expected if pair[0] % count == index]
    actual = list(enumerate_shard(vocab, config, shard=shard, reject=reject))
    assert actual == expected


def test_work_item_cost_is_proportional_to_output(monkeypatch):
    """Timing-free guard against per-item pool copies: the elements fed
    to ``combinations_with_replacement`` are bounded by the selections
    built plus the pools, not by items x pool size."""
    copied = 0
    built = 0
    real_cwr = enumerator.combinations_with_replacement
    real_selections = enumerator._unit_selections

    def counting_cwr(iterable, r):
        nonlocal copied
        items = tuple(iterable)
        copied += len(items)
        return real_cwr(items, r)

    def counting_selections(*args, **kwargs):
        nonlocal built
        for selection in real_selections(*args, **kwargs):
            built += 1
            yield selection

    monkeypatch.setattr(enumerator, "combinations_with_replacement", counting_cwr)
    monkeypatch.setattr(enumerator, "_unit_selections", counting_selections)
    vocab = get_model("armv8").vocabulary
    config = EnumerationConfig(max_events=3, max_addresses=2)
    candidates = sum(1 for _ in enumerate_shard(vocab, config))
    pools = sum(len(thread_units(size, vocab, config)) for size in (1, 2, 3))
    assert candidates == 1171
    assert copied <= 2 * (built + pools)
