"""Regenerate ``expected.json``: per-axiom suite sizes and the sha256 of
``union.to_json()`` for every batch cell and serve-mixed request shape,
computed with the explicit oracle.

The relational oracle is checked against the same entries, so the table
also pins the two oracles to each other.  Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_expected.py

Only rerun it when a change is meant to alter synthesized suites.
"""

from __future__ import annotations

import json

import benchlib


def main() -> None:
    from repro import SynthesisOptions, get_model, synthesize

    keys = {(model, bound) for _, cells in benchlib.BATCH_CELLS.values()
            for model, bound in cells}
    keys |= {(model, bound) for model, bound, _ in benchlib.SERVE_SHAPES}
    table = {}
    for model, bound in sorted(keys):
        result = synthesize(get_model(model), SynthesisOptions(bound=bound))
        sizes, digest = benchlib.suite_fingerprint(result.per_axiom, result.union)
        key = benchlib.cell_key(model, bound)
        table[key] = {"suite_sizes": sizes, "union_sha256": digest}
        print(key, sizes, digest[:16], flush=True)
    benchlib.EXPECTED_PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
