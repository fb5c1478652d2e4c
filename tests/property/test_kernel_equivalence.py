"""The compiled execution kernel against plain per-execution references.

``ExplicitOracle.analyze`` runs on a per-test :class:`ExecutionKernel`
with precomputed ``rf``/``co``/``fr``/``sc`` rows and skips axiom
evaluations that cannot change its result.  These tests pin it to the
straightforward definition: enumerate every execution, build its view
through ``model.view``, evaluate every axiom.  The corpus is the catalog
plus a slice of each model's own bound-3 candidate stream (which covers
the vmem models' alias maps and SC-fence tests for SCC's ``sc`` order).
"""

from itertools import islice, permutations, product

import pytest

from repro.core.enumerator import enumerate_tests
from repro.core.oracle import ExplicitOracle
from repro.core.synthesis import SynthesisOptions
from repro.difftest.mutate import MutantModel
from repro.litmus.catalog import CATALOG
from repro.litmus.events import FenceKind, write
from repro.litmus.execution import Execution
from repro.litmus.test import LitmusTest
from repro.models.base import MemoryModel, Vocabulary
from repro.models.registry import available_models, get_model
from repro.semantics.enumerate import ExecutionKernel, enumerate_executions
from repro.semantics.rel import Rel
from repro.semantics.relations import RelationView

#: candidates taken from the head of each model's bound-3 stream, and the
#: stride the slice keeps of them
_HEAD = 400
_STRIDE = 8


def _has_sc_fence(test):
    return any(
        i.is_fence and i.fence is FenceKind.FENCE_SC for i in test.instructions
    )


def _slice(model):
    config = SynthesisOptions(bound=3).resolved_config(model)
    stream = enumerate_tests(model.vocabulary, config)
    head = list(islice(stream, _HEAD))
    # every strided candidate, plus the first alias-map and SC-fence ones
    picked = head[::_STRIDE]
    aliased = [t for t in head if t.addr_map is not None]
    fenced = [t for t in head if _has_sc_fence(t)]
    for first in (aliased[:1] + fenced[:1]):
        if first not in picked:
            picked.append(first)
    return picked


_CORPUS = {}


def _corpus(model_name):
    if model_name not in _CORPUS:
        tests = [entry.test for entry in CATALOG.values()]
        tests += _slice(get_model(model_name))
        _CORPUS[model_name] = tests
    return _CORPUS[model_name]


def _reference_executions(test, with_sc=False):
    """The enumerator as a plain product over rf, co and sc choices."""
    read_choices = []
    for r in test.read_eids:
        addr = test.instruction(r).address
        read_choices.append([(r, src) for src in (None, *test.writes_to(addr))])
    co_choices = [
        list(permutations(test.writes_to(loc))) for loc in test.locations
    ]
    sc_events = [
        e
        for e, inst in enumerate(test.instructions)
        if inst.is_fence and inst.fence is FenceKind.FENCE_SC
    ]
    sc_choices = (list(permutations(sc_events)) or [()]) if with_sc else [()]
    for rf in product(*read_choices):
        for co in product(*co_choices):
            for sc in sc_choices:
                yield Execution(test, tuple(rf), tuple(co), tuple(sc))


def _reference_analysis(model, axioms, test):
    """(all outcomes, model-valid outcomes, per-axiom valid outcomes)."""
    all_outcomes, model_valid = set(), set()
    axiom_valid = {name: set() for name in axioms}
    for ex in enumerate_executions(test, with_sc=model.uses_sc_order):
        view = model.view(ex)
        all_outcomes.add(ex.outcome)
        bits = {name: fn(view) for name, fn in axioms.items()}
        for name, ok in bits.items():
            if ok:
                axiom_valid[name].add(ex.outcome)
        if all(bits.values()):
            model_valid.add(ex.outcome)
    return all_outcomes, model_valid, axiom_valid


def _configurations():
    for name in available_models():
        yield pytest.param(name, None, False, id=f"{name}")
        yield pytest.param(name, None, True, id=f"{name}-wa")
    yield pytest.param("tso", "empty:fr", False, id="tso-empty:fr")
    yield pytest.param("sc", "empty:fr", False, id="sc-empty:fr")
    yield pytest.param("tso", "drop:causality", False, id="tso-drop:causality")


@pytest.mark.parametrize("name, mutant, workaround", _configurations())
def test_analyze_matches_per_execution_reference(name, mutant, workaround):
    base = get_model(name)
    model = base if mutant is None else MutantModel(base, mutant)
    oracle = ExplicitOracle(model, workaround=workaround)
    axioms = dict(model.wa_axioms() if workaround else model.axioms())
    executions = 0
    for test in _corpus(name):
        analysis = oracle.analyze(test)
        all_outcomes, model_valid, axiom_valid = _reference_analysis(
            model, axioms, test
        )
        assert analysis.all_outcomes == all_outcomes, test.pretty()
        assert analysis.model_valid == model_valid, test.pretty()
        assert analysis.axiom_valid == axiom_valid, test.pretty()
        executions += sum(
            1 for _ in enumerate_executions(test, model.uses_sc_order)
        )
    # every well-formed execution counts, skipped or evaluated
    assert oracle.stats["executions"] == executions


def test_slices_cover_alias_maps_and_sc_fences():
    assert any(t.addr_map for t in _corpus("tso_vmem"))
    assert any(_has_sc_fence(t) for t in _corpus("scc"))
    assert get_model("scc").uses_sc_order


@pytest.mark.parametrize("name", ["tso", "tso_vmem", "scc"])
def test_enumerator_matches_plain_product(name):
    for test in _corpus(name):
        for with_sc in (False, True):
            assert list(enumerate_executions(test, with_sc)) == list(
                _reference_executions(test, with_sc)
            )


def _pairs_fr(ex):
    """The textbook from-reads definition, built pair by pair."""
    test = ex.test
    co = Rel.from_pairs(
        test.num_events,
        (
            (a, b)
            for order in ex.co
            for i, a in enumerate(order)
            for b in order[i + 1 :]
        ),
    )
    pairs = []
    for read, src in ex.rf:
        if src is None:
            addr = test.instruction(read).address
            pairs += [(read, w) for w in test.writes_to(addr)]
        else:
            pairs += [(read, w) for w in range(test.num_events) if (src, w) in co]
    return Rel.from_pairs(test.num_events, pairs)


@pytest.mark.parametrize("name", ["tso", "tso_vmem", "scc"])
def test_kernel_rows_match_lazy_relations(name):
    for test in _corpus(name):
        kernel = ExecutionKernel(test, with_sc=True)
        for rf_choice in kernel.rf_choices:
            rf, rf_rel = rf_choice[0], rf_choice[1]
            for co, co_rel, finals_index in kernel.co_choices:
                fr = kernel.fr(rf_choice, co_rel)
                for sc, sc_rel in kernel.sc_choices:
                    ex = Execution(test, rf, co, sc)
                    lazy = RelationView(ex)
                    assert rf_rel == lazy.rf
                    assert co_rel == lazy.co
                    assert fr == lazy.fr == _pairs_fr(ex)
                    assert sc_rel == lazy.sc
                    assert ex.outcome.finals == kernel.finals[finals_index]


class _SplitModel(MemoryModel):
    """Two axioms that hold on different coherence orders of one outcome.

    With three writes to ``x`` and ``W x 3`` last, the orders ``1 2 3``
    and ``2 1 3`` share an outcome; ``first`` holds only on the former,
    ``second`` only on the latter, so no execution satisfies both and
    the outcome must not be model-valid — although by the second
    execution each axiom's valid set already holds it.
    """

    name = "split"

    @property
    def vocabulary(self):
        return Vocabulary()

    def axioms(self):
        return {
            "first": lambda v: (0, 1) in v.co,
            "second": lambda v: (1, 0) in v.co,
        }


def test_axioms_split_across_executions_of_one_outcome():
    test = LitmusTest(((write(0), write(0), write(0)),))
    model = _SplitModel()
    analysis = ExplicitOracle(model).analyze(test)
    all_outcomes, model_valid, axiom_valid = _reference_analysis(
        model, dict(model.axioms()), test
    )
    assert analysis.axiom_valid["first"] & analysis.axiom_valid["second"]
    assert analysis.model_valid == model_valid
    assert analysis.axiom_valid == axiom_valid
    assert analysis.all_outcomes == all_outcomes
