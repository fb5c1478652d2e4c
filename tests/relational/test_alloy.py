"""Cross-validation: the Alloy/SAT stack vs the explicit engine.

This is the key trust anchor of the repository: two independently
implemented pipelines (explicit enumeration vs relational logic compiled
to CNF and solved by our CDCL solver) must agree on every execution-level
question for every model with an Alloy encoding."""

import pytest

from repro.alloy import AlloyOracle
from repro.core.oracle import ExplicitOracle
from repro.litmus.catalog import CATALOG
from repro.litmus.events import FenceKind, Order, fence, read, write
from repro.litmus.test import LitmusTest
from repro.models.registry import get_model
from repro.semantics.enumerate import enumerate_executions


def exec_key(e):
    return (tuple(e.rf), e.co, e.sc)


@pytest.fixture(scope="module")
def tso_alloy():
    return AlloyOracle("tso")


@pytest.fixture(scope="module")
def scc_alloy():
    return AlloyOracle("scc")


class TestExecutionSpaceAgreement:
    @pytest.mark.parametrize(
        "name", ["MP", "SB", "LB", "S", "CoRW", "CoWW", "CoRR", "n5", "n3"]
    )
    def test_tso_same_execution_space(self, tso_alloy, name):
        test = CATALOG[name].test
        alloy = {exec_key(e) for e in tso_alloy.executions(test)}
        explicit = {exec_key(e) for e in enumerate_executions(test)}
        assert alloy == explicit

    @pytest.mark.parametrize("name", ["MP", "SB", "LB", "CoRW", "n5"])
    def test_tso_same_valid_outcomes(self, tso_alloy, name):
        test = CATALOG[name].test
        explicit = ExplicitOracle(get_model("tso"))
        assert (
            tso_alloy.valid_outcomes(test)
            == explicit.analyze(test).model_valid
        )

    @pytest.mark.parametrize("name", ["MP", "SB", "2+2W"])
    def test_sc_same_valid_outcomes(self, name):
        alloy = AlloyOracle("sc")
        test = CATALOG[name].test
        explicit = ExplicitOracle(get_model("sc"))
        assert (
            alloy.valid_outcomes(test)
            == explicit.analyze(test).model_valid
        )

    def test_scc_with_sc_order(self, scc_alloy):
        f = fence(FenceKind.FENCE_SC)
        sb = LitmusTest(
            ((write(0, 1), f, read(1)), (write(1, 1), f, read(0)))
        )
        alloy = {exec_key(e) for e in scc_alloy.executions(sb)}
        explicit = {
            exec_key(e) for e in enumerate_executions(sb, with_sc=True)
        }
        assert alloy == explicit
        exp_oracle = ExplicitOracle(get_model("scc"))
        assert (
            scc_alloy.valid_outcomes(sb)
            == exp_oracle.analyze(sb).model_valid
        )

    def test_scc_release_acquire(self, scc_alloy):
        mp = LitmusTest(
            (
                (write(0, 1), write(1, 1, Order.REL)),
                (read(1, Order.ACQ), read(0)),
            )
        )
        exp_oracle = ExplicitOracle(get_model("scc"))
        assert (
            scc_alloy.valid_outcomes(mp)
            == exp_oracle.analyze(mp).model_valid
        )


class TestObservability:
    def test_mp_forbidden_via_sat(self, tso_alloy):
        entry = CATALOG["MP"]
        assert not tso_alloy.observable(entry.test, entry.forbidden)

    def test_sb_allowed_via_sat(self, tso_alloy):
        entry = CATALOG["SB"]
        assert tso_alloy.observable(entry.test, entry.forbidden)

    def test_per_axiom_enumeration(self, tso_alloy):
        test = CATALOG["CoRR"].test
        all_execs = sum(1 for _ in tso_alloy.executions(test))
        sc_ok = sum(
            1 for _ in tso_alloy.valid_executions(test, "sc_per_loc")
        )
        assert 0 < sc_ok < all_execs


class TestAnalysisCache:
    def test_analysis_cache_is_least_recently_used(self):
        oracle = AlloyOracle("tso", analysis_cache=2)
        mp, sb, lb = (CATALOG[name].test for name in ("MP", "SB", "LB"))
        oracle.analyze(mp)
        oracle.analyze(sb)
        oracle.analyze(mp)  # a hit refreshes recency
        oracle.analyze(lb)
        assert mp in oracle._analysis
        assert sb not in oracle._analysis
        assert oracle.as_metrics()["analysis_hits"] == 1


class TestExecutionPinning:
    def test_is_valid_matches_explicit(self, tso_alloy):
        test = CATALOG["MP"].test
        model = get_model("tso")
        for execution in enumerate_executions(test):
            assert tso_alloy.is_valid(execution) == model.is_valid(
                execution
            )

    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            AlloyOracle("power")

    def test_axiom_names(self, tso_alloy):
        assert set(tso_alloy.axiom_names()) == {
            "sc_per_loc",
            "rmw_atomicity",
            "causality",
        }
