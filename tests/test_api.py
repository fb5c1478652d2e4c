"""Public API surface tests."""

import re
from pathlib import Path

import pytest

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_quickstart_flow(self):
        """The README quickstart must work verbatim."""
        result = repro.synthesize(
            repro.SynthesisRequest.build(
                "tso",
                bound=3,
                config=repro.EnumerationConfig(max_events=3, max_addresses=1),
            )
        )
        assert len(result.union) > 0
        for entry in result.union:
            assert entry.pretty()

    def test_loose_kwargs_form_was_removed(self):
        # The pre-1.1 loose-keyword shim is gone since 1.2: only the
        # options-object and SynthesisRequest forms are accepted.
        tso = repro.get_model("tso")
        with pytest.raises(TypeError):
            repro.synthesize(
                tso,
                bound=3,
                config=repro.EnumerationConfig(max_events=3, max_addresses=1),
            )

    def test_loose_oracle_fields_were_removed(self):
        # Deprecated in 1.2, removed in 1.3: the TypeError names the
        # OracleSpec replacement, for both options types.
        options = repro.SynthesisOptions(bound=3)
        for loose in ("oracle", "incremental", "cnf_cache_dir", "prefilter"):
            with pytest.raises(TypeError, match=f"{loose}.*OracleSpec"):
                repro.SynthesisOptions(bound=3, **{loose: None})
            with pytest.raises(TypeError, match=f"{loose}.*OracleSpec"):
                repro.CampaignOptions("tso", **{loose: None})
            assert not hasattr(options, loose)

    def test_version_matches_pyproject(self):
        pyproject = (
            Path(__file__).resolve().parent.parent / "pyproject.toml"
        ).read_text()
        match = re.search(r'^version = "([^"]+)"', pyproject, re.MULTILINE)
        assert match is not None
        assert match.group(1) == repro.__version__

    def test_build_and_check_a_test(self):
        test = repro.LitmusTest(
            (
                (repro.write(0, 1), repro.write(1, 1)),
                (repro.read(1), repro.read(0)),
            )
        )
        checker = repro.MinimalityChecker(repro.get_model("tso"))
        assert checker.check(test).is_minimal

    def test_available_models(self):
        assert set(repro.available_models()) >= {
            "sc",
            "tso",
            "power",
            "armv7",
            "scc",
            "c11",
        }

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_relaxations_exported(self):
        # the paper's six plus the transistency pair (DV, UA)
        assert len(repro.ALL_RELAXATIONS) == 8
        table = repro.applicability_table()
        assert "tso" in table

    def test_registry_rejects_unknown(self):
        import pytest

        with pytest.raises(KeyError):
            repro.get_model("m88k")

    def test_register_custom_model(self):
        from repro.models import register_model
        from repro.models.registry import MODEL_CLASSES

        class Custom(repro.get_model("sc").__class__):
            name = "custom-sc"

        try:
            register_model(Custom)
            assert repro.get_model("custom-sc").name == "custom-sc"
        finally:
            MODEL_CLASSES.pop("custom-sc", None)
