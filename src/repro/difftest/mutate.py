"""Memory-model mutants: tagged "known-buggy" variants of stock models.

A differential campaign that finds nothing proves little by itself — the
harness might be blind.  Mutation testing closes that loop the way the
reference-vs-sloppy-implementation fuzzers do: derive a model that is
known wrong in a specific way, run the campaign against it, and require
the harness to *kill* it (observe a disagreement with the stock
semantics).  A surviving mutant is a campaign failure.

Two mutation operators, both semantics-weakening (they only ever admit
more behaviour, so the stock model's executions remain valid and the
mutant is detectable purely through extra allowed outcomes):

* ``drop:<axiom>`` — remove one named axiom.  The relational twin of
  :mod:`repro.alloy.perturb`'s axiom handling: where Fig. 5c perturbs the
  *relations* an axiom ranges over, this drops the axiom wholesale.
* ``empty:fr``     — evaluate every axiom against a view whose
  from-reads relation is empty, the classic "forgot the fr edges"
  implementation bug (coherence collapses for read-write races).

Tags are per-model: :func:`mutant_tags` lists what the registry offers
for a model, :func:`resolve_mutant` instantiates one (raising
``KeyError`` for unknown tags — surfaced as the ``DIF002`` lint), and
:func:`model_fingerprint` digests a model's observable definition so
mutant and stock configurations can never be confused in reports or
corpus entries.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping

from repro.litmus.execution import Execution
from repro.models.base import Axiom, MemoryModel, Vocabulary
from repro.semantics.rel import Rel
from repro.semantics.relations import RelationView, StaticRelations

__all__ = [
    "MutantModel",
    "mutant_tags",
    "resolve_mutant",
    "model_fingerprint",
]

#: relation-weakening tags available for every model
_RELATION_TAGS = ("empty:fr",)


class _EmptyFrView(RelationView):
    """A relation view that forgets every from-reads edge."""

    @property
    def fr(self) -> Rel:  # type: ignore[override]
        return Rel.empty(self.n)

    @property
    def fri(self) -> Rel:  # type: ignore[override]
        return Rel.empty(self.n)

    @property
    def fre(self) -> Rel:  # type: ignore[override]
        return Rel.empty(self.n)

    @property
    def com(self) -> Rel:  # type: ignore[override]
        return self.rf | self.co


class MutantModel(MemoryModel):
    """A stock model with one tagged, deliberately-introduced bug.

    Delegates vocabulary and the ``sc``-order flag to the base model so
    mutants range over exactly the same test space; only the axiom
    evaluation differs.
    """

    def __init__(self, base: MemoryModel, tag: str):
        self.base = base
        self.tag = tag
        self.name = base.name
        self.full_name = f"{base.full_name} [mutant {tag}]"
        self.uses_sc_order = base.uses_sc_order
        if tag.startswith("drop:"):
            axiom = tag.split(":", 1)[1]
            stock = dict(base.axioms())
            if axiom not in stock:
                raise KeyError(
                    f"model {base.name!r} has no axiom {axiom!r} to drop; "
                    f"axioms: {', '.join(stock)}"
                )
            del stock[axiom]
            self._axioms: Mapping[str, Axiom] = stock
            self._mutate_view = False
        elif tag in _RELATION_TAGS:
            self._axioms = dict(base.axioms())
            self._mutate_view = True
        else:
            raise KeyError(
                f"unknown mutant tag {tag!r} for model {base.name!r}; "
                f"available: {', '.join(mutant_tags(base))}"
            )

    @property
    def vocabulary(self) -> Vocabulary:
        return self.base.vocabulary

    def axioms(self) -> Mapping[str, Axiom]:
        return self._axioms

    def wa_axioms(self) -> Mapping[str, Axiom]:
        # Mutants never re-add what they dropped: workaround mode reuses
        # the mutated axiom set.
        return self._axioms

    def view(
        self,
        execution: Execution,
        static: StaticRelations | None = None,
        **precomputed: Rel,
    ) -> RelationView:
        if self._mutate_view:
            return _EmptyFrView(execution, static, **precomputed)
        return self.base.view(execution, static, **precomputed)

    def __repr__(self) -> str:
        return f"<MutantModel {self.name}+{self.tag}>"


def mutant_tags(model: MemoryModel) -> tuple[str, ...]:
    """Every mutant tag the registry offers for a model, sorted."""
    tags = [f"drop:{name}" for name in model.axiom_names()]
    tags.extend(_RELATION_TAGS)
    return tuple(sorted(tags))


def resolve_mutant(model: MemoryModel, tag: str) -> MutantModel:
    """Instantiate one tagged mutant; ``KeyError`` on unknown tags."""
    return MutantModel(model, tag)


def model_fingerprint(model: MemoryModel, tag: str | None = None) -> str:
    """Content digest of a (possibly mutated) model configuration.

    Covers the observable definition — name, axiom names, the tag, the
    ``sc``-order flag — in the same ``blake2b`` idiom as
    :meth:`repro.alloy.oracle.AlloyOracle.model_fingerprint`, so stock
    and mutant runs can never share corpus entries or report rows.
    ``tag`` defaults to the model's own tag (``"stock"`` for non-mutants).
    """
    if tag is None:
        tag = getattr(model, "tag", "stock")
    payload = repr(
        (
            model.name,
            tag,
            tuple(model.axiom_names()),
            model.uses_sc_order,
        )
    )
    return hashlib.blake2b(payload.encode(), digest_size=12).hexdigest()
