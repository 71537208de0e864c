"""The one optimization context all layers consume.

The bundle of state Algorithm 1 needs — constraint set, physical-schema
filter, catalog statistics, cost model, search limits, strategy — is one
frozen value object, :class:`OptimizeContext`:

* an :class:`~repro.optimizer.optimizer.Optimizer` is built over exactly
  one, ``Optimizer(context, verdict_store=None)``, and reads every setting
  off it;
* the :class:`~repro.api.database.Database` façade owns one context and
  derives everything (optimizer, sessions, plan-cache keys) from it;
* a :class:`~repro.semcache.cache.SemanticCache` and the
  :class:`~repro.semcache.session.CachedSession` over it take one as
  their only settings — the session's is its cache's;
* the executor never sees one: ``exec.engine.execute`` and
  ``obs.analyze.analyze_query`` take plain flags, which the façade and
  the session unpack from their context where they call them;
* per-request overlays — the semantic cache injecting view constraint
  pairs, observed statistics and a view/base physical filter — are
  :meth:`override` calls producing a *new* context, never mutation;
* :meth:`fingerprint` is a stable digest of the **physical design** (the
  constraint set, the physical filter, the strategy and search limits,
  the cost model) used to key the cross-request plan cache.  Statistics
  are deliberately excluded: they are mutable observations whose
  staleness is handled by dependency-driven invalidation, not by key
  churn.

The module imports nothing above the optimizer and executor layers, so
every layer (optimizer, backchase, semcache, CLI) can depend on it
without cycles.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.constraints.epcd import EPCD
from repro.errors import OptimizationError
from repro.exec.engine import EXEC_MODES
from repro.obs.trace import NOOP_TRACER, Tracer
from repro.optimizer.cost import CostModel
from repro.optimizer.statistics import Statistics

#: sentinel distinguishing "keep the context's value" from an explicit
#: override (including ``None`` = clear the physical filter).
KEEP = object()

STRATEGIES = ("full", "pruned")


@dataclass(frozen=True)
class OptimizeContext:
    """Everything Algorithm 1 needs beyond the query itself.

    Frozen: overlays go through :meth:`override`, which shares the
    underlying EPCD objects (nothing is re-derived).
    """

    constraints: Tuple[EPCD, ...] = ()
    physical_names: Optional[FrozenSet[str]] = None
    statistics: Statistics = field(default_factory=Statistics, compare=False)
    cost_model: CostModel = field(default_factory=CostModel)
    strategy: str = "pruned"
    max_chase_steps: int = 200
    max_backchase_nodes: int = 20_000
    reorder: bool = True
    #: How winning plans execute: ``"interpret"`` streams the operator
    #: pipeline; ``"compiled"`` runs each plan's generated fused function
    #: over columnar extents (:mod:`repro.exec.compile`).  EXPLAIN
    #: ANALYZE always runs the interpreted pipeline: it reads the
    #: operators' own counters, and a compiled artifact has no operators.
    exec_mode: str = "interpret"
    #: The request tracer every consuming layer reports spans to.  Like
    #: statistics, it is an observation channel, not part of the physical
    #: design: excluded from equality and from :meth:`fingerprint`.
    tracer: Tracer = field(default=NOOP_TRACER, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise OptimizationError(
                f"unknown strategy {self.strategy!r} "
                f"(expected one of {STRATEGIES})"
            )
        if self.exec_mode not in EXEC_MODES:
            raise OptimizationError(
                f"unknown exec mode {self.exec_mode!r} "
                f"(expected one of {EXEC_MODES})"
            )
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.physical_names is not None:
            object.__setattr__(
                self, "physical_names", frozenset(self.physical_names)
            )

    # -- derivations -----------------------------------------------------------

    def override(
        self,
        *,
        extra_constraints: Sequence[EPCD] = (),
        constraints=KEEP,
        physical_names=KEEP,
        statistics: Optional[Statistics] = None,
        cost_model: Optional[CostModel] = None,
        strategy: Optional[str] = None,
        exec_mode: Optional[str] = None,
        tracer: Optional[Tracer] = None,
    ) -> "OptimizeContext":
        """A new context with the given fields replaced.

        ``extra_constraints`` are appended to (not substituted for) the
        constraint set — the semantic cache's per-request view pairs;
        ``physical_names`` replaces the plan filter (``None`` disables
        it); ``statistics``/``cost_model``/``strategy``/``tracer``
        replace their fields when given.  Everything else is carried
        over — in particular the tracer, so per-request overlays keep
        reporting to the same request timeline.
        """

        base = (
            self.constraints if constraints is KEEP else tuple(constraints)
        )
        return replace(
            self,
            constraints=base + tuple(extra_constraints),
            physical_names=(
                self.physical_names
                if physical_names is KEEP
                else physical_names
            ),
            statistics=statistics or self.statistics,
            cost_model=cost_model or self.cost_model,
            strategy=strategy or self.strategy,
            exec_mode=exec_mode or self.exec_mode,
            tracer=tracer or self.tracer,
        )

    def fingerprint(self) -> str:
        """A stable digest of the physical design this context optimizes
        against: constraints, physical filter, strategy, limits and cost
        model — everything that can change which plan wins *except* the
        statistics (see the module docstring).  ``exec_mode`` is also
        excluded: it changes how the winner runs, never which plan wins,
        so both modes share one plan-cache entry (compiled artifacts live
        apart, in :func:`repro.exec.engine.compiled_for`).  Cached on
        first use.
        """

        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            digest = hashlib.sha1(self.constraints_fingerprint().encode())
            digest.update(b"|phys|")
            if self.physical_names is None:
                digest.update(b"<none>")
            else:
                digest.update(",".join(sorted(self.physical_names)).encode())
            model = self.cost_model
            digest.update(
                (
                    f"|{self.strategy}|{self.max_chase_steps}"
                    f"|{self.max_backchase_nodes}|{self.reorder}"
                    f"|{model.tuple_cost}"
                    f"|{model.probe_cost}|{model.scan_startup}"
                ).encode()
            )
            cached = digest.hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def constraints_fingerprint(self) -> str:
        """The constraint part of :meth:`fingerprint`: a stable digest of
        the constraint set alone, what the backchase's verdicts depend on
        (the key of a :class:`~repro.api.database.Database`'s verdict
        store).  Cached on first use."""

        cached = self.__dict__.get("_constraints_fingerprint")
        if cached is None:
            from repro.query.printer import format_constraint

            digest = hashlib.sha1()
            for dep in self.constraints:
                digest.update(dep.name.encode())
                digest.update(format_constraint(dep).encode())
                digest.update(b"\x00")
            cached = digest.hexdigest()
            object.__setattr__(self, "_constraints_fingerprint", cached)
        return cached
