"""Always-on plan-quality feedback: observed cardinalities vs the model.

The optimizer picks winners *by cost* (chase & backchase), so its value
degrades silently when the catalog cardinalities drift from the data.
This module closes the loop the way learning optimizers do (LEO): every
request — both execution modes — reports the **actual** number of rows
surviving each binding level, the :class:`FeedbackStore` compares them
with the per-level estimates of the cost model's own walk (read off its
record exactly as ``EXPLAIN ANALYZE`` reads them), and the per-level
**Q-error**

    ``q = max(est, act) / max(min(est, act), 1)``

is recorded into metrics histograms and stamped onto the producing plan
cache entry.  The store additionally distills the actuals into
*corrected statistics* — per-relation cardinality overrides and
per-attribute NDV overrides — which ``CacheConfig.feedback_replan``
feeds back into a tagged re-optimization of flagged plans (the skew
guard's variant mechanism, generalized from one parameter value to the
whole catalog).

Everything here is gated by ``ObsConfig(feedback=True)``: with the flag
off no store exists, compiled artifacts are byte-identical to today's,
and the interpreted path takes no per-operator instrumentation.

The actuals are the engine's (``ExecutionResult.level_rows``; interpreted
runs read them off the operators, :func:`repro.exec.operators.level_rows`).
Level semantics (shared with the compiled codegen): a level's actual is
the number of environments surviving that binding *and* the level's
residual conditions — compiled columnar scans absorb probe conditions
into the scan loop, so counting after the conditions is what makes both
modes report identical actuals for the same plan.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.exec.operators import HashJoinBind, binding_levels, chain
from repro.exec.planner import compile_query

# Shared with EXPLAIN ANALYZE and the cost model: "est rows" here, there
# and in estimate_cost are one reading of one walk.
from repro.obs.analyze import _op_label, _read_estimates
from repro.optimizer.cost import _attr_of
from repro.optimizer.statistics import Statistics
from repro.query.ast import Eq, PCQuery
from repro.query.paths import SName

__all__ = [
    "FeedbackObservation",
    "FeedbackStore",
    "LevelFeedback",
    "LevelSpec",
    "QERROR_BUCKETS",
    "level_specs",
    "qerror",
]

DEFAULT_FEEDBACK_CAPACITY = 256

# Histogram bounds for Q-error values: 1.0 is a perfect estimate, and
# real drift is multiplicative, so the buckets are geometric (the
# registry's default latency buckets would lump everything together).
QERROR_BUCKETS = (
    1.0,
    1.5,
    2.0,
    3.0,
    4.0,
    8.0,
    16.0,
    32.0,
    64.0,
    128.0,
    512.0,
)


def qerror(estimated: float, actual: float) -> float:
    """The symmetric relative error ``max(est, act) / min(est, act)``,
    with both sides floored at one row so empty levels compare sanely."""

    hi = max(float(estimated), float(actual), 1.0)
    lo = max(min(float(estimated), float(actual)), 1.0)
    return hi / lo


@dataclass(frozen=True)
class LevelSpec:
    """The estimated shape of one binding level of a compiled plan.

    ``est_rows`` is the cost model's post-condition output estimate for
    the level — bit-identical to the matching row of EXPLAIN ANALYZE's
    "est rows" column.  ``rel``/``attrs`` carry what the level can teach
    the corrected catalog: the scanned relation (cardinality) and the
    condition attributes (NDV, only when attribution is unambiguous).
    """

    label: str
    est_rows: float
    rel: Optional[str] = None
    attrs: Tuple[Tuple[str, str], ...] = ()
    has_conds: bool = False


@dataclass(frozen=True)
class LevelFeedback:
    """Estimate vs actual for one binding level of one request."""

    label: str
    est_rows: float
    actual_rows: int
    qerror: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "est_rows": round(self.est_rows, 3),
            "actual_rows": self.actual_rows,
            "qerror": round(self.qerror, 3),
        }


@dataclass(frozen=True)
class FeedbackObservation:
    """One request's estimate-vs-actual comparison."""

    query: str
    source: str
    elapsed_seconds: float
    rows: int
    max_qerror: float
    levels: Tuple[LevelFeedback, ...] = ()
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        record = {
            "query": self.query,
            "source": self.source,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "rows": self.rows,
            "max_qerror": round(self.max_qerror, 3),
            "levels": [level.as_dict() for level in self.levels],
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record


def _cond_attrs(
    conds: List[Eq], sources: Dict[str, Any]
) -> Tuple[Tuple[str, str], ...]:
    """Distinct ``(relation, attribute)`` pairs a level's conditions
    touch, resolved through binding variables like the cost model does."""

    seen: List[Tuple[str, str]] = []
    for cond in conds:
        for side in (cond.left, cond.right):
            info = _attr_of(side, sources)
            if info is not None and info not in seen:
                seen.append(info)
    return tuple(seen)


def level_specs(
    query: PCQuery,
    statistics: Statistics,
    use_hash_joins: bool = False,
) -> Tuple[LevelSpec, ...]:
    """The cost model's estimates over ``query``'s compiled chain, one
    spec per binding level.

    The chain is compiled exactly like the interpreted engine compiles
    it; the per-level estimate is the walk's value *after* the level's
    conditions (the Filter row when one follows the bind, the bind row
    otherwise) — matching where both execution modes count actuals.
    """

    # compiled for its shape only — the one planner call outside
    # repro/exec; nothing here runs a plan
    ops = chain(compile_query(query, use_hash_joins=use_hash_joins))
    _, estimates = _read_estimates(ops, query, statistics)
    sources = {b.var: b.source for b in query.bindings}
    specs: List[LevelSpec] = []
    for idx, tail in binding_levels(ops):
        op = ops[idx]
        conds: List[Eq] = list(ops[tail].conditions) if tail != idx else []
        if isinstance(op, HashJoinBind):
            source = op.build_source
            # The folded equijoin filters like a condition; its attrs
            # are ambiguous between build and probe side, so it teaches
            # cardinality only (has_conds blocks the card=fanout read).
            has_conds = True
        else:
            source = op.source
            has_conds = bool(conds)
        rel = source.name if isinstance(source, SName) else None
        specs.append(
            LevelSpec(
                label=_op_label(op),
                est_rows=estimates[tail],
                rel=rel,
                attrs=_cond_attrs(conds, sources),
                has_conds=has_conds,
            )
        )
    return tuple(specs)


class FeedbackStore:
    """Observed cardinalities, Q-errors, and the corrected catalog.

    Everything learned here is only valid for the instance state it was
    observed on — the Database drops the corrections (:meth:`clear`) on
    every mutation and on explicit statistics refresh.  The observation ring buffer survives
    as history, like the slow-query log.
    """

    def __init__(self, capacity: int = DEFAULT_FEEDBACK_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.entries: Deque[FeedbackObservation] = deque(maxlen=capacity)
        self.observed = 0
        self.levels_recorded = 0
        self.corrections = 0
        self.version = 0
        self.card_overrides: Dict[str, float] = {}
        self.ndv_overrides: Dict[Tuple[str, str], float] = {}
        self._spec_cache: Dict[Tuple[PCQuery, bool], Tuple[LevelSpec, ...]] = {}

    # ------------------------------------------------------------------
    # observation

    def specs_for(
        self,
        query: PCQuery,
        statistics: Statistics,
        use_hash_joins: bool = False,
    ) -> Tuple[LevelSpec, ...]:
        """The (memoized) level specs of one plan query.  The cache is
        sound because :meth:`clear` runs whenever the statistics the
        estimates were read under are swapped out."""

        key = (query, use_hash_joins)
        specs = self._spec_cache.get(key)
        if specs is None:
            specs = level_specs(query, statistics, use_hash_joins)
            self._spec_cache[key] = specs
        return specs

    def observe(
        self,
        query: PCQuery,
        statistics: Statistics,
        level_rows: Tuple[int, ...],
        rows: int,
        elapsed_seconds: float,
        use_hash_joins: bool = False,
        source: str = "execute",
    ) -> Optional[FeedbackObservation]:
        """Fold one request's per-level actuals into the store.

        Returns the recorded observation, or ``None`` when the actuals
        cannot be aligned with the plan's level specs (defensive: a plan
        shape they do not model).
        """

        specs = self.specs_for(query, statistics, use_hash_joins)
        if len(specs) != len(level_rows):
            return None
        levels: List[LevelFeedback] = []
        max_q = 1.0
        for spec, actual in zip(specs, level_rows):
            q = qerror(spec.est_rows, actual)
            if q > max_q:
                max_q = q
            levels.append(
                LevelFeedback(
                    label=spec.label,
                    est_rows=spec.est_rows,
                    actual_rows=actual,
                    qerror=q,
                )
            )
        self._learn(specs, level_rows, statistics)
        observation = FeedbackObservation(
            query=str(query),
            source=source,
            elapsed_seconds=elapsed_seconds,
            rows=rows,
            max_qerror=max_q,
            levels=tuple(levels),
        )
        self.entries.append(observation)
        self.observed += 1
        self.levels_recorded += len(levels)
        return observation

    def _learn(
        self,
        specs: Tuple[LevelSpec, ...],
        level_rows: Tuple[int, ...],
        statistics: Statistics,
    ) -> None:
        """Distill per-level actuals into catalog corrections.

        Each level's fan-out ``actual / previous_actual`` equals
        ``card(rel) × Π selectivity(conds)`` exactly.  A level without
        conditions therefore reads the cardinality directly; a level
        with conditions first raises the cardinality when the fan-out
        alone exceeds it (selectivity can never exceed 1), then — when
        exactly one attribute is attributable — implies the NDV that
        would have produced the observed selectivity.
        """

        previous = 1.0
        for spec, actual in zip(specs, level_rows):
            if previous <= 0:
                return  # an empty prefix teaches nothing downstream
            fanout = actual / previous
            if spec.rel is not None:
                card = self.card_overrides.get(
                    spec.rel, statistics.card(spec.rel)
                )
                if not spec.has_conds:
                    if fanout != card:  # confirming the catalog is not
                        self._set_card(spec.rel, fanout)  # a correction
                elif fanout > card:
                    # More survivors than the believed relation size:
                    # the cardinality itself is stale.
                    self._set_card(spec.rel, fanout)
                    card = fanout
                if spec.has_conds and len(spec.attrs) == 1 and actual > 0:
                    selectivity = min(max(fanout / card, 1e-12), 1.0)
                    implied = min(max(1.0 / selectivity, 1.0), card)
                    rel_a, attr_a = spec.attrs[0]
                    believed = self.ndv_overrides.get(
                        spec.attrs[0], statistics.distinct(rel_a, attr_a)
                    )
                    if implied != believed:
                        self._set_ndv(spec.attrs[0], implied)
            previous = actual

    def _set_card(self, rel: str, value: float) -> None:
        value = max(value, 1.0)
        if self.card_overrides.get(rel) != value:
            self.card_overrides[rel] = value
            self.corrections += 1
            self.version += 1

    def _set_ndv(self, key: Tuple[str, str], value: float) -> None:
        if self.ndv_overrides.get(key) != value:
            self.ndv_overrides[key] = value
            self.corrections += 1
            self.version += 1

    # ------------------------------------------------------------------
    # corrected catalog

    def has_corrections(self) -> bool:
        return bool(self.card_overrides or self.ndv_overrides)

    def corrected_statistics(self, base: Statistics) -> Statistics:
        """A copy of ``base`` with the learned overrides applied — the
        statistics a feedback replan optimizes under."""

        adjusted = base.copy()
        for rel, card in self.card_overrides.items():
            adjusted.set_card(rel, card)
        for (rel, attr), ndv in self.ndv_overrides.items():
            adjusted.set_ndv(rel, attr, ndv)
        return adjusted

    def fingerprint(self) -> str:
        """A drift-stable digest of the corrections, used as the plan
        cache variant tag: overrides are log2-bucketed so a steady
        post-drift state maps to one tag (no variant churn), while a
        further 2x drift re-keys."""

        def bucket(value: float) -> int:
            return int(round(math.log2(max(value, 1.0))))

        parts = [
            f"{rel}@{bucket(card)}"
            for rel, card in sorted(self.card_overrides.items())
        ]
        parts.extend(
            f"{rel}.{attr}@{bucket(ndv)}"
            for (rel, attr), ndv in sorted(self.ndv_overrides.items())
        )
        return ",".join(parts)

    # ------------------------------------------------------------------
    # lifecycle / surfacing

    def clear(self) -> None:
        """Drop everything keyed to the current instance state (the
        mutation hook); observation history is kept."""

        self.card_overrides.clear()
        self.ndv_overrides.clear()
        self._spec_cache.clear()
        self.version += 1

    def max_qerror(self) -> float:
        """Worst Q-error across the retained observations."""

        return max((o.max_qerror for o in self.entries), default=1.0)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "observed": self.observed,
            "levels_recorded": self.levels_recorded,
            "corrections": self.corrections,
            "version": self.version,
            "max_qerror": round(self.max_qerror(), 3),
            "card_overrides": {
                rel: round(card, 3)
                for rel, card in sorted(self.card_overrides.items())
            },
            "ndv_overrides": {
                f"{rel}.{attr}": round(ndv, 3)
                for (rel, attr), ndv in sorted(self.ndv_overrides.items())
            },
        }

    def as_dicts(self) -> List[Dict[str, Any]]:
        """Observations oldest-first, JSON-ready."""

        return [entry.as_dict() for entry in self.entries]

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(entry.as_dict(), sort_keys=True)
            for entry in self.entries
        )

    def export_jsonl(self, path: str) -> int:
        """Write the retained observations as JSON lines; returns the
        number of records written."""

        payload = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as handle:
            if payload:
                handle.write(payload + "\n")
        return len(self.entries)

    def render(self) -> str:
        lines = [
            f"plan-quality feedback ({self.observed} observations, "
            f"{self.levels_recorded} levels, "
            f"worst q-error {self.max_qerror():.2f})"
        ]
        if self.card_overrides or self.ndv_overrides:
            lines.append("  corrected statistics:")
            for rel, card in sorted(self.card_overrides.items()):
                lines.append(f"    card({rel}) -> {card:.1f}")
            for (rel, attr), ndv in sorted(self.ndv_overrides.items()):
                lines.append(f"    ndv({rel}.{attr}) -> {ndv:.1f}")
        else:
            lines.append("  corrected statistics: (none)")
        if self.entries:
            worst = max(self.entries, key=lambda o: o.max_qerror)
            lines.append(
                f"  worst request: q-error {worst.max_qerror:.2f} "
                f"[{worst.source}] {worst.query}"
            )
            for level in worst.levels:
                lines.append(
                    f"    est {level.est_rows:10.1f}  "
                    f"act {level.actual_rows:8d}  "
                    f"q {level.qerror:8.2f}  {level.label}"
                )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return (
            f"FeedbackStore({self.observed} observations, "
            f"{len(self.card_overrides)} card / "
            f"{len(self.ndv_overrides)} ndv overrides)"
        )
