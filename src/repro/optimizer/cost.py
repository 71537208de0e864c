"""Cost estimation for PC plans.

A plan is costed by simulating its nested-loop structure: each binding
multiplies the running tuple count by the estimated cardinality of its
source; equality conditions apply selectivities as soon as all their
variables are bound; dictionary probes (``M[k]``, ``M{k}``) are charged a
per-probe cost.  Absolute numbers are not meaningful — only the ranking of
plans matters for Algorithm 1 steps 3–4, which is how the paper uses the
cost function C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.optimizer.statistics import DEFAULT_SELECTIVITY, Statistics
from repro.query import paths as P
from repro.query.ast import Eq, PCQuery
from repro.query.paths import (
    Attr,
    Const,
    Dom,
    Lookup,
    NFLookup,
    Param,
    Path,
    SName,
    Var,
)


@dataclass
class CostModel:
    """Tunable unit costs for the estimator."""

    tuple_cost: float = 1.0
    probe_cost: float = 2.0
    scan_startup: float = 1.0

    def estimate(self, query: PCQuery, stats: Statistics) -> float:
        return estimate_cost(query, stats, self)


def _root_name(path: Path) -> Optional[str]:
    while True:
        if isinstance(path, SName):
            return path.name
        kids = P.children(path)
        if not kids:
            return None
        path = kids[0]


def _source_cardinality(source: Path, stats: Statistics) -> float:
    """Expected number of elements produced by a binding source."""

    if isinstance(source, SName):
        return stats.card(source.name)
    if isinstance(source, Dom):
        name = _root_name(source.base)
        return stats.card(name) if name else stats.default_cardinality
    if isinstance(source, (Lookup, NFLookup)):
        name = _root_name(source.base)
        return stats.entry_card(name) if name else stats.default_fanout
    if isinstance(source, Attr):
        name = _root_name(source)
        if name:
            return stats.attr_fanout(name, source.attr)
        return stats.default_fanout
    return stats.default_cardinality


def _attr_of(
    path: Path, sources: Optional[Dict[str, Path]] = None
) -> Optional[Tuple[str, str]]:
    """(root schema name, attribute) of a simple attribute path, if any.

    With ``sources`` (the plan's var → binding-source map) a variable-rooted
    attribute like ``r.A`` where ``r in R`` resolves to ``("R", "A")``, so
    recorded NDV statistics apply to the common case of conditions over
    binding variables — including variables bound to cached extents, whose
    per-attribute NDVs are observed exactly (:func:`extent_statistics`).
    """

    if isinstance(path, Attr):
        name = _root_name(path)
        if name is not None:
            return (name, path.attr)
        if sources is not None and isinstance(path.base, Var):
            source = sources.get(path.base.name)
            if isinstance(source, SName):
                return (source.name, path.attr)
    return None


def _selectivity(cond: Eq, sources: Dict[str, Path], stats: Statistics) -> float:
    """Estimated selectivity of an equality condition."""

    left, right = cond.left, cond.right

    def ndv_of(path: Path) -> Optional[float]:
        info = _attr_of(path)
        if info is not None:
            return stats.distinct(*info)
        info = _attr_of(path, sources)
        if info is None:
            return None
        # Resolved through a binding variable: only a *recorded* NDV is
        # trusted (the default would otherwise displace DEFAULT_SELECTIVITY).
        return stats.ndv.get(f"{info[0]}.{info[1]}")

    # A binding marker ($x) prices like an unknown constant: templates are
    # costed with the catalog's 1/NDV guess, which the bind-time skew
    # guard later compares against the actual bound value's frequency.
    left_const = isinstance(left, (Const, Param))
    right_const = isinstance(right, (Const, Param))
    if left_const and right_const:
        if isinstance(left, Const) and isinstance(right, Const):
            return 1.0 if left.value == right.value else 0.0
        return 1.0 if left is right else DEFAULT_SELECTIVITY
    if left_const or right_const:
        other = right if left_const else left
        ndv = ndv_of(other)
        return 1.0 / ndv if ndv else DEFAULT_SELECTIVITY
    ndv_l, ndv_r = ndv_of(left), ndv_of(right)
    candidates = [n for n in (ndv_l, ndv_r) if n]
    if candidates:
        return 1.0 / max(candidates)
    return DEFAULT_SELECTIVITY


def estimate_cost(
    query: PCQuery,
    stats: Statistics,
    model: Optional[CostModel] = None,
) -> float:
    """Estimated cost of evaluating the plan as written (no reordering)."""

    model = model or CostModel()
    conds_at = query.condition_levels()
    sources = {b.var: b.source for b in query.bindings}
    multiplicity = 1.0
    cost = model.scan_startup
    for cond in conds_at[0]:
        multiplicity *= _selectivity(cond, sources, stats)
    for level, binding in enumerate(query.bindings, start=1):
        n = _source_cardinality(binding.source, stats)
        probes = P.count_probes(binding.source)
        cost += multiplicity * probes * model.probe_cost
        produced = multiplicity * n
        cost += produced * model.tuple_cost
        for cond in conds_at[level]:
            cost += produced * P.count_probes(cond.left) * model.probe_cost
            cost += produced * P.count_probes(cond.right) * model.probe_cost
            produced *= _selectivity(cond, sources, stats)
        multiplicity = produced
    # Output construction: charge probes in the select clause.
    out_probes = sum(P.count_probes(p) for p in query.output.paths())
    cost += multiplicity * (1.0 + out_probes * model.probe_cost)
    return cost


def observed_extent_ndvs(extent: Optional[frozenset]) -> Dict[str, float]:
    """Exact per-attribute NDVs of a materialized extent (one O(rows) scan).

    Extents are immutable after registration, so callers on a per-request
    hot path (the semantic cache) compute this once at admission time and
    pass the result to :func:`extent_statistics` instead of rescanning.
    """

    per_attr: Dict[str, set] = {}
    for row in extent or ():
        items = row.items() if hasattr(row, "items") else ()
        for attr, value in items:
            if isinstance(value, (str, int, float, bool)):
                per_attr.setdefault(attr, set()).add(value)
    return {attr: float(len(values)) for attr, values in per_attr.items() if values}


def extent_statistics(
    base: Statistics,
    extents: Dict[str, Optional[frozenset]],
    ndvs: Optional[Dict[str, Dict[str, float]]] = None,
) -> Statistics:
    """Catalog statistics with *observed* statistics for materialized extents.

    ``extents`` maps a schema name (a cached view) to its materialized row
    set, or ``None`` for a plan-only entry.  The returned catalog is a copy
    of ``base`` overlaid with the extent's exact cardinality and exact
    per-attribute NDVs, so the optimizer prices a scan of cached data by
    what is actually stored — the mechanism that lets hybrid view ⋈ base
    plans win exactly when the cached extent is genuinely cheaper than
    re-deriving it from base relations.  ``base`` itself is never mutated.

    ``ndvs`` supplies precomputed :func:`observed_extent_ndvs` results per
    name; without it the extents are scanned here (fine for one-off use,
    not for a per-request path).
    """

    stats = base.copy()
    for name, extent in extents.items():
        if extent is None:  # plan-only: a nominal one-row relation
            stats.cardinality[name] = 1.0
            continue
        stats.cardinality[name] = float(len(extent))
        observed = (
            ndvs[name] if ndvs is not None and name in ndvs
            else observed_extent_ndvs(extent)
        )
        for attr, count in observed.items():
            stats.ndv[f"{name}.{attr}"] = count
    return stats


# -- lower bound for the cost-bounded backchase ------------------------------
#
# The pruned backchase cuts a branch when no subquery reachable from it can
# beat the best complete plan found so far.  Reachable subqueries keep a
# subset of the branch's binding variables, re-sourced to congruent terms
# (images of class members under equals-for-equals substitution), with
# conditions drawn from the restricted congruence.  The floor below is a
# provable lower bound on `estimate_cost` of every such subquery — including
# the branch head itself and its normalized / condition-pruned / non-failing
# refined / reordered variants:
#
#   cost >= scan_startup                                  (always charged)
#         + m0 * n_first * tuple_cost                     (first-loop rows)
#
# where `n_first` ranges over the cheapest groundable congruent source any
# binding could take, and `m0` discounts for ground equality conditions a
# subquery could state at level 0 (at most one spanning equality per extra
# distinct ground term in a class, each at least `s_min` selective).  Every
# other term of the estimator is nonnegative.  Estimates of substituted
# sources are floored at the cheapest statistic on record, so the bound
# holds for arbitrary catalogs, and is tight enough to bite exactly when a
# branch has lost access to cheap (index) sources.

_GROUND_COUNT_CAP = 8


def _stat_floor(stats: Statistics) -> float:
    """The cheapest cardinality any source estimate can produce."""

    values = [stats.default_cardinality, stats.default_fanout]
    values.extend(stats.cardinality.values())
    values.extend(stats.entry_cardinality.values())
    values.extend(stats.fanout.values())
    return min(values)


def _min_selectivity(stats: Statistics) -> float:
    """The most selective factor any equality condition can contribute."""

    s = DEFAULT_SELECTIVITY
    if stats.default_ndv > 0:
        s = min(s, 1.0 / stats.default_ndv)
    for ndv in stats.ndv.values():
        if ndv > 0:
            s = min(s, 1.0 / ndv)
    return s


def _ground_term_counts(cc) -> Dict[Path, int]:
    """Per congruence class: how many distinct ground terms it can contain.

    Counts explicit variable-free members plus ground *images* of composite
    members whose variables are all rewritable to ground terms (one image
    per combination of the variables' ground representatives, capped).
    Computed as a monotone fixpoint so transitive groundability is seen.
    Overcounting is safe — it only weakens the resulting bound.
    """

    classes = [(cc.find(next(iter(ms))), ms) for ms in cc.member_sets()]
    counts: Dict[Path, int] = {root: 0 for root, _ in classes}

    def class_count(var: str) -> int:
        term = Var(var)
        if term not in cc:
            return 0
        return counts.get(cc.find(term), 0)

    changed = True
    while changed:
        changed = False
        for root, members in classes:
            total = 0
            for m in members:
                fv = m._fvs
                if not fv:
                    total += 1
                elif m._kids:  # composite: images are new ground terms
                    images = 1
                    for v in fv:
                        images *= min(class_count(v), _GROUND_COUNT_CAP)
                        if images == 0:
                            break
                    total += images
                # bare variables: their images collapse into this class's
                # own ground representatives, already counted above
                if total >= _GROUND_COUNT_CAP:
                    total = _GROUND_COUNT_CAP
                    break
            if total > counts[root]:
                counts[root] = total
                changed = True
    return counts


def plan_cost_floor(
    query: PCQuery,
    stats: Statistics,
    model: Optional[CostModel] = None,
) -> float:
    """Lower bound on the estimated cost of ``query`` and of every subquery
    reachable from it by backchase steps (congruent re-sourcing, condition
    restriction, non-failing refinement and reordering included).

    Used by the pruned backchase to cut branches that provably cannot beat
    the best complete plan found so far; see the derivation above.
    """

    from repro.chase.congruence import query_congruence

    model = model or CostModel()
    if not query.bindings:
        return model.scan_startup
    cc = query_congruence(query)  # read, never extended: binding sources are in it
    if cc.inconsistent:
        # Unsatisfiable subqueries cost as little as the startup charge.
        return model.scan_startup

    ground_counts = _ground_term_counts(cc)

    def groundable(term: Path) -> bool:
        fv = term._fvs
        if not fv:
            return True
        return all(
            Var(v) in cc and ground_counts.get(cc.find(Var(v)), 0) > 0 for v in fv
        )

    # A subquery whose output can be rewritten ground may shed every
    # binding; only the startup charge survives.
    if all(groundable(path) for path in query.output.paths()):
        return model.scan_startup

    # Cheapest first loop: the leading binding of any subquery has a ground
    # source, drawn from the groundable congruent sources of some binding.
    floor_stat = _stat_floor(stats)
    n_first = None
    for binding in query.bindings:
        for member in cc.members(binding.source):
            if not groundable(member):
                continue
            estimate = _source_cardinality(member, stats)
            if P.free_vars(member):
                # a ground image may re-root the term onto any recorded
                # statistic; floor at the cheapest one
                estimate = min(estimate, floor_stat)
            if n_first is None or estimate < n_first:
                n_first = estimate
    if n_first is None:  # no groundable source at all: only startup is safe
        return model.scan_startup

    # Ground (level-0) conditions a subquery could state: one spanning
    # equality per extra distinct ground term in a class.  A class whose
    # count saturated the fixpoint cap may hold arbitrarily many ground
    # terms; the discount below would then *under*count (raising the
    # floor), so give up and return the trivial bound instead.
    s_min = _min_selectivity(stats)
    m0 = 1.0
    for root, count in ground_counts.items():
        if count >= _GROUND_COUNT_CAP:
            return model.scan_startup
        if count >= 2:
            m0 *= s_min ** (count - 1)

    return model.scan_startup + m0 * n_first * model.tuple_cost


def estimated_output_cardinality(query: PCQuery, stats: Statistics) -> float:
    """Rough output-size estimate (used by bench reports)."""

    var_level = {b.var: i + 1 for i, b in enumerate(query.bindings)}
    sources = {b.var: b.source for b in query.bindings}
    m = 1.0
    for binding in query.bindings:
        m *= _source_cardinality(binding.source, stats)
    for cond in query.conditions:
        m *= _selectivity(cond, sources, stats)
    return max(m, 0.0)
