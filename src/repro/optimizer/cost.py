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
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

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


def _statistic_read(source: Path) -> Tuple[str, ...]:
    """Which statistic estimates the elements a binding source produces:
    the :class:`Statistics` method and its arguments, or the default
    attribute alone.  It names schema names and attributes only, never a
    path or a constant."""

    if isinstance(source, SName):
        return ("card", source.name)
    if isinstance(source, Dom):
        name = _root_name(source.base)
        return ("card", name) if name else ("default_cardinality",)
    if isinstance(source, (Lookup, NFLookup)):
        name = _root_name(source.base)
        return ("entry_card", name) if name else ("default_fanout",)
    if isinstance(source, Attr):
        name = _root_name(source)
        return ("attr_fanout", name, source.attr) if name else ("default_fanout",)
    return ("default_cardinality",)


def _read(statistic: Tuple[str, ...], stats: Statistics) -> float:
    value = getattr(stats, statistic[0])
    return value(*statistic[1:]) if len(statistic) > 1 else value


def _source_cardinality(source: Path, stats: Statistics) -> float:
    """Expected number of elements produced by a binding source."""

    return _read(_statistic_read(source), stats)


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
    record: Optional[List[Tuple[float, List[float]]]] = None,
) -> float:
    """Estimated cost of evaluating the plan as written (no reordering).

    The one multiplicity walk: EXPLAIN ANALYZE, feedback and the advisor
    read its per-level ``record`` instead of walking again.  Given a list,
    it receives one ``(rows, factors)`` per binding level, level 0 (the
    ground conditions, ``rows`` 1.0) first: the rows the level's binding
    yields and the factor each of the level's conditions applies, in
    :meth:`~repro.query.ast.PCQuery.condition_levels` order.
    """

    model = model or CostModel()
    conds_at = query.condition_levels()
    sources = {b.var: b.source for b in query.bindings}
    multiplicity = 1.0
    cost = model.scan_startup
    for level, conds in enumerate(conds_at):
        produced = multiplicity
        if level:
            source = query.bindings[level - 1].source
            cost += multiplicity * P.count_probes(source) * model.probe_cost
            produced *= _source_cardinality(source, stats)
            cost += produced * model.tuple_cost
        if record is not None:
            factors: List[float] = []
            record.append((produced, factors))
        for cond in conds:
            if level:
                cost += produced * P.count_probes(cond.left) * model.probe_cost
                cost += produced * P.count_probes(cond.right) * model.probe_cost
            factor = _selectivity(cond, sources, stats)
            produced *= factor
            if record is not None:
                factors.append(factor)
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
#
# The bound is computed in two halves.  `floor_terms` reads the closure and
# no catalog: which classes count how many ground terms (the exponents of
# `m0`'s factors), and which statistic each groundable congruent source
# would read, and whether it has free variables (an image may re-root it
# onto any statistic).  It compares constants only for equality and keeps
# no path, so the terms are a fact of the shape, the same for every query
# that differs from this one only in its constants.  `floor_value` reads
# the catalog and no closure: it prices the statistics, takes `n_first` as
# their minimum and `s_min` from the catalog's NDVs.  The backchase keeps
# each node's terms in its removal graph and prices them again under each
# search's own catalog.

_GROUND_COUNT_CAP = 8


class FloorTerms(NamedTuple):
    """What the cost floor reads off a query's closure (:func:`floor_terms`)."""

    #: one per class with two or more ground terms, its count less one,
    #: ascending: the level-0 discount multiplies ``s_min`` to each power
    #: in this order, so two spellings of a shape price alike
    exponents: Tuple[int, ...]
    #: (statistic read, has free variables) per groundable congruent
    #: binding source; empty when only the startup charge is safe
    sources: FrozenSet[Tuple[Tuple[str, ...], bool]]


#: the terms of a query whose floor is the startup charge alone
STARTUP_ONLY = FloorTerms((), frozenset())


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


def floor_terms(query: PCQuery) -> FloorTerms:
    """The half of :func:`plan_cost_floor` that reads ``query``'s closure
    and no catalog (the derivation above)."""

    from repro.chase.congruence import query_congruence

    if not query.bindings:
        return STARTUP_ONLY
    cc = query_congruence(query)  # read, never extended: binding sources are in it
    if cc.inconsistent:
        # Unsatisfiable subqueries cost as little as the startup charge.
        return STARTUP_ONLY

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
        return STARTUP_ONLY

    # Cheapest first loop: the leading binding of any subquery has a ground
    # source, drawn from the groundable congruent sources of some binding.
    sources = frozenset(
        (_statistic_read(member), bool(member._fvs))
        for binding in query.bindings
        for member in cc.members(binding.source)
        if groundable(member)
    )
    # Ground (level-0) conditions a subquery could state: one spanning
    # equality per extra distinct ground term in a class.  A class whose
    # count saturated the fixpoint cap may hold arbitrarily many ground
    # terms; the discount would then *under*count (raising the floor), so
    # give up and keep the trivial bound instead.
    counts = sorted(ground_counts.values())
    if not sources or (counts and counts[-1] >= _GROUND_COUNT_CAP):
        return STARTUP_ONLY
    return FloorTerms(tuple(count - 1 for count in counts if count >= 2), sources)


def floor_pricer(
    stats: Statistics, model: Optional[CostModel] = None
) -> Callable[[FloorTerms], float]:
    """:func:`floor_value` under one catalog, its extremes read once: what
    a search prices every node's terms with."""

    model = model or CostModel()
    floor_stat = _stat_floor(stats)
    s_min = _min_selectivity(stats)

    def price(terms: FloorTerms) -> float:
        if not terms.sources:
            return model.scan_startup
        # a ground image of a source with free variables may re-root it
        # onto any recorded statistic; floor it at the cheapest one
        n_first = min(
            min(_read(statistic, stats), floor_stat) if free else _read(statistic, stats)
            for statistic, free in terms.sources
        )
        m0 = 1.0
        for exponent in terms.exponents:
            m0 *= s_min ** exponent
        return model.scan_startup + m0 * n_first * model.tuple_cost

    return price


def floor_value(
    terms: FloorTerms, stats: Statistics, model: Optional[CostModel] = None
) -> float:
    """The half of :func:`plan_cost_floor` that reads the catalog and no
    closure: ``terms`` priced under ``stats``."""

    return floor_pricer(stats, model)(terms)


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

    return floor_value(floor_terms(query), stats, model)
