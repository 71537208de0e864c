"""Semantic result cache: answering new queries from prior results.

The chase & backchase machinery that rewrites queries onto materialized
views (Section 2's ``cV``/``c'V`` capture) doubles as a semantic cache:
every executed query's result is itself a materialized view later queries
can be rewritten onto when containment holds.  This package turns the
engine into a caching query service:

* :mod:`repro.semcache.view` — executed results captured as
  :class:`CachedView` (definition, constraint pair, extent, accrued
  benefit);
* :mod:`repro.semcache.cache` — the :class:`SemanticCache` pool with
  its one tier walk (exact / backchase rewrite, view-only or **hybrid**
  view ⋈ base / miss) and its write-clock sweep;
* :mod:`repro.semcache.policy` — cost-benefit eviction bounds (observed
  rewrite benefit keeps paying views resident);
* :mod:`repro.semcache.session` — the :class:`CachedSession` front end
  (execute → maybe-rewrite → maybe-register), sweeping its cache when
  its instance's write clock moved, serving hybrid plans against
  read-through overlays so base reads stay live;
* :mod:`repro.semcache.stats` — monotone :class:`CacheStats` counters.

Both the cache and the session take their optimization settings as one
:class:`~repro.api.context.OptimizeContext` (``Database.session()`` hands
them the database's); nothing else configures a rewrite or a run.
"""

from repro.semcache.cache import Rewrite, SemanticCache
from repro.semcache.policy import CostBenefitPolicy
from repro.semcache.session import (
    COLD,
    EXACT,
    HYBRID,
    REWRITE,
    CachedSession,
    SessionResult,
)
from repro.semcache.stats import CacheStats
from repro.semcache.view import CachedView, make_cached_view, view_definition, view_extent

__all__ = [
    "COLD",
    "EXACT",
    "HYBRID",
    "REWRITE",
    "CacheStats",
    "CachedSession",
    "CachedView",
    "CostBenefitPolicy",
    "Rewrite",
    "SemanticCache",
    "SessionResult",
    "make_cached_view",
    "view_definition",
    "view_extent",
]
