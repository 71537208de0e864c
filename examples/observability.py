"""One traced request through the cache tiers: spans → metrics → ANALYZE.

``repro.obs`` is the observability spine every layer reports into:

* a **tracer** (``ObsConfig(tracing=True)``) records hierarchical spans
  for each request — façade → plan cache → chase → backchase → cost →
  executor — rendered as a per-request waterfall and exportable as JSONL;
* a **metrics registry** unifies the legacy counter families (plan
  cache, semantic cache, backchase, containment verdicts) behind one
  ``db.metrics()`` snapshot, with per-phase latency histograms and a
  slow-query log;
* **EXPLAIN ANALYZE** (``db.explain(q, analyze=True)``) runs the cached
  winning plan with counting proxies between the operators and prints
  actual rows/loops/probes/self-time next to the cost model's estimates;
* **plan-quality feedback** (``ObsConfig(feedback=True)``) collects the
  actual rows surviving every binding level of every request, scores
  them against the cost model's estimates (Q-error), flags plans whose
  estimates drifted, and — with ``CacheConfig(feedback_replan=True)`` —
  re-optimizes flagged plans under the feedback-corrected statistics.

Tracing is off by default and free when off; counters flow either way.

Run:  python examples/observability.py
"""

from __future__ import annotations

from repro import Database, parse_query
from repro.obs import ObsConfig


def main() -> None:
    # -- 1. build with tracing on (default config traces nothing) ---------
    db = Database.from_workload(
        "rs",
        n_r=500,
        n_s=500,
        b_values=100,
        obs=ObsConfig(tracing=True, slow_query_threshold=0.05),
    )
    query = db.workload.query  # the canonical R ⋈ S join

    # -- 2. one cold request: every phase shows up in the waterfall -------
    db.execute(query)  # cold: chase + backchase + cost + exec
    print(db.query_report().render())
    print()

    # -- 3. a warm repeat: the same request is a plan-cache hit -----------
    db.execute(query)  # warm: plan_cache.lookup hit, execution only
    print(db.query_report().render())
    print()

    # -- 4. the semantic-cache tiers trace too ----------------------------
    session = db.session()
    q = parse_query("select struct(A = r.A, B = r.B) from R r where r.A = 4")
    session.run(q)  # cold → registered as a cached view
    session.run(q)  # exact hit, no plan runs
    print(db.query_report().render())  # the exact hit's timeline
    print()

    # -- 5. the unified metrics snapshot ----------------------------------
    # counters + per-phase latency histograms + live source snapshots
    # (plan cache, semantic cache) + the slow-query ring buffer; the same
    # data as one JSON-able dict via db.metrics().
    print(db.metrics_report())
    print()

    # -- 6. per-operator EXPLAIN ANALYZE ----------------------------------
    print(db.explain(query, analyze=True).render())
    print()

    # -- 7. export the spans for offline tooling --------------------------
    path = "trace_sample.jsonl"
    db.obs.tracer.export_jsonl(path)
    print(f"wrote {len(db.obs.tracer)} spans to {path}")

    session.close()
    db.close()

    # -- 8. plan-quality feedback: drift -> flag -> replan -----------------
    drift_flag_replan()


def drift_flag_replan() -> None:
    """The feedback loop end to end on a pinned stale catalog.

    Passing explicit ``statistics`` pins the catalog (mutations never
    refresh it), so an insert burst leaves the optimizer costing against
    a world that no longer exists.  With feedback on, the per-level
    actuals expose the drift as a large Q-error, the feedback store
    judges the run a regression and flags the cached plan, and ``feedback_replan`` serves later requests
    from a ``#fb:``-tagged re-optimization under the corrected catalog —
    answers identical throughout.
    """

    from repro import CacheConfig, Instance, Row, Statistics

    # plain logical relations: no index to shield (or stale-shadow) the
    # drifted base extent, so the scan actuals tell the truth
    instance = Instance(
        {
            "R": frozenset(Row(A=i, B=i % 50, C=i) for i in range(100)),
            "S": frozenset(Row(B=i % 50, C=i % 37) for i in range(400)),
        }
    )
    db = Database(
        instance=instance,
        statistics=Statistics.from_instance(instance),  # pinned
        obs=ObsConfig(feedback=True),
        cache_config=CacheConfig(feedback_replan=True),
    )
    query = parse_query(
        "select struct(A = r.A, B = s.B) from R r, S s "
        "where r.A = 1 and r.B = s.B"
    )

    db.execute(query)  # healthy baseline: estimates match actuals

    # the drift: a skewed insert burst the pinned catalog never sees
    burst = frozenset(Row(A=1, B=i % 50, C=1000 + i) for i in range(600))
    db.instance["R"] = db.instance["R"] | burst

    db.execute(query)  # large Q-error observed -> the entry is flagged
    db.execute(query)  # flagged + corrections -> served from #fb: variant

    print(db.feedback_report())
    counters = db.obs.registry.counters
    print(
        f"\nregressions flagged: {counters['feedback.regressions'].value}, "
        f"feedback replans: {counters['feedback.replans'].value}"
    )
    db.close()


if __name__ == "__main__":
    main()
