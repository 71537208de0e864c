"""Invalidation: dropping cached views when their sources mutate.

A cached view's extent is the exact evaluation of its definition on the
instance *at registration time*; any later assignment to a source relation
can silently falsify the ``cV``/``c'V`` pair and turn rewrites into stale
answers.  Two pieces prevent that:

* :class:`repro.lru.DependencyIndex` (held by the cache, shared with the
  plan cache) — a reverse map from source schema name to the views
  reading it, indexed on :attr:`CachedView.dependencies`, so a mutation
  touches only its dependents instead of scanning the pool;
* :class:`InstanceWatcher` — the subscription glue: registers a listener
  on :meth:`repro.model.instance.Instance.subscribe` and forwards each
  mutated name to the cache's ``invalidate_source``.  :meth:`close`
  detaches it (sessions detach on close so a cache can be re-homed onto
  another instance).

Hybrid (view ⋈ base) answers add a second staleness channel: the winning
plan reads base relations *directly*, so even a perfectly maintained view
pool cannot vouch for them.  Two mechanisms close it.  First, promoted
hybrid results register under the *original* query, whose source set names
every base relation the answer logically depends on — the index above
therefore drops the promoted entry on any base mutation exactly as it
drops a pure view.  Second, the session executes hybrid plans against a
read-through overlay (:meth:`repro.model.instance.Instance.overlay`): base
reads resolve against the live instance at scan time, never against a
snapshot, so a mutation between two requests is always observed.
:attr:`InstanceWatcher.mutations_seen` counts the notifications delivered,
giving tests a monotone probe that the channel is actually wired.
"""

from __future__ import annotations

from repro.model.instance import Instance


class InstanceWatcher:
    """Subscribes a cache to an instance's mutation notifications."""

    def __init__(self, instance: Instance, cache) -> None:
        self._instance = instance
        self._cache = cache
        self._listener = instance.subscribe(self._on_mutation)
        self._closed = False
        #: monotone count of mutation notifications delivered to the cache
        #: (not the views dropped — one mutation may drop many or none).
        self.mutations_seen = 0

    def _on_mutation(self, name: str) -> None:
        self.mutations_seen += 1
        self._cache.invalidate_source(name)

    def close(self) -> None:
        if not self._closed:
            self._instance.unsubscribe(self._listener)
            self._closed = True
