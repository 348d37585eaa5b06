"""A test-side grant log: the grant-order witness the kernel does not keep.

``Resource`` keeps no per-grant statistics, since the model reads none.
Tests that pin how many grants a resource gave, and how long its
waiters waited, install a :class:`GrantLog`.  It wraps the resource
methods through ``monkeypatch`` and counts, per resource instance:

* each grant :meth:`Resource._admit` admits, charged the time from its
  :meth:`~Resource.acquire` to its admission (zero when ``acquire``
  admits it at once);
* each slot :meth:`Resource.claim` holds in place, and each slot a
  :class:`ClaimChain` step holds in place in its own frame, as one
  grant that waited nothing.

A request cancelled before admission counts nothing.  Install the log
before the simulation runs; resources built earlier are counted from
then on, but a chain keeps the step it was built with, so build every
``ClaimChain`` (a ``DramController`` builds its refresh chain) after.
"""

from repro.kernel import ClaimChain, PriorityResource, Resource


class GrantLog:
    """Per-resource grant and wait totals, recorded while installed."""

    def __init__(self, monkeypatch):
        self._requested = {}   # queued Grant -> its request time
        self._totals = {}      # Resource -> [grants, wait_ps]
        for kind in (Resource, PriorityResource):
            monkeypatch.setattr(kind, "acquire", self._stamping(kind.acquire))
        admit, claim = Resource._admit, Resource.claim

        def counted_admit(resource, grant):
            now = resource.sim.now
            self._count(resource, now - self._requested.pop(grant, now))
            admit(resource, grant)

        def counted_claim(resource, callback, priority=0):
            hold = claim(resource, callback, priority)
            if hold is None:
                self._count(resource, 0)
            return hold

        step = ClaimChain.step

        def counted_step(chain, event=None):
            index = chain._index
            step(chain, event)
            # A hold taken in the step's own frame leaves no Grant; the
            # step claims a held resource, whose Grant _admit counts.
            if chain._index > index and chain._holds[index] is None:
                self._count(chain._resources[index], 0)

        monkeypatch.setattr(Resource, "_admit", counted_admit)
        monkeypatch.setattr(Resource, "claim", counted_claim)
        monkeypatch.setattr(ClaimChain, "step", counted_step)

    def _stamping(self, acquire):
        def stamped(resource, priority=0):
            grant = acquire(resource, priority)
            if not grant.triggered:
                self._requested[grant] = resource.sim.now
            return grant
        return stamped

    def _count(self, resource, wait_ps):
        totals = self._totals.setdefault(resource, [0, 0])
        totals[0] += 1
        totals[1] += wait_ps

    def grants(self, resource) -> int:
        """Grants admitted or held in place on ``resource``."""
        return self._totals.get(resource, (0, 0))[0]

    def wait_ps(self, resource) -> int:
        """Total picoseconds ``resource``'s grants waited for admission."""
        return self._totals.get(resource, (0, 0))[1]
