"""Active/inactive page membership (Section VII-A's "Active pte_ts" proxy).

Linux keeps referenced pages on an active list and ages them to an
inactive list; Figure 9's central bar counts pte_ts whose page is on the
active list. We keep the two-list membership with second-chance
promotion: a first touch lands a page on the inactive list, a second touch
promotes it to active. Nothing ages pages off the active list (our
simulated workloads fit in the 32GB of Table I, so there is no reclaim
pressure) and nothing reads recency order, so one dict holds it all.
"""


class ActiveInactiveLRU:
    def __init__(self):
        #: ``ppn -> active`` in first-touch order: False after the first
        #: touch (inactive), True from the second on (active).
        self._refs = {}

    def touch(self, ppn):
        """Record a reference to a physical page."""
        refs = self._refs
        refs[ppn] = ppn in refs

    def drop(self, ppn):
        self._refs.pop(ppn, None)

    def is_active(self, ppn):
        return self._refs.get(ppn, False)

    def is_tracked(self, ppn):
        return ppn in self._refs

    def reset(self):
        self._refs.clear()

    @property
    def active_count(self):
        return sum(self._refs.values())

    @property
    def inactive_count(self):
        return len(self._refs) - self.active_count
