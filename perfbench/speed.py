"""A host-speed probe that rescales measured seconds to a reference speed.

On a shared host the core this benchmark runs on slows down and speeds up
by up to 1.7x in phases that last from a fraction of a second to minutes,
as co-tenants come and go. Raw host seconds of the same pass then differ
by 20-40 % between runs. :class:`SpeedClock` takes that out: a timer
signal runs a small fixed pure-Python probe every ``interval_s``, and each
stretch of time between probes counts ``reference_s / probe_seconds`` of
its host seconds, where ``probe_seconds`` is how long the probe before it
took. The probe's own time counts nothing. The result reads as the host
seconds the same work takes on a core where the probe takes
``reference_s``.

A change of the program that makes it faster shows almost in full: the
probe is the benchmark's own code and does not change with the program;
only its cold cost depends a little on what the program leaves in the
caches.
"""

import gc
import random
import signal
import time


class _Way:
    __slots__ = ("tag", "ppn", "age")

    def __init__(self, tag, ppn, age):
        self.tag = tag
        self.ppn = ppn
        self.age = age


_rng = random.Random(5)
_ADDRESSES = [_rng.randrange(1 << 16) for _ in range(512)]
#: Written, so every page is backed (an untouched page maps to the
#: shared zero page and would stay cached); larger than the core's L2.
_FAR = bytearray(range(256)) * (4 << 12)
_FAR_INDICES = [_rng.randrange(len(_FAR)) for _ in range(4096)]
del _rng


def probe(rounds):
    """Fixed work in the simulator's style: scattered reads from a buffer
    that does not fit the L2 cache, then a small set-associative,
    LRU-managed lookup table over a fixed address stream, backed by a
    dict. The program's time goes partly to cache misses and partly to
    interpreting, and co-tenants slow the two by different factors, so
    the probe has both."""
    far = _FAR
    for index in _FAR_INDICES:
        far[index]
    sets = [[] for _ in range(64)]
    table = {}
    clock = 0
    for _ in range(rounds):
        for vpn in _ADDRESSES:
            clock += 1
            ways = sets[vpn & 63]
            tag = vpn >> 6
            for way in ways:
                if way.tag == tag:
                    way.age = clock
                    break
            else:
                ppn = table.get(vpn)
                if ppn is None:
                    ppn = table[vpn] = (vpn * 2654435761) & 0xFFFFF
                if len(ways) >= 4:
                    ways.remove(min(ways, key=lambda w: w.age))
                ways.append(_Way(tag, ppn, clock))
    return clock


class SpeedClock:
    """Seconds at reference speed since :meth:`start`.

    Call the instance for the current reading. Between :meth:`start` and
    :meth:`stop` a ``SIGALRM`` interval timer runs :func:`probe` every
    ``interval_s``; ``probes`` lists each probe's host seconds.
    """

    def __init__(self, reference_s, interval_s, rounds,
                 clock=time.perf_counter):
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.rounds = rounds
        self.clock = clock
        self.probes = []
        self._reading = 0.0
        self._since = None
        self._scale = 1.0
        self._probing = False
        self._previous_handler = None

    def _probe(self, *_signal_args):
        if self._probing:
            return  # the timer fired again inside a stalled probe
        self._probing = True
        clock = self.clock
        start = clock()
        self._reading += (start - self._since) * self._scale
        # No collection inside the probe: its cost depends on the
        # program's heap, not on the host.
        collecting = gc.isenabled()
        gc.disable()
        probe(self.rounds)
        if collecting:
            gc.enable()
        end = clock()
        self.probes.append(end - start)
        self._scale = self.reference_s / (end - start)
        self._since = end
        self._probing = False

    def start(self):
        """Probe once to set the first scale, then arm the timer."""
        self._since = self.clock()
        self._probe()
        self._reading = 0.0
        self._previous_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def __call__(self):
        while True:
            since = self._since
            reading = self._reading + (self.clock() - since) * self._scale
            # A probe run by the signal between the reads above replaced
            # ``_since`` with a new object; read again.
            if self._since is since:
                return reading
