"""A YCSB-style workload driver (Cooper et al., SoCC'10).

Each data-serving container in the paper is driven by a distinct YCSB
client with a 500MB data set; requests pick records with zipfian
popularity and mix reads with updates. The driver produces *requests*, the
unit the paper's mean/95th-percentile latency metrics are computed over.
"""

import dataclasses
import functools
import random

from repro.workloads.zipf import ZipfGenerator


@dataclasses.dataclass
class Request:
    request_id: int
    #: Data set pages read by the request.
    reads: list
    #: Data set pages written (updates).
    writes: list


@functools.lru_cache(maxsize=16)
def _key_scramble(records):
    """The fixed key->page permutation over ``records`` pages, built once
    per record count: every driver shares one immutable tuple."""
    pages = list(range(records))
    random.Random(1234).shuffle(pages)
    return tuple(pages)


class YCSBDriver:
    """Generates requests over ``records`` data-set pages."""

    def __init__(self, records, theta=0.99, write_frac=0.05,
                 reads_per_request=4, seed=0, request_base=0):
        self.records = records
        self.write_frac = write_frac
        self.reads_per_request = reads_per_request
        self._zipf = ZipfGenerator(records, theta, seed=seed)
        self._rng = random.Random(seed ^ 0x5EED)
        self._next_id = request_base
        #: Record popularity is scattered: page i being popular does not
        #: mean page i+1 is, so scramble key->page with a fixed permutation.
        self._scramble = _key_scramble(records)

    def next_request(self):
        reads = []
        writes = []
        # Request sizes vary (multi-get / range queries): a Pareto-ish
        # size distribution produces the heavy upper-percentile requests
        # that the paper's 95th-percentile latency metric keys on.
        size = min(int(self.reads_per_request * self._rng.paretovariate(2.2)),
                   self.reads_per_request * 4)
        for _ in range(max(1, size)):
            page = self._scramble[self._zipf.next()]
            if self._rng.random() < self.write_frac:
                writes.append(page)
            else:
                reads.append(page)
        request = Request(self._next_id, reads, writes)
        self._next_id += 1
        return request

    def requests(self, count):
        for _ in range(count):
            yield self.next_request()
