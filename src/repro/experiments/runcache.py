"""Persistent, content-addressed run cache for experiment results.

Every measured run is a pure function of (application, full ``SimConfig``
field values, cores, scale, containers-per-core, simulator code): the
workloads draw from per-container seeded RNGs, so re-running the same
request always reproduces the same numbers.  This module turns that
purity into a disk cache: a run's *summary artifacts* — the
:class:`~repro.sim.stats.RunResult` counters, per-request latencies, and
kernel-side accounting — are serialized as JSON under
``benchmarks/out/runcache/`` keyed by a SHA-256 over the canonicalized
request plus a fingerprint of the ``repro`` package sources.  Editing any
simulator source changes the fingerprint and invalidates every entry.

Live ``Environment`` objects (kernel, page tables, TLBs) are deliberately
*not* stored: experiments that introspect live kernel state (Figure 9's
page-table walk) bypass the cache with ``use_cache=False``.  Experiments
that only need coarse kernel accounting (page-table page counts, fault
totals) read the run's :func:`kernel_snapshot` dict, which live and
rehydrated runs both carry.  The same key data this module hashes is
also the in-memory memo key (:mod:`repro.experiments.common`).

Cache layout: one ``<sha256>.json`` file per run, containing the key
data (for debuggability) alongside the payload.  Writes go through a
``.tmp`` + ``os.replace`` so concurrent writers (``--jobs N``) never
expose a torn entry.  Clear it with ``python -m repro.experiments cache
--clear`` or by deleting the directory.
"""

import dataclasses
import hashlib
import itertools
import json
import os
import pathlib

from repro.core.aslr import ASLRMode
from repro.kernel.costs import KernelCosts
from repro.kernel.frames import FrameKind
from repro.obs.tracer import TraceOptions
from repro.sim.config import SimConfig
from repro.sim.stats import RunResult

#: Environment override for the cache directory (used by benchmarks/CI).
CACHE_DIR_ENV = "REPRO_RUN_CACHE_DIR"

_FINGERPRINT = None


def default_cache_dir():
    """``benchmarks/out/runcache`` next to the source tree (or
    ``$REPRO_RUN_CACHE_DIR``)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    package = pathlib.Path(__file__).resolve().parent.parent
    repo = package.parent.parent
    return repo / "benchmarks" / "out" / "runcache"


def code_fingerprint():
    """SHA-256 over every ``.py`` source of the ``repro`` package.

    Computed once per process; any source edit yields a new fingerprint,
    so stale cache entries can never masquerade as current results.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        package = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package.rglob("*.py")):
            digest.update(str(path.relative_to(package)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


# -- canonicalization --------------------------------------------------------------


def config_field_dict(config):
    """A ``SimConfig`` as a flat, JSON-serializable field dict.

    This — not ``config.name`` — is what cache keys hash: two configs
    built from the same builder with different overrides canonicalize to
    different dicts and therefore different keys.
    """
    fields = dataclasses.asdict(config)
    fields["aslr_mode"] = config.aslr_mode.value
    return fields


def config_from_fields(fields):
    """Rebuild the exact ``SimConfig`` a cache entry was produced under."""
    fields = dict(fields)
    fields["aslr_mode"] = ASLRMode(fields["aslr_mode"])
    fields["costs"] = KernelCosts(**fields["costs"])
    # ``dataclasses.asdict`` flattened any TraceOptions into a plain dict;
    # rebuild the dataclass so rehydrated configs stay hashable.
    if isinstance(fields.get("trace"), dict):
        fields["trace"] = TraceOptions(**fields["trace"])
    return SimConfig(**fields)


def canonical_json(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def app_key_data(app_name, config, cores, scale, containers_per_core):
    return {
        "kind": "app",
        "app": app_name,
        "config": config_field_dict(config),
        "cores": cores,
        "scale": scale,
        "containers_per_core": containers_per_core,
    }


def functions_key_data(config, dense, cores, scale):
    return {
        "kind": "functions",
        "config": config_field_dict(config),
        "dense": dense,
        "cores": cores,
        "scale": scale,
    }


# -- summary (de)serialization ------------------------------------------------------


def result_from_dict(data):
    result = RunResult(data["config_name"])
    for name, value in data["stats"].items():
        setattr(result.stats, name, value)
    result.core_cycles = {k: v for k, v in data["core_cycles"]}
    result.request_latency = {k: v for k, v in data["request_latency"]}
    result.completion_cycles = {k: v for k, v in data["completion_cycles"]}
    result.process_cycles = {k: v for k, v in data["process_cycles"]}
    result.context_switches = data["context_switches"]
    result.obs = data.get("obs")
    # ``latency``, ``total_cycles`` are derived on the fly; a cached
    # ``coherence_violations`` count has no record list to restore.
    return result


def kernel_snapshot(kernel):
    """The kernel-side accounting experiments read off finished runs
    (density's page-table page counts, resources' MaskPage counts)."""
    registry = getattr(kernel.policy, "registry", None)
    return {
        "frame_counts": {kind.name: kernel.allocator.count(kind)
                         for kind in FrameKind},
        "policy_registry_len": (len(registry)
                                if registry is not None else None),
        "minor_faults": kernel.total_minor_faults,
        "major_faults": kernel.total_major_faults,
        "cow_faults": kernel.total_cow_faults,
    }


# -- the disk store -----------------------------------------------------------------


#: Per-process staging-file counter: combined with the pid it makes
#: every in-flight ``.tmp`` name unique, so concurrent same-key writers
#: (pool workers, daemon threads) never truncate each other's staging
#: file mid-write. ``count().__next__`` is atomic under the GIL.
_TMP_IDS = itertools.count()


class DiskRunCache:
    """Content-addressed JSON store for run summaries.

    ``fingerprint`` defaults to :func:`code_fingerprint`; tests inject a
    fixed value to exercise invalidation without editing sources.

    **Concurrency contract (the tmp-rename invariant).** Writers stage
    the full entry in a private ``<hash>.tmp.<pid>.<n>`` file and
    publish it with one atomic ``os.replace``; readers only ever open
    the final ``<hash>.json`` path, so a reader racing any number of
    same-key writers sees either no entry or one complete entry — never
    a partial one. Concurrent writers of the same key are last-writer-
    wins (both wrote byte-identical payloads for a pure run anyway). A
    final-path entry that *does* fail to parse (torn by a crash mid-
    ``os.replace`` on a non-atomic filesystem, or external corruption)
    is treated as a miss, never an error.
    """

    def __init__(self, root=None, fingerprint=None):
        self.root = pathlib.Path(root) if root else default_cache_dir()
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0

    def key_hash(self, key_data):
        blob = canonical_json({"key": key_data, "code": self.fingerprint})
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key_data):
        return self.root / ("%s.json" % self.key_hash(key_data))

    def load(self, key_data):
        """The stored payload for ``key_data``, or None on a miss (also on
        a torn/corrupt entry, or a JSON value that is not an entry object
        with a payload object, which is then treated as absent).

        Reads only the final path — in-flight ``.tmp.*`` staging files
        from concurrent writers are invisible by construction.
        """
        try:
            entry = json.loads(self._path(key_data).read_text())
        except (OSError, ValueError):
            entry = None
        payload = entry.get("payload") if isinstance(entry, dict) else None
        if not isinstance(payload, dict):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, key_data, payload):
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key_data)
        entry = {"key": key_data, "code": self.fingerprint,
                 "payload": payload}
        tmp = path.with_name("%s.tmp.%d.%d"
                             % (path.stem, os.getpid(), next(_TMP_IDS)))
        tmp.write_text(json.dumps(entry, sort_keys=True))
        os.replace(tmp, path)
        return path

    def entries(self):
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json"))

    def clear(self):
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
