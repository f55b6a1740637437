"""Request-level result cache for the unified Workload API.

Every workload run is a pure function of its frozen, hashable
:class:`~repro.workloads.base.RunRequest` (the jitter samples are seeded, the
timing model is deterministic), so repeated sweep points and repeated
``bench`` invocations can be answered from a keyed memo instead of re-running
verification and the analytic pipeline.

A :class:`~repro.core.memo.MemoStore`: an **in-memory LRU** keyed by the
``RunRequest`` itself, over an optional **on-disk JSON store** (default
``.repro_cache/``) keyed by a digest of the request's canonical JSON, which
survives process boundaries and makes repeated CLI ``bench`` invocations
near-free.  Disk hits are rehydrated into a :class:`WorkloadResult` whose
``timing`` entries are the plain exported dicts (export-shaped for cached
results).  ``result_cache_info()`` / ``clear_result_cache()`` expose the
default cache's statistics.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import threading
from typing import Dict, Optional

from ..core.memo import MemoStore
from .base import RunRequest, Verification, WorkloadResult

__all__ = ["ResultCache", "run_cached", "result_cache_info",
           "clear_result_cache", "configure_result_cache",
           "DEFAULT_CACHE_DIR", "DEFAULT_CACHE_DISK_BUDGET"]

#: default on-disk store location (created lazily, only when disk caching
#: is enabled)
DEFAULT_CACHE_DIR = ".repro_cache"

#: byte budget for the on-disk store; oldest results beyond it are evicted
#: (see :func:`repro.core.diskstore.prune_dir_to_budget`)
DEFAULT_CACHE_DISK_BUDGET = 64 * 1024 * 1024

#: schema tag stored with every disk entry; bump to invalidate old stores
_DISK_SCHEMA = "repro.result-cache/v1"


class ResultCache(MemoStore):
    """Keyed memo of :class:`WorkloadResult` by :class:`RunRequest`.

    Thread-safe; the in-memory layer is an LRU bounded by *maxsize*.  Pass a
    *disk_dir* to add the JSON store layer (entries are written through on
    :meth:`put` and consulted on in-memory misses).
    """

    memo_name = "result_cache"
    default_dir = DEFAULT_CACHE_DIR

    def __init__(self, maxsize: int = 256,
                 disk_dir: Optional[str] = None,
                 max_disk_bytes: int = DEFAULT_CACHE_DISK_BUDGET):
        super().__init__(maxsize, disk_dir, max_disk_bytes)
        # per-request single-flight locks (see locked()); guarded by _lock
        self._lock = threading.Lock()
        self._inflight: Dict[RunRequest, threading.Lock] = {}
        self._inflight_refs: Dict[RunRequest, int] = {}

    @contextlib.contextmanager
    def locked(self, request: RunRequest):
        """Serialise computations of one request (single-flight).

        Concurrent callers of :func:`run_cached` — a threaded
        ``Sweep.run_workload(workers=N)`` or the async
        ``run_workload_async`` — may hold duplicate requests.  Without
        coalescing, every duplicate misses and runs the workload
        redundantly, and the sync sequential path (one miss, then hits) and
        the concurrent paths (N misses) would disagree in their cache
        accounting.  This lock keys on the request itself, so *distinct*
        requests still run fully in parallel.
        """
        with self._lock:
            lock = self._inflight.get(request)
            if lock is None:
                lock = threading.Lock()
                self._inflight[request] = lock
                self._inflight_refs[request] = 0
            self._inflight_refs[request] += 1
        lock.acquire()
        try:
            yield
        finally:
            lock.release()
            with self._lock:
                self._inflight_refs[request] -= 1
                if self._inflight_refs[request] == 0:
                    del self._inflight[request]
                    del self._inflight_refs[request]

    # ------------------------------------------------------------------ keys
    @staticmethod
    def disk_key(request: RunRequest) -> str:
        """Stable digest of the request's canonical JSON form.

        The package version is folded into the digest so a release boundary
        invalidates the store.  Within one version the entries assume the
        workload code is unchanged — when iterating on kernel or model code
        locally, run with ``--no-cache`` / ``cache=False`` or delete
        ``.repro_cache/``, otherwise a stale result (including its cached
        verification verdict) is served.
        """
        from .. import __version__

        payload = json.dumps(request.as_dict(), sort_keys=True, default=str)
        keyed = f"{__version__}|{payload}"
        return hashlib.sha256(keyed.encode("utf-8")).hexdigest()[:24]

    def _disk_path(self, request: RunRequest) -> str:
        return os.path.join(self.disk_dir, "results",
                            f"{request.workload}-{self.disk_key(request)}.json")

    # ------------------------------------------------------------- get / put
    def get(self, request: RunRequest) -> Optional[WorkloadResult]:
        """Cached result for *request*, or None.  Counts a hit or a miss."""
        result = self._memo.get(request)
        return None if result is None else _clone(result)

    def put(self, request: RunRequest, result: WorkloadResult) -> None:
        """Store *result* under *request* (write-through to disk if enabled).

        A caller-isolated clone is stored, so mutating the result object
        after ``put`` cannot poison the cache.
        """
        self._memo.put(request, _clone(result))

    @staticmethod
    def _dump(result: WorkloadResult) -> Dict:
        return {"schema": _DISK_SCHEMA, "result": result.as_dict()}

    @staticmethod
    def _load(request: RunRequest, payload: Dict) -> Optional[WorkloadResult]:
        if payload.get("schema") != _DISK_SCHEMA:
            return None
        return _result_from_export(request, payload["result"])


def _clone(result: WorkloadResult) -> WorkloadResult:
    """Caller-isolated view of a cached result.

    Top-level containers (metrics, timing, samples, provenance) are fresh
    dicts/lists so caller-side mutation cannot poison the cache; the request,
    verification and timing breakdown objects are shared (frozen or treated
    as read-only).
    """
    out = copy.copy(result)
    out.metrics = dict(result.metrics)
    out.timing = dict(result.timing)
    out.samples = {k: list(v) for k, v in result.samples.items()}
    out.provenance = dict(result.provenance)
    return out


def _result_from_export(request: RunRequest, payload: Dict) -> WorkloadResult:
    """Rehydrate a :class:`WorkloadResult` from its ``as_dict()`` export.

    ``timing`` values stay as the exported dicts — the export schema is the
    contract for cached results.
    """
    v = payload.get("verification", {})
    return WorkloadResult(
        request=request,
        metrics=dict(payload.get("metrics", {})),
        primary_metric=payload.get("primary_metric", ""),
        verification=Verification(
            ran=bool(v.get("ran", False)),
            passed=bool(v.get("passed", False)),
            max_rel_error=v.get("max_rel_error"),
            detail=v.get("detail", ""),
        ),
        timing=dict(payload.get("timing", {})),
        samples={k: list(s) for k, s in payload.get("samples", {}).items()},
        provenance=dict(payload.get("provenance", {})),
    )


# ---------------------------------------------------------------------------
# Module-level default cache (mirrors the compile-cache module API)
# ---------------------------------------------------------------------------

_default_cache = ResultCache()
_default_lock = threading.Lock()


def configure_result_cache(*, maxsize: Optional[int] = None,
                           disk_dir: Optional[str] = None,
                           disk: Optional[bool] = None,
                           max_disk_bytes: Optional[int] = None) -> ResultCache:
    """Replace the default cache's configuration.

    ``disk=True`` enables the on-disk store at *disk_dir* (default
    ``.repro_cache/``); ``disk=False`` disables it; ``max_disk_bytes``
    bounds the store's size (oldest entries are evicted past it).  Returns
    the (new) default cache; existing entries and counters are dropped.
    """
    global _default_cache
    with _default_lock:
        _default_cache = _default_cache.reconfigured(
            maxsize=maxsize, disk_dir=disk_dir, disk=disk,
            max_disk_bytes=max_disk_bytes)
        return _default_cache


def run_cached(request: RunRequest, *,
               cache: Optional[ResultCache] = None,
               workload=None,
               runner=None) -> WorkloadResult:
    """Run *request* through its workload, memoised by request.

    Uses the module default cache unless an explicit :class:`ResultCache`
    is given.  *workload* may supply an already-resolved
    :class:`~repro.workloads.base.Workload` instance (required when it is
    not in the registry — e.g. an ad-hoc subclass driven through a sweep);
    otherwise the request's workload name is resolved through the registry.
    *runner* replaces ``workload.run`` as the miss-path computation — the
    resilience layer passes its retry/deadline/degradation wrapper here so
    cached sweeps recover from faults without bypassing the memo.

    Concurrent callers holding the *same* request coalesce into one run
    (single-flight): exactly one computes and stores, the rest read the
    stored result — so the hit/miss accounting is identical whether
    duplicates arrive sequentially (``Sweep.run_workload``), on a thread
    pool (``workers=N``) or through ``Sweep.run_workload_async``.

    Requests with ``tune != "off"`` are **never memoised**: their outcome
    depends on the mutable tuning database, and serving a result cached
    before a better winner was found would silently pin the old launch.
    """
    from .registry import get_workload

    target = cache if cache is not None else _default_cache
    wl = workload if workload is not None else get_workload(request.workload)
    run = runner if runner is not None else wl.run
    if request.tune != "off":
        return run(request)
    with target.locked(request):
        result = target.get(request)
        if result is not None:
            return result
        result = run(request)
        target.put(request, result)
    return result


def result_cache_info() -> Dict[str, int]:
    """Statistics of the default request-result memo."""
    return _default_cache.info()


def clear_result_cache() -> None:
    """Drop all memoised results (and reset the hit/miss counters)."""
    _default_cache.clear()
