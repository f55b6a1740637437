"""The tuning database: remembered winners per (workload, gpu, backend, ...).

A :class:`~repro.core.memo.MemoStore` like the request-level result cache
(:mod:`repro.workloads.cache`), with its disk store at ``.repro_tune/`` and
a module-level default instance.

Keys
----
A tuning record answers "what is the best launch configuration for this
*problem*", so the key is the :class:`~repro.workloads.base.RunRequest`
minus everything the tuner itself may change and everything irrelevant to
the optimum: the tuned param/field knobs, the measurement protocol, the
verification switches and the ``tune`` mode are all excluded.  What remains
— workload, GPU, backend, precision, the non-tuned params, and any
cost-shaping request field the space does *not* tune (``fast_math``, for a
space without that knob) — identifies the problem.  The schema tag and package version are folded into the digest
(and checked on read), so a schema bump or release invalidates stale
records instead of serving a winner the current model would not pick.

Disk entries are pruned oldest-first past a byte budget
(:func:`repro.core.diskstore.prune_dir_to_budget`), so ``.repro_tune/``
cannot grow without bound across sweeps.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..core.memo import MemoStore
from .space import TuningConfig, TuningSpace

__all__ = ["TuningRecord", "TuningDB", "DEFAULT_TUNE_DIR",
           "DEFAULT_TUNE_DISK_BUDGET", "configure_tuning_db",
           "default_tuning_db", "tuning_db_info", "clear_tuning_db"]

#: default on-disk store location (created lazily on the first write)
DEFAULT_TUNE_DIR = ".repro_tune"

#: byte budget for the on-disk store; oldest records beyond it are evicted
DEFAULT_TUNE_DISK_BUDGET = 8 * 1024 * 1024

#: schema tag stored with every record; bump to invalidate old stores
_TUNE_SCHEMA = "repro.tuning-record/v1"


@dataclass
class TuningRecord:
    """One persisted tuning winner."""

    workload: str
    gpu: str
    backend: str
    precision: str
    #: the request params the record is keyed by (tuned knobs excluded)
    key_params: Dict[str, object]
    #: the winning configuration
    config: TuningConfig
    #: measured cost of the winner, in ms (lower is better)
    score_ms: float
    #: measured cost of the request's untuned configuration, in ms
    baseline_ms: float
    #: the pruner's occupancy/roofline estimate for the winner, in ms
    modelled_ms: float
    strategy: str = ""
    budget: int = 0
    space_size: int = 0
    pruned: int = 0
    measured: int = 0

    @property
    def speedup(self) -> float:
        """Baseline-over-winner cost ratio (>1: tuning helped)."""
        if self.score_ms <= 0:
            return 1.0
        return self.baseline_ms / self.score_ms

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": _TUNE_SCHEMA,
            "workload": self.workload,
            "gpu": self.gpu,
            "backend": self.backend,
            "precision": self.precision,
            "key_params": dict(self.key_params),
            "config": self.config.as_dict(),
            "score_ms": self.score_ms,
            "baseline_ms": self.baseline_ms,
            "modelled_ms": self.modelled_ms,
            "strategy": self.strategy,
            "budget": self.budget,
            "space_size": self.space_size,
            "pruned": self.pruned,
            "measured": self.measured,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> Optional["TuningRecord"]:
        if payload.get("schema") != _TUNE_SCHEMA:
            return None
        cfg = payload.get("config", {})
        return cls(
            workload=payload["workload"],
            gpu=payload["gpu"],
            backend=payload["backend"],
            precision=payload["precision"],
            key_params=dict(payload.get("key_params", {})),
            config=TuningConfig.make(cfg.get("params"), cfg.get("fields")),
            score_ms=float(payload["score_ms"]),
            baseline_ms=float(payload["baseline_ms"]),
            modelled_ms=float(payload.get("modelled_ms", 0.0)),
            strategy=payload.get("strategy", ""),
            budget=int(payload.get("budget", 0)),
            space_size=int(payload.get("space_size", 0)),
            pruned=int(payload.get("pruned", 0)),
            measured=int(payload.get("measured", 0)),
        )


#: request fields that shape the measured kernel cost and therefore belong
#: in the problem key — unless the space tunes them, in which case they are
#: the record's *output* rather than part of its identity.  (``executor``,
#: ``streams``, the protocol and the verification switches never move the
#: analytic kernel cost, so they stay excluded either way.)
_COST_FIELDS = ("fast_math",)


def tuning_key(request, tuned_params: Sequence[str] = (),
               tuned_fields: Sequence[str] = ()) -> str:
    """Stable digest identifying the *problem* a tuning record answers."""
    from .. import __version__

    params = {k: v for k, v in sorted(request.params.items())
              if k not in set(tuned_params)}
    fields = {k: getattr(request, k) for k in _COST_FIELDS
              if k not in set(tuned_fields)}
    payload = json.dumps({
        "workload": request.workload,
        "gpu": request.gpu,
        "backend": request.backend,
        "precision": request.precision,
        "params": params,
        "fields": fields,
    }, sort_keys=True, default=str)
    keyed = f"{_TUNE_SCHEMA}|{__version__}|{payload}"
    return hashlib.sha256(keyed.encode("utf-8")).hexdigest()[:24]


class TuningDB(MemoStore):
    """Keyed store of :class:`TuningRecord`, memory LRU + optional disk."""

    memo_name = "tuning_db"
    default_dir = DEFAULT_TUNE_DIR

    def __init__(self, maxsize: int = 128,
                 disk_dir: Optional[str] = None,
                 max_disk_bytes: int = DEFAULT_TUNE_DISK_BUDGET):
        super().__init__(maxsize, disk_dir, max_disk_bytes)

    # ------------------------------------------------------------------ keys
    @staticmethod
    def key_for(request, space: Optional[TuningSpace] = None) -> str:
        if space is None:
            return tuning_key(request)
        return tuning_key(request, space.param_names, space.field_names)

    def _disk_path(self, key) -> str:
        workload, digest = key
        return os.path.join(self.disk_dir, "records",
                            f"{workload}-{digest}.json")

    # ------------------------------------------------------------- get / put
    def get(self, request, space: Optional[TuningSpace] = None,
            ) -> Optional[TuningRecord]:
        """Best-known record for *request*'s problem, or None."""
        return self._memo.get((request.workload, self.key_for(request, space)))

    def put(self, request, record: TuningRecord,
            space: Optional[TuningSpace] = None) -> str:
        """Store *record* for *request*'s problem; returns the key."""
        key = self.key_for(request, space)
        self._memo.put((request.workload, key), record)
        return key

    _dump = staticmethod(TuningRecord.as_dict)
    _load = staticmethod(lambda key, payload: TuningRecord.from_dict(payload))


# ---------------------------------------------------------------------------
# Module-level default DB (mirrors the result-cache module API)
# ---------------------------------------------------------------------------

_default_db = TuningDB(disk_dir=DEFAULT_TUNE_DIR)
_default_lock = threading.Lock()


def default_tuning_db() -> TuningDB:
    """The process-wide default tuning database."""
    return _default_db


def configure_tuning_db(*, maxsize: Optional[int] = None,
                        disk_dir: Optional[str] = None,
                        disk: Optional[bool] = None,
                        max_disk_bytes: Optional[int] = None) -> TuningDB:
    """Replace the default DB's configuration (entries are dropped).

    ``disk=False`` makes the default DB purely in-memory (used by tests and
    the tuned-portability report, which must not pollute ``.repro_tune/``).
    """
    global _default_db
    with _default_lock:
        _default_db = _default_db.reconfigured(
            maxsize=maxsize, disk_dir=disk_dir, disk=disk,
            max_disk_bytes=max_disk_bytes)
        return _default_db


def tuning_db_info() -> Dict[str, object]:
    """Statistics of the default tuning database."""
    return _default_db.info()


def clear_tuning_db() -> None:
    """Drop the default DB's in-memory records and counters."""
    _default_db.clear()
