"""One bounded, thread-safe LRU memo for every keyed cache in the package.

:class:`Memo` owns what the package's caches share: LRU eviction by entry
count with an optional byte budget (a value larger than the whole budget
is never stored); one lock, with values computed outside it and the first
stored value winning a race; a stored ``None`` reads as a hit; unhashable
keys compute straight through uncached; per-instance ``info()`` /
``clear()``; and the ``<name>_hits_total`` / ``<name>_misses_total``
counters, for names declared in :data:`repro.obs.metrics.MEMO_CATALOG`
only.  :class:`MemoStore` adds a disk tier of checksummed JSON entries
through :mod:`repro.core.diskstore` (quarantine and fault sites included),
whose hits also count as ``disk_hits`` / ``<name>_disk_hits_total``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

from ..obs import metrics as _obs_metrics

__all__ = ["Memo", "MemoStore"]

_MISSING = object()


class Memo:
    """Bounded, thread-safe LRU memo named after its metrics counters;
    *disk* is the :class:`MemoStore` whose entry files back it."""

    def __init__(self, name: str, maxsize: int, *,
                 max_bytes: Optional[int] = None,
                 sizeof: Optional[Callable[[Any], int]] = None,
                 disk: Optional["MemoStore"] = None) -> None:
        declared = _obs_metrics.MEMO_CATALOG.get(name)
        if declared is None:
            raise ValueError(f"memo {name!r} is not declared in "
                             "repro.obs.metrics.MEMO_CATALOG")
        if disk is not None and not declared[1]:
            raise ValueError(f"memo {name!r} is declared without a disk tier")
        self.maxsize = int(maxsize)
        self.max_bytes = max_bytes
        self.disk = disk
        self._sizeof = sizeof
        self._entries: OrderedDict = OrderedDict()
        self._sizes: Dict[Any, int] = {}
        self._nbytes = 0
        self._lock = threading.Lock()
        self.hits = self.misses = self.disk_hits = 0
        # bound once: the process-wide registry is reset in place, and the
        # lookup hot path skips the module-level ``inc`` indirection
        self._inc = _obs_metrics.registry().inc
        self._hits_total = f"{name}_hits_total"
        self._misses_total = f"{name}_misses_total"
        self._disk_hits_total = f"{name}_disk_hits_total"

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, default=None):
        """The value under *key* (a hit), else *default* (a miss); raises
        :class:`TypeError` for an unhashable *key*."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self.hits += 1
        if value is not _MISSING:
            self._inc(self._hits_total)
            return value
        if self.disk is not None:
            value = self._disk_read(key)
            if value is not None:
                with self._lock:
                    self.hits += 1
                    self.disk_hits += 1
                    self._remember(key, value, self._size(value))
                self._inc(self._hits_total)
                self._inc(self._disk_hits_total)
                return value
        with self._lock:
            self.misses += 1
        self._inc(self._misses_total)
        return default

    def get_or_compute(self, key, compute: Callable[[], Any]):
        """The memoised ``compute()`` for *key* (an unhashable *key*
        computes uncached; if another thread stored *key* meanwhile, the
        first stored value wins)."""
        try:
            value = self.get(key, _MISSING)
        except TypeError:
            return compute()
        if value is not _MISSING:
            return value
        value = compute()
        size = self._size(value)
        with self._lock:
            stored = self._entries.get(key, _MISSING)
            if stored is not _MISSING:
                self._entries.move_to_end(key)
                return stored
            self._remember(key, value, size)
        if self.disk is not None:
            self._disk_write(key, value)
        return value

    def put(self, key, value) -> None:
        """Store *value* under *key* (write-through to the disk tier)."""
        size = self._size(value)
        with self._lock:
            self._remember(key, value, size)
        if self.disk is not None:
            self._disk_write(key, value)

    def _size(self, value) -> int:
        return 0 if self._sizeof is None else int(self._sizeof(value))

    def _remember(self, key, value, size: int) -> None:
        """Insert as most recent, then evict oldest-first to fit (locked)."""
        if key in self._entries:
            del self._entries[key]
            self._nbytes -= self._sizes.pop(key, 0)
        if self.max_bytes is not None:
            if size > self.max_bytes:
                return
            self._sizes[key] = size
            self._nbytes += size
        self._entries[key] = value
        while len(self._entries) > self.maxsize or (
                self.max_bytes is not None and self._nbytes > self.max_bytes):
            old, _ = self._entries.popitem(last=False)
            self._nbytes -= self._sizes.pop(old, 0)

    def _disk_read(self, key):
        from .diskstore import read_json_entry

        payload = read_json_entry(self.disk._disk_path(key))
        return None if payload is None else self.disk._load(key, payload)

    def _disk_write(self, key, value) -> None:
        from .diskstore import write_json_entry

        write_json_entry(self.disk._disk_path(key), self.disk._dump(value),
                         self.disk.max_disk_bytes)

    def info(self) -> Dict[str, int]:
        """``hits``/``misses``/``size``/``maxsize`` (plus ``nbytes`` and
        ``max_bytes`` with a byte budget)."""
        with self._lock:
            info = {"hits": self.hits, "misses": self.misses,
                    "size": len(self._entries), "maxsize": self.maxsize}
            if self.max_bytes is not None:
                info.update(nbytes=self._nbytes, max_bytes=self.max_bytes)
            return info

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._nbytes = 0
            self.hits = self.misses = self.disk_hits = 0


class MemoStore:
    """A :class:`Memo` with an optional disk tier under *disk_dir*.

    The base of :class:`~repro.workloads.cache.ResultCache` and
    :class:`~repro.tuning.db.TuningDB`.  A subclass names its memo and
    default directory, maps keys to entry files (``_disk_path``) and
    values to JSON payloads and back (``_dump`` / ``_load``; a None load
    reads as a miss), and defines its own ``get``/``put`` over ``_memo``.
    """

    memo_name = ""
    default_dir = ""

    def __init__(self, maxsize: int, disk_dir: Optional[str],
                 max_disk_bytes: int) -> None:
        self.maxsize = int(maxsize)
        self.disk_dir = disk_dir
        self.max_disk_bytes = max_disk_bytes
        self._memo = Memo(self.memo_name, self.maxsize,
                          disk=None if disk_dir is None else self)

    def info(self) -> Dict[str, object]:
        """The memo's ``info()`` plus the disk tier's statistics."""
        return {**self._memo.info(), "disk_hits": self._memo.disk_hits,
                "disk_enabled": self.disk_dir is not None,
                "max_disk_bytes": self.max_disk_bytes}

    def clear(self) -> None:
        """Drop the in-memory entries and reset the counters (disk entries
        stay and re-read as disk hits)."""
        self._memo.clear()

    def reconfigured(self, *, maxsize: Optional[int] = None,
                     disk_dir: Optional[str] = None,
                     disk: Optional[bool] = None,
                     max_disk_bytes: Optional[int] = None) -> "MemoStore":
        """A fresh, empty store of this type with the given settings changed:
        unset arguments keep this store's; ``disk=True`` enables the disk
        tier at *disk_dir*, else the current or :attr:`default_dir`, and
        ``disk=False`` disables it."""
        if disk is None:
            new_dir = disk_dir if disk_dir is not None else self.disk_dir
        elif disk:
            new_dir = disk_dir or self.disk_dir or self.default_dir
        else:
            new_dir = None
        return type(self)(
            maxsize=maxsize if maxsize is not None else self.maxsize,
            disk_dir=new_dir,
            max_disk_bytes=max_disk_bytes if max_disk_bytes is not None
            else self.max_disk_bytes)
