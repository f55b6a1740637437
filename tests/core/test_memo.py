"""Tests for the shared bounded, thread-safe LRU memo (repro.core.memo)."""

import sys
import threading

import pytest

from repro.core.memo import Memo
from repro.obs.metrics import registry, reset_metrics


class TestLRU:
    def test_evicts_least_recently_used_at_maxsize(self):
        memo = Memo("counter_memo", 2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1          # "a" is now the most recent
        memo.put("c", 3)                   # evicts "b"
        assert memo.get("b") is None
        assert memo.get("a") == 1 and memo.get("c") == 3
        assert memo.info() == {"hits": 3, "misses": 1, "size": 2, "maxsize": 2}

    def test_get_or_compute_computes_once(self):
        memo = Memo("counter_memo", 4)
        calls = []
        for _ in range(3):
            assert memo.get_or_compute("k", lambda: calls.append(1) or 7) == 7
        assert len(calls) == 1
        assert memo.info()["hits"] == 2 and memo.info()["misses"] == 1

    def test_clear_drops_entries_and_counters(self):
        memo = Memo("counter_memo", 4)
        memo.get_or_compute("k", lambda: 1)
        memo.clear()
        assert memo.info() == {"hits": 0, "misses": 0, "size": 0, "maxsize": 4}


class TestByteBudget:
    def test_evicts_oldest_until_it_fits(self):
        memo = Memo("geometry_memo", 10, max_bytes=10, sizeof=len)
        memo.put("a", b"xxxx")
        memo.put("b", b"xxxx")
        memo.put("c", b"xxxxxx")           # 14 bytes: "a" must go
        assert memo.get("a") is None
        assert memo.get("b") == b"xxxx" and memo.get("c") == b"xxxxxx"
        assert memo.info()["nbytes"] == 10
        memo.put("d", b"xxxxxxxx")         # only "d" fits
        assert len(memo) == 1 and memo.info()["nbytes"] == 8

    def test_entry_larger_than_budget_is_never_stored(self):
        memo = Memo("geometry_memo", 10, max_bytes=10, sizeof=len)
        memo.put("small", b"xx")
        value = memo.get_or_compute("big", lambda: b"x" * 11)
        assert value == b"x" * 11
        assert memo.get("big") is None
        assert memo.get("small") == b"xx"
        assert memo.info()["nbytes"] == 2

    def test_replacing_a_key_updates_its_size(self):
        memo = Memo("geometry_memo", 10, max_bytes=10, sizeof=len)
        memo.put("a", b"xxxxxx")
        memo.put("a", b"xx")
        assert memo.info()["nbytes"] == 2 and len(memo) == 1


class TestValues:
    def test_stored_none_is_a_hit(self):
        memo = Memo("region_memo", 4)
        calls = []
        for _ in range(2):
            assert memo.get_or_compute("k", lambda: calls.append(1)) is None
        assert len(calls) == 1
        assert memo.info()["hits"] == 1 and memo.info()["misses"] == 1

    def test_unhashable_key_computes_without_storing(self):
        memo = Memo("compile_cache", 4)
        calls = []
        for _ in range(2):
            assert memo.get_or_compute(["unhashable"],
                                       lambda: calls.append(1) or 5) == 5
        assert len(calls) == 2
        assert memo.info() == {"hits": 0, "misses": 0, "size": 0, "maxsize": 4}


class TestCatalog:
    def test_undeclared_name_is_rejected(self):
        with pytest.raises(ValueError, match="MEMO_CATALOG"):
            Memo("not_a_memo", 4)

    def test_counters_feed_the_registry(self):
        reset_metrics()
        memo = Memo("hf_shape_memo", 4)
        memo.get_or_compute("k", lambda: 1)
        memo.get_or_compute("k", lambda: 1)
        assert registry().counter("hf_shape_memo_misses_total") == 1.0
        assert registry().counter("hf_shape_memo_hits_total") == 1.0


def test_threaded_accounting_and_bound():
    """hits + misses equals the lookups, and the size never exceeds the bound."""
    memo = Memo("counter_memo", 16)
    nthreads, lookups = 8, 2000
    errors, sizes = [], []
    start = threading.Barrier(nthreads)

    def worker(seed):
        try:
            start.wait(timeout=30)
            for i in range(lookups):
                key = (seed * 7 + i) % 40
                assert memo.get_or_compute(key, lambda: key * 2) == key * 2
                sizes.append(len(memo))
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(nthreads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    info = memo.info()
    assert info["hits"] + info["misses"] == nthreads * lookups
    assert max(sizes) <= 16 and info["size"] <= 16
