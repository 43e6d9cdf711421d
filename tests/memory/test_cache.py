"""Tests for the set-associative cache timing model."""

import copy

from hypothesis import given, settings, strategies as st

from repro.common.config import CacheConfig
from repro.memory.cache import CacheModel


def small_cache(assoc=2, sets=4, hit=2, mshrs=2):
    return CacheModel(CacheConfig(
        size_bytes=assoc * sets * 64, assoc=assoc, line_bytes=64,
        hit_latency_cycles=hit, mshrs=mshrs))


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        hit, when = c.lookup(0x1000, 0)
        assert not hit
        c.fill(0x1000, when, when + 50)
        hit, ready = c.lookup(0x1000, 100)
        assert hit
        assert ready == 102

    def test_same_line_shares(self):
        c = small_cache()
        _, when = c.lookup(0x1000, 0)
        c.fill(0x1000, when, 50)
        hit, _ = c.lookup(0x1038, 100)  # same 64B line
        assert hit

    def test_different_line_misses(self):
        c = small_cache()
        _, when = c.lookup(0x1000, 0)
        c.fill(0x1000, when, 50)
        hit, _ = c.lookup(0x1040, 100)
        assert not hit

    def test_stats(self):
        c = small_cache()
        _, when = c.lookup(0x1000, 0)
        c.fill(0x1000, when, 10)
        c.lookup(0x1000, 20)
        assert c.misses == 1 and c.hits == 1


class TestInFlight:
    def test_hit_on_inflight_line_waits_for_fill(self):
        """Regression: a line installed but still being fetched must not
        be an instant hit — the access completes when the fill does."""
        c = small_cache()
        _, when = c.lookup(0x1000, 0)
        c.fill(0x1000, when, 500)
        hit, ready = c.lookup(0x1000, 10)
        assert hit
        assert ready == 500

    def test_hit_after_fill_complete_is_fast(self):
        c = small_cache()
        _, when = c.lookup(0x1000, 0)
        c.fill(0x1000, when, 500)
        _hit, ready = c.lookup(0x1000, 600)
        assert ready == 602

    def test_prefetch_install_with_ready(self):
        c = small_cache()
        c.install(0x2000, ready=300)
        hit, ready = c.lookup(0x2000, 100)
        assert hit
        assert ready == 300


class TestLRU:
    def test_eviction_order(self):
        c = small_cache(assoc=2, sets=1)
        for addr in (0x0, 0x40):
            _, when = c.lookup(addr, 0)
            c.fill(addr, when, 1)
        # touch 0x0 so 0x40 becomes LRU
        c.lookup(0x0, 10)
        _, when = c.lookup(0x80, 20)
        c.fill(0x80, when, 21)
        assert c.probe(0x0)
        assert not c.probe(0x40)
        assert c.probe(0x80)

    def test_probe_does_not_mutate(self):
        c = small_cache(assoc=2, sets=1)
        for addr in (0x0, 0x40):
            _, when = c.lookup(addr, 0)
            c.fill(addr, when, 1)
        c.probe(0x0)  # probes must not refresh LRU
        _, when = c.lookup(0x80, 10)
        c.fill(0x80, when, 11)
        assert not c.probe(0x0)  # 0x0 was still LRU


class TestMSHRs:
    def test_miss_concurrency_limited(self):
        c = small_cache(mshrs=1)
        _, start1 = c.lookup(0x1000, 0)
        c.fill(0x1000, start1, 100)
        # second miss while the first is outstanding: must wait for the slot
        _, start2 = c.lookup(0x2000, 10)
        assert start2 == 100
        assert c.mshr_stalls == 1

    def test_free_mshr_no_stall(self):
        c = small_cache(mshrs=2)
        _, s1 = c.lookup(0x1000, 0)
        c.fill(0x1000, s1, 100)
        _, s2 = c.lookup(0x2000, 10)
        assert s2 == 10
        assert c.mshr_stalls == 0


#: one operation on a family of models: (model, kind, line, offset,
#: time, time); the model index is reduced modulo the family size
op_draw = st.tuples(
    st.integers(min_value=0, max_value=7),
    st.sampled_from(["lookup", "lookup", "fill", "install", "probe",
                     "snapshot"]),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=0, max_value=300),
)

#: the family stops growing here; later snapshots replace a model
FAMILY_CAP = 6


def apply_op(family, op, fork):
    """Run ``op`` on ``family`` and return what it returned; a snapshot
    forks with ``fork`` and appends the clone (or replaces a model once
    the family is full)."""
    which, kind, line, offset, t1, t2 = op
    model = family[which % len(family)]
    addr = line * 64 + offset
    if kind == "lookup":
        return model.lookup(addr, t1)
    if kind == "fill":
        return model.fill(addr, min(t1, t2), max(t1, t2))
    if kind == "install":
        return model.install(addr, t1 if t2 % 2 else 0)
    if kind == "probe":
        return model.probe(addr)
    clone = fork(model)
    if len(family) < FAMILY_CAP:
        family.append(clone)
    else:
        family[t1 % FAMILY_CAP] = clone
    return None


def observed(model):
    return (model.hits, model.misses, model.mshr_stalls,
            [list(ways) for ways in model._sets])


class TestSnapshotCopyOnWrite:
    """Snapshots share cache sets copy-on-write: a family of models forked
    from each other, sources included, each running on its own stream of
    operations, must behave exactly like a family forked by deepcopy."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=3),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3),
           st.lists(op_draw, min_size=1, max_size=120))
    def test_forks_stay_independent(self, set_bits, assoc, mshrs, ops):
        sets = 1 << set_bits
        shared = [small_cache(assoc=assoc, sets=sets, mshrs=mshrs)]
        twins = [copy.deepcopy(shared[0])]
        for op in ops:
            got = apply_op(shared, op, CacheModel.snapshot)
            want = apply_op(twins, op, copy.deepcopy)
            assert got == want
            assert [observed(m) for m in shared] == \
                [observed(m) for m in twins]
