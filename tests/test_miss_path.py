"""Property tests for the TLB-miss path's structures.

Random sequences of probes, inserts and invalidations drive each
structure a page walk and its fill touch -- the set-associative TLB,
the fully-associative TLB, the MMU page-walk cache and the MMU's L2
back-invalidation -- side by side with a compact reference copy of the
straightforward implementation each one replaced (kept below). After
every operation the two must agree on the return value and on every
entry, in recency order. The pinned replay outputs cover only the
corners the captured scenarios reach; these cover the rest: every
index shift and associativity, graceful invalidation and
coalescing-aware replacement on and off, FA merges that bridge two
residents, superpages and the FA span limit.
"""

from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cache.mmu_cache import CACHEABLE_LEVELS, MMUCache, MMUCacheConfig
from repro.common.types import COALESCING_KEY_MASK
from repro.core.mmu import MMU, CoLTDesign, MMUConfig
from repro.tlb.config import FullyAssociativeTLBConfig, SetAssociativeTLBConfig
from repro.tlb.entries import merge_ranges, slice_to_group
from repro.tlb.fully_associative import FullyAssociativeTLB
from repro.tlb.set_associative import SetAssociativeTLB

#: Attribute values: 1 and 9 share a coalescing key (they differ only in
#: ACCESSED), 3 does not.
ATTRS = (1, 9, 3)


# ---------------------------------------------------------------------------
# Reference copies.
# ---------------------------------------------------------------------------


class ReferenceSATLB:
    """The set-associative TLB's probe, insert and invalidate, as they
    were before the miss path was tuned: a comprehension for the
    displaced entries, then a victim-choice helper for every insert."""

    def __init__(self, config):
        self.config = config
        self._shift = config.index_shift
        self._set_mask = config.num_sets - 1
        self._ways = config.ways
        self._sets = [{} for _ in range(config.num_sets)]

    def probe(self, vpn):
        bucket = self._sets[(vpn >> self._shift) & self._set_mask]
        for entry in bucket:
            if entry[0] <= vpn <= entry[1]:
                del bucket[entry]
                bucket[entry] = None
                return entry
        return None

    def insert(self, entry):
        start, end = entry[0], entry[1]
        if start >> self._shift != end >> self._shift:
            raise ValueError("entry crosses an aligned group")
        bucket = self._sets[(start >> self._shift) & self._set_mask]
        displaced = [
            resident for resident in bucket
            if resident[1] >= start and resident[0] <= end
        ]
        for resident in displaced:
            del bucket[resident]
        displaced.extend(self._install(bucket, entry))
        return displaced

    def _install(self, bucket, entry):
        evicted = []
        if len(bucket) >= self._ways:
            victim = self._choose_victim(bucket)
            del bucket[victim]
            evicted.append(victim)
        bucket[entry] = None
        return evicted

    def _choose_victim(self, bucket):
        if not self.config.coalescing_aware_replacement:
            return next(iter(bucket))
        fewest = min(entry[1] - entry[0] for entry in bucket)
        return next(e for e in bucket if e[1] - e[0] == fewest)

    def invalidate(self, vpn, graceful=None):
        if graceful is None:
            graceful = self.config.graceful_invalidation
        bucket = self._sets[(vpn >> self._shift) & self._set_mask]
        evicted = []
        for entry in bucket:
            if entry[0] <= vpn <= entry[1]:
                break
        else:
            return evicted
        del bucket[entry]
        if graceful:
            start, end, ppn, attr = entry
            if vpn > start:
                evicted += self._install(bucket, (start, vpn - 1, ppn, attr))
            if vpn < end:
                evicted += self._install(
                    bucket, (vpn + 1, end, ppn + (vpn + 1 - start), attr)
                )
        return evicted

    def state(self):
        return [list(bucket) for bucket in self._sets]


class ReferenceFATLB:
    """The fully-associative TLB's probe, insert and invalidate, as they
    were before: every insert tried a merge against every resident, over
    a copy of the entries."""

    def __init__(self, config):
        self.config = config
        self._entries = {}
        self._order = []
        self._next_id = 0

    def probe(self, vpn):
        for entry_id, entry in self._entries.items():
            if entry[0] <= vpn < entry[1]:
                if self._order[-1] != entry_id:
                    self._order.remove(entry_id)
                    self._order.append(entry_id)
                return entry
        return None

    def insert(self, entry):
        entries = self._entries
        if entry[4]:
            base, end = entry[0], entry[1]
            for resident in entries.values():
                if resident[4] and resident[1] > base and end > resident[0]:
                    raise ValueError("overlapping superpage entry")
        elif self.config.merge_on_insert:
            merged = True
            while merged:
                merged = False
                for entry_id, resident in list(entries.items()):
                    fused = merge_ranges(entry, resident, self.config.max_span)
                    if fused is not None:
                        entry = fused
                        del entries[entry_id]
                        self._order.remove(entry_id)
                        merged = True
                        break
        return self._install(entry)

    def _install(self, entry):
        victim = None
        if len(self._order) >= self.config.entries:
            victim = self._entries.pop(self._order.pop(0))
        self._entries[self._next_id] = entry
        self._order.append(self._next_id)
        self._next_id += 1
        return victim

    def invalidate(self, vpn):
        entries = self._entries
        evicted = []
        for entry_id in list(entries):
            entry = entries.get(entry_id)
            if entry is None or not entry[0] <= vpn < entry[1]:
                continue
            del entries[entry_id]
            self._order.remove(entry_id)
            if self.config.graceful_invalidation and not entry[4]:
                base, end, ppn, attr = entry[:4]
                survivors = []
                if vpn > base:
                    survivors.append((base, vpn, ppn, attr, False))
                if vpn + 1 < end:
                    survivors.append(
                        (vpn + 1, end, ppn + (vpn + 1 - base), attr, False)
                    )
                for survivor in survivors:
                    victim = self._install(survivor)
                    if victim is not None:
                        evicted.append(victim)
        return evicted


class ReferenceMMUCache:
    """The MMU cache as a walk used it before: a lookup of the deepest
    cached level (made MRU), then one fill per non-leaf level read, each
    keyed by a ``(level, prefix)`` tuple."""

    def __init__(self, entries):
        self.capacity = entries
        self._lines = {}

    def walk(self, vpn, levels):
        lines = self._lines
        best = None
        for level, shift in CACHEABLE_LEVELS:
            key = (level, vpn >> shift)
            if key in lines:
                best = key
        start = 0
        if best is not None:
            del lines[best]
            lines[best] = None
            start = min(best[0] + 1, levels - 1)
        for level, shift in CACHEABLE_LEVELS:
            if level < levels - 1:
                key = (level, vpn >> shift)
                if key in lines:
                    del lines[key]
                elif len(lines) >= self.capacity:
                    del lines[next(iter(lines))]
                lines[key] = None
        return start

    def invalidate_vpn(self, vpn):
        for level, shift in CACHEABLE_LEVELS:
            self._lines.pop((level, vpn >> shift), None)


def reference_back_invalidate(mmu, victim, kept_start=0, kept_end=-1):
    """The MMU's back-invalidation as it was: one L1 invalidation per
    dropped VPN, in VPN order, graceful or not."""
    start, end = victim[0], victim[1]
    for vpn in range(start, min(end, kept_start - 1) + 1):
        mmu.l1.invalidate(vpn)
    for vpn in range(max(start, kept_end + 1), end + 1):
        mmu.l1.invalidate(vpn)


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------


@st.composite
def sa_configs(draw):
    ways = draw(st.integers(1, 8))
    sets = draw(st.sampled_from((1, 2, 4, 8)))
    return SetAssociativeTLBConfig(
        ways * sets, ways, draw(st.integers(0, 3)),
        graceful_invalidation=draw(st.booleans()),
        coalescing_aware_replacement=draw(st.booleans()),
    )


def sa_entries(shift, groups=12):
    """Runs inside one of ``groups`` aligned groups of ``2**shift`` VPNs."""
    group = 1 << shift
    return st.builds(
        lambda base, first, length, ppn, attr: (
            base * group + first,
            base * group + min(first + length, group - 1),
            ppn, attr,
        ),
        st.integers(0, groups - 1), st.integers(0, group - 1),
        st.integers(0, group - 1), st.integers(0, 64), st.sampled_from(ATTRS),
    )


def sa_ops(shift):
    top = 12 << shift
    insert = st.tuples(st.just("insert"), sa_entries(shift))
    return st.lists(st.one_of(
        st.tuples(st.just("probe"), st.integers(0, top)),
        insert, insert, insert,
        st.tuples(st.just("inv"), st.integers(0, top)),
        st.tuples(
            st.just("drop"),
            st.tuples(st.integers(0, top), st.integers(0, 9)).map(
                lambda pair: (pair[0], pair[0] + pair[1])
            ),
        ),
    ), min_size=10, max_size=60)


@st.composite
def fa_entries(draw):
    """Mostly ranges on a grid of 4 VPNs whose frames track their VPNs
    on one of two offsets, so neighbours on either side often fuse;
    one in ten a superpage."""
    attr = draw(st.sampled_from(ATTRS))
    if draw(st.integers(0, 9)) == 0:
        base = 512 * draw(st.integers(0, 2))
        return (base, base + 512, draw(st.integers(0, 2048)), attr, True)
    base = 4 * draw(st.integers(0, 8)) + draw(st.sampled_from((0, 0, 0, 1, 3)))
    length = draw(st.sampled_from((4, 4, 8, 1, 3)))
    offset = draw(st.sampled_from((0, 1000)))
    return (base, base + length, base + offset, attr, False)


fa_vpns = st.one_of(st.integers(0, 48), st.integers(0, 1100))
fa_insert = st.tuples(st.just("insert"), fa_entries())
fa_ops = st.lists(st.one_of(
    st.tuples(st.just("probe"), fa_vpns),
    fa_insert, fa_insert,
    st.tuples(st.just("inv"), fa_vpns),
), min_size=10, max_size=60)

#: VPNs from a few PML4E/PDPTE/PDE regions, so walks hit at every level.
region_vpns = st.builds(
    lambda a, b, c, d: a << 27 | b << 18 | c << 9 | d,
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
    st.integers(0, 511),
)

#: Walks (a third of them superpage walks) twice as often as shootdowns.
mmu_cache_walk = st.tuples(st.sampled_from((3, 4, 4)), region_vpns)
mmu_cache_ops = st.lists(st.one_of(
    mmu_cache_walk, mmu_cache_walk,
    st.tuples(st.just("inv"), region_vpns),
), min_size=10, max_size=60)


# ---------------------------------------------------------------------------
# The set-associative TLB.
# ---------------------------------------------------------------------------


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_sa_tlb_matches_reference(data):
    config = data.draw(sa_configs())
    tlb, ref = SetAssociativeTLB(config), ReferenceSATLB(config)
    for op, arg in data.draw(sa_ops(config.index_shift)):
        if op == "probe":
            assert tlb.probe(arg) == ref.probe(arg)
        elif op == "insert":
            assert tlb.insert(arg) == ref.insert(arg)
        elif op == "inv":
            assert tlb.invalidate(arg) == ref.invalidate(arg)
        else:
            start, end = arg
            tlb.drop_range(start, end)
            for vpn in range(start, end + 1):
                ref.invalidate(vpn, graceful=False)
        assert [list(bucket) for bucket in tlb._sets] == ref.state()


def test_sa_insert_rejects_a_run_crossing_its_group():
    tlb = SetAssociativeTLB(SetAssociativeTLBConfig(16, 4, 2))
    with pytest.raises(ValueError):
        tlb.insert((3, 4, 0, 1))


# ---------------------------------------------------------------------------
# The fully-associative TLB.
# ---------------------------------------------------------------------------


@given(
    entries=st.integers(1, 8),
    merge=st.booleans(),
    max_span=st.sampled_from((8, 12, 32)),
    graceful=st.booleans(),
    ops=fa_ops,
)
@settings(max_examples=150, deadline=None)
def test_fa_tlb_matches_reference(entries, merge, max_span, graceful, ops):
    config = FullyAssociativeTLBConfig(
        entries=entries, allow_coalesced=True, merge_on_insert=merge,
        max_span=max_span, graceful_invalidation=graceful,
    )
    tlb, ref = FullyAssociativeTLB(config), ReferenceFATLB(config)
    for op, arg in ops:
        if op == "insert":
            try:
                expected = ref.insert(arg)
            except ValueError:
                with pytest.raises(ValueError):
                    tlb.insert(arg)
            else:
                assert tlb.insert(arg) == expected
        elif op == "probe":
            assert tlb.probe(arg) == ref.probe(arg)
        else:
            assert tlb.invalidate(arg) == ref.invalidate(arg)
        assert tlb.entries() == list(ref._entries.values())
        assert [tlb._entries[i] for i in tlb._order] == [
            ref._entries[i] for i in ref._order
        ]


def test_fa_merge_bridges_two_residents():
    """An entry filling the gap between two residents fuses with both;
    the lower resident's frame and attributes survive."""
    config = FullyAssociativeTLBConfig(
        entries=4, allow_coalesced=True, merge_on_insert=True
    )
    tlb = FullyAssociativeTLB(config)
    tlb.insert((16, 20, 116, 9, False))
    tlb.insert((0, 8, 100, 1, False))
    tlb.insert((8, 16, 108, 1, False))
    assert tlb.entries() == [(0, 20, 100, 1, False)]
    # A key that differs in more than ACCESSED/DIRTY does not fuse.
    tlb.insert((20, 24, 120, 3, False))
    assert len(tlb.entries()) == 2
    assert (3 & COALESCING_KEY_MASK) != (1 & COALESCING_KEY_MASK)


# ---------------------------------------------------------------------------
# The MMU page-walk cache.
# ---------------------------------------------------------------------------


@given(entries=st.integers(1, 7), ops=mmu_cache_ops)
@settings(max_examples=150, deadline=None)
def test_mmu_cache_walk_matches_lookup_then_fill(entries, ops):
    cache = MMUCache(MMUCacheConfig(entries=entries))
    ref = ReferenceMMUCache(entries)
    for levels, vpn in ops:
        if levels == "inv":
            cache.invalidate_vpn(vpn)
            ref.invalidate_vpn(vpn)
        else:
            assert cache.walk(vpn, levels) == ref.walk(vpn, levels)
        assert cache.entries() == list(ref._lines)


def test_mmu_cache_hit_is_most_recent_before_the_fills_evict():
    """A superpage walk caches no PDE, yet a cached PDE it hits becomes
    most recently used before the walk's fills run, so the fill that
    evicts spares it: here that PDE is the least recently used line."""
    cache = MMUCache(MMUCacheConfig(entries=4))
    cache.walk(0, 4)
    cache.walk(1 << 18, 4)
    assert cache.entries() == [(2, 0), (0, 0), (1, 1), (2, 512)]
    assert cache.walk(0, 3) == 2
    assert cache.entries() == [(2, 512), (2, 0), (0, 0), (1, 0)]


# ---------------------------------------------------------------------------
# The MMU's L2 back-invalidation.
# ---------------------------------------------------------------------------


class ReferenceMMU(MMU):
    def _back_invalidate(self, victim, kept_start=0, kept_end=-1):
        reference_back_invalidate(self, victim, kept_start, kept_end)


@st.composite
def back_invalidation_cases(draw):
    """An MMU geometry (L1 group no larger than L2's) and its ops."""
    l2_shift = draw(st.integers(0, 3))
    l1_shift = draw(st.integers(0, l2_shift))
    graceful = draw(st.booleans())
    aware = draw(st.booleans())

    def sa(shift, sets, ways):
        return SetAssociativeTLBConfig(
            sets * ways, ways, shift, graceful_invalidation=graceful,
            coalescing_aware_replacement=aware,
        )

    config = MMUConfig(
        design=CoLTDesign.COLT_SA,
        l1=sa(l1_shift, draw(st.sampled_from((1, 2, 8))),
              draw(st.integers(1, 4))),
        l2=sa(l2_shift, draw(st.sampled_from((1, 2, 4))),
              draw(st.integers(1, 8))),
        superpage=FullyAssociativeTLBConfig(),
    )
    # An SA fill (the run into L2, its slice around the demanded VPN
    # into L1) or a shootdown.
    fill = st.tuples(sa_entries(l2_shift, groups=4), st.integers(0, 7)).map(
        lambda pair: ("fill", pair[0], min(pair[0][0] + pair[1], pair[0][1]))
    )
    shootdown = st.tuples(
        st.just("inv"), st.integers(0, 4 << l2_shift), st.just(None)
    )
    ops = draw(st.lists(
        st.one_of(fill, fill, fill, shootdown), min_size=10, max_size=60
    ))
    return config, ops


class ReferenceMMU(MMU):
    def _back_invalidate(self, victim, kept_start=0, kept_end=-1):
        reference_back_invalidate(self, victim, kept_start, kept_end)


@given(case=back_invalidation_cases())
@settings(max_examples=150, deadline=None)
def test_l2_back_invalidation_matches_per_vpn_invalidation(case):
    config, ops = case
    walker = SimpleNamespace(mmu_cache=None)
    mmu, ref = MMU(config, walker), ReferenceMMU(config, walker)
    l1_group = config.l1.group_size
    for op, arg, demand in ops:
        for subject in (mmu, ref):
            if op == "inv":
                subject.invalidate(arg)
            else:
                subject._insert_l2(arg)
                subject.l1.insert(slice_to_group(arg, demand, l1_group))
        for tlb, expected in ((mmu.l1, ref.l1), (mmu.l2, ref.l2)):
            assert [list(b) for b in tlb._sets] == [
                list(b) for b in expected._sets
            ]


def test_l2_overlap_back_invalidates_only_the_dropped_vpns():
    """An L2 fill whose run is a strict part of a resident's displaces
    it; the L1 copies of the resident's VPNs outside the new run go,
    those inside stay."""
    config = MMUConfig(
        design=CoLTDesign.COLT_SA,
        l1=SetAssociativeTLBConfig(8, 2, 0),
        l2=SetAssociativeTLBConfig(8, 2, 2),
        superpage=FullyAssociativeTLBConfig(),
    )
    mmu = MMU(config, SimpleNamespace(mmu_cache=None))
    mmu._insert_l2((4, 7, 104, 1))
    for vpn in (4, 6):
        mmu.l1.insert((vpn, vpn, 100 + vpn, 1))
    mmu._insert_l2((4, 5, 104, 1))
    assert mmu.l2.entries() == [(4, 5, 104, 1)]
    assert mmu.l1.entries() == [(4, 4, 104, 1)]
