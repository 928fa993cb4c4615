"""Property-based tests (hypothesis) on the core data structures.

These check the invariants everything else relies on:

* the buddy allocator never corrupts its free lists, never double-books
  a frame, and conserves memory across arbitrary alloc/free sequences;
* coalesced TLB entries reproduce exactly the translations they were
  built from (the PPN generation logic is sound);
* the set-associative TLB never returns a wrong PPN, whatever sequence
  of fills, lookups and invalidations it sees;
* the contiguity scanner's runs partition the mapped pages;
* weighted CDFs are monotone and end at 1.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.common.cdfs import WeightedCDF, average_contiguity, contiguity_cdf
from repro.common.errors import OutOfMemoryError
from repro.common.types import PageAttributes, Translation
from repro.contiguity.scanner import scan_translations
from repro.core.coalescing import contiguous_run_around
from repro.osmem.buddy import BuddyAllocator
from repro.tlb.config import FullyAssociativeTLBConfig, SetAssociativeTLBConfig
from repro.tlb.entries import CoalescedEntry, RangeEntry, ppn_for
from repro.tlb.fully_associative import FullyAssociativeTLB
from repro.tlb.set_associative import SetAssociativeTLB

# ---------------------------------------------------------------------------
# Buddy allocator.
# ---------------------------------------------------------------------------

buddy_ops = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(0, 5)),
        st.tuples(st.just("alloc_exact"), st.integers(1, 48)),
        st.tuples(st.just("best_effort"), st.integers(1, 64)),
        st.tuples(st.just("free"), st.integers(0, 1_000_000)),
    ),
    max_size=60,
)


@given(ops=buddy_ops)
@settings(max_examples=120, deadline=None)
def test_buddy_invariants_hold_under_arbitrary_ops(ops):
    buddy = BuddyAllocator(256)
    live = []  # (start, length) runs we own
    for op, arg in ops:
        if op == "alloc":
            try:
                start = buddy.alloc_block(arg)
                live.append((start, 1 << arg))
            except OutOfMemoryError:
                pass
        elif op == "alloc_exact":
            try:
                start, pages = buddy.alloc_exact(arg)
                live.append((start, pages))
            except OutOfMemoryError:
                pass
        elif op == "best_effort":
            try:
                live.extend(buddy.alloc_run_best_effort(arg))
            except OutOfMemoryError:
                pass
        elif op == "free" and live:
            start, length = live.pop(arg % len(live))
            buddy.free_run(start, length)
        buddy.check_invariants()
        # Conservation: free + live == total.
        owned = sum(length for _, length in live)
        assert buddy.free_pages + owned == 256
        # No two live runs overlap.
        frames = set()
        for start, length in live:
            run = set(range(start, start + length))
            assert not (run & frames)
            frames |= run


@given(ops=buddy_ops)
@settings(max_examples=60, deadline=None)
def test_buddy_free_everything_restores_full_memory(ops):
    buddy = BuddyAllocator(256)
    live = []
    for op, arg in ops:
        try:
            if op == "alloc":
                live.append((buddy.alloc_block(arg), 1 << arg))
            elif op == "alloc_exact":
                live.append(buddy.alloc_exact(arg))
            elif op == "best_effort":
                live.extend(buddy.alloc_run_best_effort(arg))
            elif op == "free" and live:
                start, length = live.pop(arg % len(live))
                buddy.free_run(start, length)
        except OutOfMemoryError:
            pass
    for start, length in live:
        buddy.free_run(start, length)
    assert buddy.free_pages == 256
    # Full merge back to the single seed block (256 = one order-8 block).
    assert buddy.free_blocks_at(8) == 1
    buddy.check_invariants()


# ---------------------------------------------------------------------------
# Coalesced entries.
# ---------------------------------------------------------------------------

@st.composite
def contiguous_runs(draw, max_group=8):
    group_size = draw(st.sampled_from([1, 2, 4, 8]))
    group_base = draw(st.integers(0, 1000)) * group_size
    start_slot = draw(st.integers(0, group_size - 1))
    length = draw(st.integers(1, group_size - start_slot))
    base_pfn = draw(st.integers(0, 1 << 30))
    run = [
        Translation(group_base + start_slot + i, base_pfn + i)
        for i in range(length)
    ]
    return run, group_size


@given(data=contiguous_runs())
@settings(max_examples=200)
def test_coalesced_entry_reproduces_its_run(data):
    run, group_size = data
    entry = CoalescedEntry.from_run(run, group_size)
    assert entry.end - entry.start + 1 == len(run)
    tlb = SetAssociativeTLB(
        SetAssociativeTLBConfig(8, 1, group_size.bit_length() - 1)
    )
    tlb.insert(entry)
    for translation in run:
        assert tlb.lookup(translation.vpn).pfn == translation.pfn
    # And covers nothing else in the group.
    covered = {t.vpn for t in run}
    group_base = tlb.group_base_for(entry.start)
    for slot in range(group_size):
        vpn = group_base + slot
        if vpn not in covered:
            assert tlb.entry_for(vpn) is None


@given(
    base_vpn=st.integers(0, 1 << 30),
    base_pfn=st.integers(0, 1 << 30),
    span=st.integers(1, 300),
    probe=st.integers(-10, 320),
)
@settings(max_examples=200)
def test_range_entry_covers_exactly_its_span(base_vpn, base_pfn, span, probe):
    entry = RangeEntry(
        base_vpn, base_vpn + span, base_pfn,
        int(PageAttributes.default_user()),
    )
    tlb = FullyAssociativeTLB(FullyAssociativeTLBConfig(entries=1))
    tlb.insert(entry)
    vpn = base_vpn + probe
    if vpn < 0:
        return
    if 0 <= probe < span:
        assert tlb.covering_entry(vpn) == entry
        assert ppn_for(entry, vpn) == base_pfn + probe
    else:
        assert tlb.covering_entry(vpn) is None


# ---------------------------------------------------------------------------
# Set-associative TLB: never a wrong answer.
# ---------------------------------------------------------------------------

@given(
    vpns=st.lists(st.integers(0, 255), min_size=1, max_size=200),
    shift=st.sampled_from([0, 1, 2, 3]),
)
@settings(max_examples=80, deadline=None)
def test_sa_tlb_never_returns_wrong_ppn(vpns, shift):
    """Fill from a fixed 'page table' (vpn -> vpn + 7777) in arbitrary
    order with interleaved lookups; every hit must be correct."""
    tlb = SetAssociativeTLB(SetAssociativeTLBConfig(16, 4, shift))
    for vpn in vpns:
        hit = tlb.lookup(vpn)
        if hit is not None:
            assert hit.pfn == vpn + 7777
        else:
            tlb.insert_translation(Translation(vpn, vpn + 7777))
    # Every resident translation is also correct.
    for entry in tlb.entries():
        for vpn in range(entry[0], entry[1] + 1):
            assert ppn_for(entry, vpn) == vpn + 7777


@given(
    vpns=st.lists(st.integers(0, 127), min_size=1, max_size=120),
    invalidate=st.lists(st.integers(0, 127), max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_sa_tlb_invalidation_removes_coverage(vpns, invalidate):
    tlb = SetAssociativeTLB(SetAssociativeTLBConfig(16, 4, 2))
    for vpn in vpns:
        if tlb.probe(vpn) is None:
            tlb.insert_translation(Translation(vpn, vpn))
    for vpn in invalidate:
        tlb.invalidate(vpn)
        assert tlb.entry_for(vpn) is None


# ---------------------------------------------------------------------------
# Contiguity scanner.
# ---------------------------------------------------------------------------

@st.composite
def sparse_mappings(draw):
    """A VPN-sorted list of translations with random contiguity breaks."""
    count = draw(st.integers(1, 120))
    vpn, pfn = 0, draw(st.integers(0, 10_000))
    translations = []
    for _ in range(count):
        vpn += draw(st.sampled_from([1, 1, 1, 2, 5]))  # occasional holes
        if draw(st.booleans()):
            pfn += 1  # stays contiguous only if vpn also advanced by 1
        else:
            pfn = draw(st.integers(0, 100_000))
        translations.append(Translation(vpn, pfn))
    return translations


@given(mappings=sparse_mappings())
@settings(max_examples=150)
def test_scanner_runs_partition_pages(mappings):
    runs = scan_translations(mappings)
    # Total pages in runs equals number of translations.
    assert sum(r.length for r in runs) == len(mappings)
    # Runs are disjoint and each run is genuinely contiguous in both
    # spaces per the original mappings.
    by_vpn = {t.vpn: t for t in mappings}
    seen = set()
    for run in runs:
        for offset in range(run.length):
            vpn = run.start_vpn + offset
            assert vpn not in seen
            seen.add(vpn)
            assert by_vpn[vpn].pfn == run.start_pfn + offset


@given(mappings=sparse_mappings())
@settings(max_examples=100)
def test_scanner_runs_are_maximal(mappings):
    runs = scan_translations(mappings)
    by_vpn = {t.vpn: t for t in mappings}
    for run in runs:
        prev = by_vpn.get(run.start_vpn - 1)
        if prev is not None:
            assert not prev.is_contiguous_with(by_vpn[run.start_vpn])
        nxt = by_vpn.get(run.start_vpn + run.length)
        if nxt is not None:
            last = by_vpn[run.start_vpn + run.length - 1]
            assert not last.is_contiguous_with(nxt)


# ---------------------------------------------------------------------------
# Coalescing logic.
# ---------------------------------------------------------------------------

@given(mappings=sparse_mappings(), index=st.integers(0, 119))
@settings(max_examples=100)
def test_coalescing_run_is_contiguous_and_contains_demand(mappings, index):
    demand = mappings[index % len(mappings)]
    base = demand.vpn & ~7
    line = [t for t in mappings if base <= t.vpn < base + 8]
    run = contiguous_run_around(line, demand.vpn)
    assert any(t.vpn == demand.vpn for t in run)
    for a, b in zip(run, run[1:]):
        assert a.is_contiguous_with(b)


# ---------------------------------------------------------------------------
# CDFs.
# ---------------------------------------------------------------------------

@given(
    lengths=st.lists(st.integers(1, 1024), min_size=1, max_size=100)
)
@settings(max_examples=150)
def test_contiguity_cdf_properties(lengths):
    cdf = contiguity_cdf(lengths)
    values = [cdf.at(x) for x in (1, 2, 4, 16, 64, 256, 1024)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert cdf.at(1024) == pytest.approx(1.0)
    avg = average_contiguity(lengths)
    assert min(lengths) <= avg <= max(lengths) + 1e-9
