"""Microbenchmarks of the simulator's hot paths.

These quantify simulation throughput, not paper results: TLB probe and
fill rates, buddy allocator churn, page-walk cost, and the end-to-end
per-access rate of the full MMU. Useful for spotting performance
regressions in the simulator itself.
"""

import numpy as np

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.mmu_cache import MMUCache
from repro.common.types import Translation
from repro.core.mmu import MMU, CoLTDesign, make_mmu_config
from repro.osmem.buddy import BuddyAllocator
from repro.osmem.page_table import PageTable
from repro.tlb.config import SetAssociativeTLBConfig
from repro.tlb.set_associative import SetAssociativeTLB
from repro.walker.page_walker import PageWalker


def test_sa_tlb_probe_throughput(benchmark):
    tlb = SetAssociativeTLB(SetAssociativeTLBConfig(128, 4, 2))
    for vpn in range(0, 512, 4):
        tlb.insert_translation(Translation(vpn, vpn))
    vpns = np.random.default_rng(1).integers(0, 512, size=4096)

    def probe_all():
        for vpn in vpns:
            tlb.probe(int(vpn))

    benchmark(probe_all)


def test_buddy_alloc_free_cycle(benchmark):
    def cycle():
        buddy = BuddyAllocator(4096)
        live = []
        for _ in range(64):
            live.extend(buddy.alloc_run_best_effort(24))
        for start, length in live:
            buddy.free_run(start, length)

    benchmark(cycle)


def test_page_walk_cost(benchmark):
    table = PageTable()
    for vpn in range(4096):
        table.map_page(vpn, vpn + 10_000)
    walker = PageWalker(table, CacheHierarchy(), MMUCache())
    vpns = np.random.default_rng(2).integers(0, 4096, size=1024)

    def walk_all():
        for vpn in vpns:
            walker.resolve(int(vpn))

    benchmark(walk_all)


def test_mmu_access_rate_colt_all(benchmark):
    table = PageTable()
    for vpn in range(4096):
        table.map_page(vpn, vpn + 10_000)
    walker = PageWalker(table, CacheHierarchy(), MMUCache())
    mmu = MMU(make_mmu_config(CoLTDesign.COLT_ALL), walker)
    vpns = np.random.default_rng(3).integers(0, 4096, size=8192)

    def access_all():
        for vpn in vpns:
            mmu.access(int(vpn))

    benchmark(access_all)
