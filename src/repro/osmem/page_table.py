"""x86-64 four-level radix page table.

The page table is the interface between the OS substrate and the TLB
simulator: the fault path installs translations here, the page walker
reads them back (level by level, so MMU caches and the data caches see
realistic access streams), and the contiguity scanner measures how
contiguous the installed mappings are.

Table nodes occupy real simulated frames. That matters because the walker
fetches PTEs by *physical address* in 64-byte cache lines: the eight PTEs
sharing a line are the only translations CoLT may coalesce without extra
memory references (paper Section 4.1.4), and which PTEs share a line is
determined by their placement inside the table node.

A leaf is a plain ``(pfn, attributes)`` tuple; the level of the node
holding it says what it maps (a PD leaf is a 2MB PDE, a PT leaf a 4KB
PTE). Mutators replace leaves, never edit them.

The fault and munmap paths install and remove *runs* of pages, and 512
consecutive VPNs share one PT node, so the 4KB mutators work per run:
:meth:`PageTable.map_run` and :meth:`PageTable.unmap_run` descend once
per PT node a run touches (and once more to create a missing one), and
``map_page``/``unmap_page`` are their one-page case. Table nodes are
created and pruned in the order the page-by-page loop would, so table
frames leave and return to their source in the same sequence.

Every leaf write goes through the mutators of :class:`PageTable`, which
report it to write listeners (:meth:`PageTable.add_write_listener`): one
``(start_vpn, count)`` call per written run per node. The capture
recorder uses that to memoize walk outcomes per VPN.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.common.constants import (
    BITS_PER_LEVEL,
    PAGE_SIZE,
    PTE_SIZE,
    PTES_PER_CACHE_LINE,
    PTES_PER_TABLE,
    SUPERPAGE_PAGES,
    VPN_BITS,
)
from repro.common.errors import TranslationError
from repro.common.types import PageAttributes, Translation

#: Radix levels, root first: PML4 -> PDPT -> PD -> PT.
LEVEL_NAMES = ("pml4", "pdpt", "pd", "pt")

#: Level index at which 2MB superpage leaves live (the PD).
SUPERPAGE_LEVEL = 2

#: Leaf level for 4KB pages (the PT).
LEAF_LEVEL = 3


def level_index(vpn: int, level: int) -> int:
    """Index into the ``level``-th table node for virtual page ``vpn``."""
    shift = (LEAF_LEVEL - level) * BITS_PER_LEVEL
    return (vpn >> shift) & (PTES_PER_TABLE - 1)


#: ``level_index`` spelled out for the hot paths (lookup, map, unmap,
#: descent), which run it at every level of every walk:
#: ``(vpn >> _SHIFTS[level]) & _INDEX_MASK``.
_SHIFTS = tuple(
    (LEAF_LEVEL - level) * BITS_PER_LEVEL for level in range(LEAF_LEVEL + 1)
)
_INDEX_MASK = PTES_PER_TABLE - 1
_VPN_LIMIT = 1 << VPN_BITS


#: A present leaf: ``(pfn, attributes)``. Its node's level says whether
#: it is a 4KB PTE (PT) or a 2MB PDE (PD).
Leaf = Tuple[int, PageAttributes]

_DEFAULT_USER = PageAttributes.default_user()


class _Node:
    """One table node: a 4KB frame holding 512 eight-byte entries."""

    __slots__ = ("frame", "children", "leaves")

    def __init__(self, frame: int) -> None:
        self.frame = frame
        self.children: Dict[int, "_Node"] = {}
        self.leaves: Dict[int, Leaf] = {}

    @property
    def is_empty(self) -> bool:
        return not self.children and not self.leaves

    def entry_physical_address(self, index: int) -> int:
        return self.frame * PAGE_SIZE + index * PTE_SIZE


class SequentialFrameSource:
    """Fallback frame source for page-table nodes.

    Hands out frame numbers from a private high range so standalone page
    tables (unit tests, TLB-only simulations) get realistic, distinct
    physical placement for their nodes without a full kernel.
    """

    def __init__(self, base_frame: int = 1 << 30) -> None:
        self._next = base_frame

    def allocate(self) -> int:
        frame = self._next
        self._next += 1
        return frame

    def release(self, frame: int) -> None:  # pragma: no cover - trivial
        del frame  # frames are never reused; fine for a test source


class PageTable:
    """A per-process x86-64 page table.

    Args:
        allocate_frame: callable returning a fresh physical frame number
            for a new table node (the kernel passes a pinned buddy
            allocation; standalone users get a :class:`SequentialFrameSource`).
        release_frame: callable invoked when a table node is torn down.
    """

    def __init__(
        self,
        allocate_frame: Optional[Callable[[], int]] = None,
        release_frame: Optional[Callable[[int], None]] = None,
    ) -> None:
        if allocate_frame is None:
            source = SequentialFrameSource()
            allocate_frame = source.allocate
            release_frame = source.release
        self._allocate_frame = allocate_frame
        self._release_frame = release_frame or (lambda frame: None)
        self._root = _Node(self._allocate_frame())
        self._mapped_pages = 0
        self._mapped_superpages = 0
        self._write_listeners: List[Callable[[int, int], None]] = []

    def add_write_listener(self, listener: Callable[[int, int], None]) -> None:
        """Subscribe to leaf writes.

        ``listener(start_vpn, count)`` fires after every mutator that
        writes leaves, once per written run per node: ``(vpn, 1)`` for
        one 4KB PTE, ``(start, n)`` for ``n`` consecutive PTEs of one PT
        node, ``(base, 512)`` for a 2MB PDE. ``split_superpage`` fires
        through the unmap and the map it is made of, and so does
        ``move_page`` for a page alone in its PT node. Table nodes are
        only freed once empty, i.e. after an unmap that already fired,
        so a listener sees every change to what :meth:`lookup`,
        :meth:`walk_path_addresses` and :meth:`pte_cache_line` return.
        """
        self._write_listeners.append(listener)

    def _notify_write(self, start_vpn: int, count: int) -> None:
        for listener in self._write_listeners:
            listener(start_vpn, count)

    # ------------------------------------------------------------------
    # Mapping installation / removal.
    # ------------------------------------------------------------------

    @property
    def mapped_pages(self) -> int:
        """Number of 4KB leaf mappings (superpages count as 512)."""
        return self._mapped_pages + self._mapped_superpages * SUPERPAGE_PAGES

    def map_page(
        self,
        vpn: int,
        pfn: int,
        attributes: PageAttributes = _DEFAULT_USER,
    ) -> None:
        """Install a 4KB translation ``vpn -> pfn``."""
        self.map_run(vpn, pfn, 1, attributes)

    def map_run(
        self,
        vpn: int,
        pfn: int,
        count: int,
        attributes: PageAttributes = _DEFAULT_USER,
    ) -> None:
        """Install ``count`` 4KB translations ``vpn + i -> pfn + i``.

        A run with any page already mapped (or inside a superpage) is
        rejected before anything is written or reported.
        """
        spans = self._pt_spans(vpn, count)
        for base, lo, hi, node in spans:
            if node is not None and not node.leaves.keys().isdisjoint(
                range(lo, hi)
            ):
                taken = min(i for i in range(lo, hi) if i in node.leaves)
                raise TranslationError(f"vpn {base + taken} already mapped")
        for base, lo, hi, node in spans:
            if node is None:
                node = self._descend(base, LEAF_LEVEL, create=True)
            frame = pfn + base + lo - vpn
            node.leaves.update(zip(
                range(lo, hi),
                zip(range(frame, frame + hi - lo), repeat(attributes)),
            ))
            self._mapped_pages += hi - lo
            if self._write_listeners:
                self._notify_write(base + lo, hi - lo)

    def map_superpage(
        self,
        vpn: int,
        pfn: int,
        attributes: PageAttributes = _DEFAULT_USER,
    ) -> None:
        """Install a 2MB translation covering ``[vpn, vpn + 512)``.

        Both ``vpn`` and ``pfn`` must be 512-page aligned (the paper's
        Section 2.2 alignment requirement for superpages).
        """
        self._check_vpn(vpn)
        if vpn % SUPERPAGE_PAGES != 0 or pfn % SUPERPAGE_PAGES != 0:
            raise TranslationError(
                f"superpage requires 512-page alignment (vpn={vpn}, pfn={pfn})"
            )
        node = self._descend(vpn, SUPERPAGE_LEVEL, create=True)
        index = level_index(vpn, SUPERPAGE_LEVEL)
        if index in node.leaves or index in node.children:
            raise TranslationError(
                f"PD slot for vpn {vpn} already occupied"
            )
        node.leaves[index] = (pfn, attributes)
        self._mapped_superpages += 1
        if self._write_listeners:
            self._notify_write(vpn, SUPERPAGE_PAGES)

    def unmap_page(self, vpn: int) -> Translation:
        """Remove a 4KB mapping; returns the removed translation."""
        translation = self.lookup(vpn)
        if not self.unmap_run(vpn, 1):
            raise TranslationError(f"vpn {vpn} has no 4KB mapping")
        return translation

    def unmap_run(self, vpn: int, count: int) -> List[Tuple[int, int]]:
        """Remove the 4KB mappings in ``[vpn, vpn + count)``.

        Unmapped pages are skipped. Returns the removed ``(vpn, pfn)``
        pairs in VPN order. A run reaching into a superpage raises
        before anything is removed: split the superpage first.
        """
        removed: List[Tuple[int, int]] = []
        append = removed.append
        for base, lo, hi, node in self._pt_spans(vpn, count):
            if node is None:
                continue
            pop = node.leaves.pop
            mark = len(removed)
            for index in range(lo, hi):
                leaf = pop(index, None)
                if leaf is not None:
                    append((base + index, leaf[0]))
            if len(removed) == mark:
                continue
            self._mapped_pages -= len(removed) - mark
            if self._write_listeners:
                self._notify_runs(removed, mark)
            if node.is_empty:
                self._prune(base, self._path_nodes(base, LEAF_LEVEL))
        return removed

    def _notify_runs(self, removed: List[Tuple[int, int]], mark: int) -> None:
        """Report ``removed[mark:]`` as maximal runs of consecutive VPNs."""
        run_start = previous = removed[mark][0]
        for vpn, _ in removed[mark + 1:]:
            if vpn != previous + 1:
                self._notify_write(run_start, previous + 1 - run_start)
                run_start = vpn
            previous = vpn
        self._notify_write(run_start, previous + 1 - run_start)

    def unmap_superpage(self, vpn: int) -> Translation:
        """Remove a 2MB mapping; returns its base translation."""
        self._check_vpn(vpn)
        if vpn % SUPERPAGE_PAGES != 0:
            raise TranslationError(f"vpn {vpn} is not superpage aligned")
        path = self._path_nodes(vpn, SUPERPAGE_LEVEL)
        node = path[-1]
        index = level_index(vpn, SUPERPAGE_LEVEL)
        leaf = node.leaves.pop(index, None) if node else None
        if leaf is None:
            raise TranslationError(f"vpn {vpn} has no superpage mapping")
        self._mapped_superpages -= 1
        self._prune(vpn, path)
        if self._write_listeners:
            self._notify_write(vpn, SUPERPAGE_PAGES)
        return Translation(vpn, leaf[0], leaf[1], is_superpage=True)

    def split_superpage(self, vpn: int) -> None:
        """Break a 2MB mapping into 512 4KB PTEs with the same frames.

        This is the THS splitting daemon's operation (Section 3.2.3). The
        physical frames are untouched, so the 512-page physical contiguity
        survives as *residual* base-page contiguity -- one of the paper's
        key observations about why THS feeds CoLT even when superpages
        don't survive.
        """
        base = self.unmap_superpage(vpn)
        self.map_run(vpn, base.pfn, SUPERPAGE_PAGES, base.attributes)

    def move_page(self, vpn: int, source: int, target: int) -> bool:
        """Point ``vpn``'s 4KB PTE from frame ``source`` to ``target``.

        Compaction's PTE rewrite. Returns False, writing nothing, unless
        ``vpn`` maps a 4KB page at ``source``. The PTE keeps its
        attributes and is rewritten in place by the descent that found
        it, reported as ``(vpn, 1)``. A PT node holding only this page
        goes through ``unmap_run`` + ``map_page`` instead, which prune
        the node and create it again: its table frame goes back to its
        source and is taken again, as every migration used to do.
        """
        self._check_vpn(vpn)
        node = self._root
        for shift in _SHIFTS[:LEAF_LEVEL]:
            index = (vpn >> shift) & _INDEX_MASK
            if index in node.leaves:  # inside a 2MB PDE
                return False
            node = node.children.get(index)
            if node is None:
                return False
        leaves = node.leaves
        index = vpn & _INDEX_MASK
        leaf = leaves.get(index)
        if leaf is None or leaf[0] != source:
            return False
        if len(leaves) == 1:
            self.unmap_run(vpn, 1)
            self.map_page(vpn, target, leaf[1])
            return True
        leaves[index] = (target, leaf[1])
        if self._write_listeners:
            self._notify_write(vpn, 1)
        return True

    # ------------------------------------------------------------------
    # Lookup.
    # ------------------------------------------------------------------

    def lookup(self, vpn: int) -> Optional[Translation]:
        """Resolve ``vpn`` to a translation, or None if unmapped.

        For pages inside a superpage the returned translation names the
        exact 4KB page (``pfn`` offset into the superpage frame run) with
        ``is_superpage=True``.
        """
        self._check_vpn(vpn)
        node = self._root
        for shift in _SHIFTS[:LEAF_LEVEL]:
            index = (vpn >> shift) & _INDEX_MASK
            leaf = node.leaves.get(index)
            if leaf is not None:  # above the PT, only a 2MB PDE
                offset = vpn % SUPERPAGE_PAGES
                return Translation(
                    vpn, leaf[0] + offset, leaf[1], is_superpage=True
                )
            node = node.children.get(index)
            if node is None:
                return None
        leaf = node.leaves.get(vpn & _INDEX_MASK)
        if leaf is None:
            return None
        return Translation(vpn, leaf[0], leaf[1], False)

    def superpage_base(self, vpn: int) -> Optional[Translation]:
        """If ``vpn`` lies in a superpage, its base translation; else None."""
        base_vpn = vpn - (vpn % SUPERPAGE_PAGES)
        node = self._descend(base_vpn, SUPERPAGE_LEVEL, create=False)
        if node is None:
            return None
        leaf = node.leaves.get(level_index(base_vpn, SUPERPAGE_LEVEL))
        if leaf is None:
            return None
        return Translation(base_vpn, leaf[0], leaf[1], is_superpage=True)

    def set_attributes(self, vpn: int, attributes: PageAttributes) -> None:
        """Replace the attribute bits of an existing 4KB mapping."""
        node = self._descend(vpn, LEAF_LEVEL, create=False)
        index = vpn & _INDEX_MASK
        leaf = node.leaves.get(index) if node is not None else None
        if leaf is None:
            raise TranslationError(f"vpn {vpn} not mapped")
        node.leaves[index] = (leaf[0], attributes)
        if self._write_listeners:
            self._notify_write(vpn, 1)

    def mark_accessed(self, vpn: int, dirty: bool = False) -> None:
        """Set the ACCESSED (and optionally DIRTY) bit, as a walk would."""
        node = self._descend(vpn, LEAF_LEVEL, create=False)
        index = vpn & _INDEX_MASK
        leaf = node.leaves.get(index) if node is not None else None
        start_vpn, count = vpn, 1
        if leaf is None:
            # Superpages keep a single A/D pair on the PDE.
            start_vpn, count = vpn - vpn % SUPERPAGE_PAGES, SUPERPAGE_PAGES
            node = self._descend(start_vpn, SUPERPAGE_LEVEL, create=False)
            index = level_index(start_vpn, SUPERPAGE_LEVEL)
            leaf = node.leaves.get(index) if node is not None else None
            if leaf is None:
                raise TranslationError(f"vpn {vpn} not mapped")
        attributes = leaf[1] | PageAttributes.ACCESSED
        if dirty:
            attributes |= PageAttributes.DIRTY
        node.leaves[index] = (leaf[0], attributes)
        if self._write_listeners:
            self._notify_write(start_vpn, count)

    # ------------------------------------------------------------------
    # Walker support.
    # ------------------------------------------------------------------

    def walk_path_addresses(self, vpn: int) -> List[int]:
        """Physical addresses of each table entry read by a walk of ``vpn``.

        Returns one address per level actually visited (a superpage walk
        stops at the PD, so it returns three addresses; a full walk four).
        The walker issues these as cache accesses.
        """
        self._check_vpn(vpn)
        addresses: List[int] = []
        node = self._root
        for level in range(LEAF_LEVEL + 1):
            index = level_index(vpn, level)
            addresses.append(node.entry_physical_address(index))
            if index in node.leaves:
                return addresses
            child = node.children.get(index)
            if child is None:
                return addresses  # walk terminates at a non-present entry
            node = child
        return addresses

    def walk_view(
        self, vpn: int
    ) -> Optional[Tuple[Leaf, List[int], Optional[List[Optional[Leaf]]]]]:
        """What a walk of ``vpn`` reads, in one descent; None if unmapped.

        Returns ``(leaf, path, line)``: ``vpn``'s own ``(pfn,
        attributes)`` (the PFN offset into a superpage's frames), the
        entry addresses of :meth:`walk_path_addresses`, and the eight
        leaves of :meth:`pte_cache_line` (None for unmapped slots; the
        whole line is None for a superpage). The capture recorder reads
        walks through this; the live walker keeps the three separate
        reads, so replay and live walk still come from two read paths.
        """
        self._check_vpn(vpn)
        node = self._root
        path: List[int] = []
        for shift in _SHIFTS[:LEAF_LEVEL]:
            index = (vpn >> shift) & _INDEX_MASK
            path.append(node.frame * PAGE_SIZE + index * PTE_SIZE)
            leaf = node.leaves.get(index)
            if leaf is not None:  # above the PT, only a 2MB PDE
                return (leaf[0] + vpn % SUPERPAGE_PAGES, leaf[1]), path, None
            node = node.children.get(index)
            if node is None:
                return None
        leaves = node.leaves
        index = vpn & _INDEX_MASK
        leaf = leaves.get(index)
        if leaf is None:
            return None
        path.append(node.frame * PAGE_SIZE + index * PTE_SIZE)
        first = index - index % PTES_PER_CACHE_LINE
        line = [leaves.get(slot) for slot in range(first, first + PTES_PER_CACHE_LINE)]
        return leaf, path, line

    def pte_cache_line(self, vpn: int) -> Tuple[Optional[Translation], ...]:
        """The eight translations sharing ``vpn``'s PTE cache line.

        PTEs are 8 bytes and cache lines 64, so the line covers VPNs
        ``[vpn & ~7, (vpn & ~7) + 8)``. Unmapped slots come back as None.
        Superpage translations have no 4KB PTE line; callers should check
        :meth:`superpage_base` first.
        """
        self._check_vpn(vpn)
        line_base = vpn & ~(PTES_PER_CACHE_LINE - 1)
        node = self._descend(line_base, LEAF_LEVEL, create=False)
        if node is None:
            return (None,) * PTES_PER_CACHE_LINE
        leaves = node.leaves
        first = line_base & _INDEX_MASK
        result: List[Optional[Translation]] = []
        for offset in range(PTES_PER_CACHE_LINE):
            leaf = leaves.get(first + offset)
            result.append(
                None if leaf is None
                else Translation(line_base + offset, leaf[0], leaf[1], False)
            )
        return tuple(result)

    # ------------------------------------------------------------------
    # Iteration (contiguity scanner).
    # ------------------------------------------------------------------

    def iter_mappings(self) -> Iterator[Translation]:
        """Yield all leaf translations in ascending VPN order.

        Superpage leaves are yielded once, as their base translation with
        ``is_superpage=True``.
        """
        yield from self._iter_node(self._root, 0, 0)

    def _iter_node(
        self, node: _Node, level: int, vpn_prefix: int
    ) -> Iterator[Translation]:
        shift = (LEAF_LEVEL - level) * BITS_PER_LEVEL
        is_superpage = level != LEAF_LEVEL
        for index in sorted(set(node.children) | set(node.leaves)):
            vpn_base = vpn_prefix | (index << shift)
            leaf = node.leaves.get(index)
            if leaf is not None:
                yield Translation(vpn_base, leaf[0], leaf[1], is_superpage)
            else:
                yield from self._iter_node(
                    node.children[index], level + 1, vpn_base
                )

    def leaf_arrays(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every leaf as ``(vpn, pfn, attributes, is_superpage)`` arrays.

        The rows are :meth:`iter_mappings`' translations in the same VPN
        order (a 2MB PDE is one row, at its base VPN and PFN), built
        without a :class:`Translation` per page.
        """
        vpns: List[int] = []
        leaves: List[Leaf] = []
        superpages: List[int] = []
        stack = [(self._root, 0, 0)]
        while stack:
            node, level, prefix = stack.pop()
            shift = _SHIFTS[level]
            for index, child in node.children.items():
                stack.append((child, level + 1, prefix | index << shift))
            if not node.leaves:
                continue
            if level == LEAF_LEVEL:
                vpns.extend(map(prefix.__or__, node.leaves))
            else:
                first = len(vpns)
                vpns.extend(prefix | index << shift for index in node.leaves)
                superpages.extend(range(first, len(vpns)))
            leaves.extend(node.leaves.values())
        count = len(vpns)
        vpn = np.fromiter(vpns, dtype=np.int64, count=count)
        pfn = np.fromiter(map(itemgetter(0), leaves), dtype=np.int64, count=count)
        attributes = np.fromiter(
            map(itemgetter(1), leaves), dtype=np.int64, count=count
        )
        is_superpage = np.zeros(count, dtype=bool)
        is_superpage[superpages] = True
        order = np.argsort(vpn)
        return vpn[order], pfn[order], attributes[order], is_superpage[order]

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _descend(self, vpn: int, target_level: int, create: bool) -> Optional[_Node]:
        """Walk to the node at ``target_level`` along ``vpn``'s path."""
        node = self._root
        for level in range(target_level):
            index = (vpn >> _SHIFTS[level]) & _INDEX_MASK
            if index in node.leaves:
                if not create:
                    # A superpage leaf blocks the path; there is no PT
                    # node below it to return.
                    return None
                raise TranslationError(
                    f"vpn {vpn}: level-{level} entry is a leaf; cannot descend"
                )
            child = node.children.get(index)
            if child is None:
                if not create:
                    return None
                child = _Node(self._allocate_frame())
                node.children[index] = child
            node = child
        return node

    def _pt_spans(
        self, vpn: int, count: int
    ) -> List[Tuple[int, int, int, Optional[_Node]]]:
        """``[vpn, vpn + count)`` cut at PT-node boundaries.

        One ``(base, lo, hi, node)`` per PT node the run touches: the
        node covers VPNs ``base + [0, 512)``, the run its slots
        ``[lo, hi)``, and ``node`` is None where it does not exist yet.
        Each is found by one descent to its PD. Raises when any span
        lies in a superpage.
        """
        end = vpn + count
        if not 0 <= vpn <= end <= _VPN_LIMIT:
            raise TranslationError(
                f"run [{vpn}, {end}) outside canonical address space"
            )
        spans: List[Tuple[int, int, int, Optional[_Node]]] = []
        while vpn < end:
            base = vpn - (vpn & _INDEX_MASK)
            pd = self._descend(vpn, SUPERPAGE_LEVEL, create=False)
            node = None
            if pd is not None:
                slot = (vpn >> BITS_PER_LEVEL) & _INDEX_MASK
                if slot in pd.leaves:
                    raise TranslationError(f"vpn {vpn} lies in a superpage")
                node = pd.children.get(slot)
            spans.append((base, vpn - base, min(end - base, PTES_PER_TABLE), node))
            vpn = base + PTES_PER_TABLE
        return spans

    def _path_nodes(self, vpn: int, target_level: int) -> List[Optional[_Node]]:
        """Nodes along the path root..target_level (None past a hole)."""
        nodes: List[Optional[_Node]] = [self._root]
        node: Optional[_Node] = self._root
        for shift in _SHIFTS[:target_level]:
            if node is not None:
                node = node.children.get((vpn >> shift) & _INDEX_MASK)
            nodes.append(node)
        return nodes

    def _prune(self, vpn: int, path: List[Optional[_Node]]) -> None:
        """Free table nodes that became empty after an unmap."""
        for level in range(len(path) - 1, 0, -1):
            node = path[level]
            if node is None or not node.is_empty:
                break
            parent = path[level - 1]
            assert parent is not None
            del parent.children[level_index(vpn, level - 1)]
            self._release_frame(node.frame)

    @staticmethod
    def _check_vpn(vpn: int) -> None:
        if not 0 <= vpn < _VPN_LIMIT:
            raise TranslationError(f"vpn {vpn} outside canonical address space")
