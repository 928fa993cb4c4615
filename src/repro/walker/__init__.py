"""Page-table walker: TLB-miss resolution through the memory hierarchy."""

from repro.walker.page_walker import PageWalker, WalkRecord

__all__ = ["PageWalker", "WalkRecord"]
