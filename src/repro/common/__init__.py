"""Shared primitives: constants, value types, RNG, statistics, CDFs, knobs."""

from repro.common.constants import (
    CACHE_LINE_SIZE,
    MAX_ORDER,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTES_PER_CACHE_LINE,
    SUPERPAGE_PAGES,
    SUPERPAGE_SIZE,
)
from repro.common.atomicio import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.common.errors import (
    AllocationError,
    ConfigurationError,
    ExperimentError,
    OutOfMemoryError,
    PageFaultError,
    ReproError,
    ShutdownRequested,
    TranslationError,
    WorkloadError,
)
from repro.common.rng import SeedSequencer, derive_seed, make_rng
from repro.common.statistics import (
    CounterSet,
    CounterSnapshot,
    RunningStat,
    misses_per_million,
    percent_eliminated,
    speedup_percent,
)
from repro.common.types import (
    AccessType,
    ContiguityRun,
    LookupResult,
    MemoryAccess,
    PageAttributes,
    Translation,
    WalkResult,
)
from repro.common.cdfs import (
    PAPER_CDF_POINTS,
    WeightedCDF,
    average_contiguity,
    contiguity_cdf,
)

__all__ = [
    "AccessType",
    "AllocationError",
    "CACHE_LINE_SIZE",
    "ConfigurationError",
    "ContiguityRun",
    "CounterSet",
    "CounterSnapshot",
    "ExperimentError",
    "LookupResult",
    "MAX_ORDER",
    "MemoryAccess",
    "OutOfMemoryError",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "PAPER_CDF_POINTS",
    "PTES_PER_CACHE_LINE",
    "PageAttributes",
    "PageFaultError",
    "ReproError",
    "RunningStat",
    "SUPERPAGE_PAGES",
    "SUPERPAGE_SIZE",
    "SeedSequencer",
    "ShutdownRequested",
    "Translation",
    "TranslationError",
    "WalkResult",
    "WeightedCDF",
    "WorkloadError",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "average_contiguity",
    "contiguity_cdf",
    "derive_seed",
    "make_rng",
    "misses_per_million",
    "percent_eliminated",
    "speedup_percent",
]
