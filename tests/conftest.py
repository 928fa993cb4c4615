"""Shared fixtures for the test suite.

Everything is small and seeded: kernels boot 2**12-frame machines unless
a test needs more, so the whole suite stays fast while still exercising
real allocation, compaction, and TLB behaviour.
"""

import pytest

from repro.common import knobs
from repro.common.rng import SeedSequencer
from repro.osmem.kernel import Kernel, KernelConfig

#: Test modules that always run with the runtime sanitizers attached:
#: the structural suites, where an invariant break should fail loudly
#: even when no assertion looks at the broken structure directly.
_SANITIZED_MODULES = (
    "test_system_integration",
    "test_mmu",
    "test_buddy",
)


@pytest.fixture(autouse=True)
def _sanitize_structural_suites(request, monkeypatch):
    """Force ``COLT_SANITIZE=1`` for the structural test modules.

    Sanitizers only observe, so enabling them changes no simulated
    behaviour -- it just turns silent corruption into a loud
    SanitizerError with the invariant spelled out.
    """
    if request.module.__name__ in _SANITIZED_MODULES:
        monkeypatch.setenv(knobs.SANITIZE.name, "1")


@pytest.fixture
def seeds():
    return SeedSequencer(1234)


@pytest.fixture
def small_kernel():
    """A pristine 16MB (4096-frame) kernel, THS + defrag on."""
    return Kernel(KernelConfig(num_frames=4096, seed=99))


@pytest.fixture
def tiny_kernel_no_thp():
    """A 4MB kernel with THS off (tests that need base pages only)."""
    return Kernel(
        KernelConfig(num_frames=1024, ths_enabled=False, seed=7)
    )


@pytest.fixture
def kernel_factory():
    """Factory for kernels with custom configuration overrides."""

    def make(**overrides):
        defaults = dict(num_frames=4096, seed=99)
        defaults.update(overrides)
        return Kernel(KernelConfig(**defaults))

    return make
