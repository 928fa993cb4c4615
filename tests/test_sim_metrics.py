"""Unit tests for the comparison statistics, Figure 21's improvement sign
and the exception hierarchy."""

import pytest

from repro.common import errors
from repro.common.statistics import mean, percent_eliminated
from repro.core.mmu import CoLTDesign
from repro.core.performance import PerformanceResult


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "OutOfMemoryError",
            "PageFaultError",
            "TranslationError",
            "AllocationError",
            "WorkloadError",
            "ExperimentError",
        ):
            exc_type = getattr(errors, name)
            assert issubclass(exc_type, errors.ReproError), name

    def test_catching_base_catches_subclasses(self):
        with pytest.raises(errors.ReproError):
            raise errors.OutOfMemoryError("boom")

    def test_repro_error_is_exception(self):
        assert issubclass(errors.ReproError, Exception)


class TestMean:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_empty_mean_rejected(self):
        with pytest.raises(ValueError):
            mean([])


class TestPercentEliminated:
    def test_positive_elimination(self):
        assert percent_eliminated(200, 50) == pytest.approx(75.0)

    def test_negative_means_added_misses(self):
        assert percent_eliminated(100, 150) == pytest.approx(-50.0)

    def test_zero_baseline_is_safe(self):
        """A perfect baseline has nothing to eliminate -- callers
        (elimination rows, figure averages) must get 0.0, not a
        ZeroDivisionError."""
        assert percent_eliminated(0, 0) == 0.0
        assert percent_eliminated(0, 7) == 0.0


class TestImprovementSemantics:
    def test_improvement_direction(self):
        """A design with fewer overhead cycles improves positively."""
        slow = PerformanceResult(1000, 1000, 100, 900)
        fast = PerformanceResult(1000, 1000, 100, 400)
        assert fast.improvement_over(slow) > 0
        assert slow.improvement_over(fast) < 0

    def test_design_enum_values_are_stable(self):
        """Experiment outputs key on these strings; renames break them."""
        assert CoLTDesign.BASELINE.value == "baseline"
        assert CoLTDesign.COLT_SA.value == "colt_sa"
        assert CoLTDesign.COLT_FA.value == "colt_fa"
        assert CoLTDesign.COLT_ALL.value == "colt_all"
        assert CoLTDesign.PERFECT.value == "perfect"
