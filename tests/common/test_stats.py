"""Tests for the statistics primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import Samples, geometric_mean


class TestSamples:
    def test_percentile_interpolation(self):
        s = Samples()
        s.extend([0.0, 10.0])
        assert s.percentile(50) == pytest.approx(5.0)
        assert s.percentile(0) == 0.0
        assert s.percentile(100) == 10.0

    def test_percentile_single(self):
        s = Samples()
        s.add(42.0)
        assert s.percentile(99.9) == 42.0

    def test_fraction_below(self):
        s = Samples()
        s.extend([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.fraction_below(3.0) == pytest.approx(0.6)
        assert s.fraction_below(0.5) == 0.0
        assert s.fraction_below(10.0) == 1.0

    def test_unsorted_insertion(self):
        s = Samples()
        s.extend([5.0, 1.0, 3.0])
        assert s.percentile(50) == 3.0
        assert s.min() == 1.0 and s.max() == 5.0

    def test_density_integrates_to_one(self):
        s = Samples()
        s.extend([float(i) for i in range(100)])
        pts = s.density(bins=10, lo=0.0, hi=99.0)
        width = 99.0 / 10
        total = sum(d * width for _x, d in pts)
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_density_empty(self):
        assert Samples().density() == []

    def test_density_out_of_range_excluded(self):
        s = Samples()
        s.extend([1.0, 2.0, 1000.0])
        pts = s.density(bins=4, lo=0.0, hi=4.0)
        width = 1.0
        assert sum(d * width for _x, d in pts) == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=100),
           st.floats(min_value=0, max_value=100))
    def test_percentile_within_range(self, values, p):
        s = Samples()
        s.extend(values)
        result = s.percentile(p)
        assert min(values) <= result <= max(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=100))
    def test_fraction_below_monotone(self, values):
        s = Samples()
        s.extend(values)
        thresholds = sorted({min(values), max(values),
                             sum(values) / len(values)})
        fractions = [s.fraction_below(t) for t in thresholds]
        assert fractions == sorted(fractions)


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1,
                    max_size=20))
    def test_between_min_and_max(self, values):
        g = geometric_mean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9
