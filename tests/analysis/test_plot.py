"""Tests for the ASCII plot renderers."""

from repro.analysis.plot import ascii_density


class TestAsciiDensity:
    def test_shapes_rendered(self):
        series = {
            "flat": [(float(i), 1.0) for i in range(10)],
            "peaked": [(float(i), 1.0 if i == 5 else 0.1)
                       for i in range(10)],
        }
        text = ascii_density(series)
        assert "flat" in text and "peaked" in text
        assert "@" in text  # peak glyph appears
        assert "delay (ns)" in text

    def test_empty_series(self):
        assert "(no data)" in ascii_density({})

    def test_zero_density_row(self):
        text = ascii_density({"empty": [(0.0, 0.0), (1.0, 0.0)]})
        assert "(no samples)" in text

    def test_peak_normalised_per_row(self):
        series = {
            "small": [(0.0, 0.001), (1.0, 0.0005)],
            "large": [(0.0, 100.0), (1.0, 50.0)],
        }
        lines = ascii_density(series).splitlines()
        # identical shapes despite 10^5 scale difference
        small_row = next(l for l in lines if l.startswith("small"))
        large_row = next(l for l in lines if l.startswith("large"))
        assert small_row.split("|")[1] == large_row.split("|")[1]

