"""Tests for the sparse word memory."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import MemoryAccessError
from repro.isa.memory_image import (
    MemoryImage,
    bits_to_float,
    float_to_bits,
)


class TestAccess:
    def test_default_zero(self):
        assert MemoryImage().load(0x1000) == 0

    def test_store_load(self):
        m = MemoryImage()
        m.store(0x1000, 0xDEADBEEF)
        assert m.load(0x1000) == 0xDEADBEEF

    def test_store_wraps_64_bits(self):
        m = MemoryImage()
        m.store(0x1000, 1 << 64)
        assert m.load(0x1000) == 0

    def test_unaligned_rejected(self):
        m = MemoryImage()
        with pytest.raises(MemoryAccessError):
            m.load(0x1001)
        with pytest.raises(MemoryAccessError):
            m.store(0x1004, 1)

    def test_negative_rejected(self):
        with pytest.raises(MemoryAccessError):
            MemoryImage().load(-8)

    def test_initial_contents(self):
        m = MemoryImage({0x100: 7, 0x108: 9})
        assert m.load(0x100) == 7
        assert m.load(0x108) == 9
        assert len(m) == 2

    def test_contains(self):
        m = MemoryImage({0x100: 7})
        assert 0x100 in m
        assert 0x108 not in m

    def test_copy_is_independent(self):
        m = MemoryImage({0x100: 1})
        clone = m.copy()
        clone.store(0x100, 2)
        assert m.load(0x100) == 1


class TestFloatBits:
    @pytest.mark.parametrize("value", [0.0, 1.0, -1.5, 3.14159, 1e300,
                                       -1e-300, float("inf")])
    def test_roundtrip(self, value):
        assert bits_to_float(float_to_bits(value)) == value

    def test_nan_roundtrip_bitwise(self):
        bits = float_to_bits(float("nan"))
        assert math.isnan(bits_to_float(bits))
        assert float_to_bits(bits_to_float(bits)) == bits

    def test_load_float(self):
        m = MemoryImage()
        m.store(0x200, float_to_bits(2.718))
        assert m.load_float(0x200) == 2.718

    def test_negative_zero_preserved(self):
        assert float_to_bits(-0.0) != float_to_bits(0.0)
        assert bits_to_float(float_to_bits(-0.0)) == 0.0  # compares equal
        assert math.copysign(1.0, bits_to_float(float_to_bits(-0.0))) == -1.0

    @given(st.floats(allow_nan=False))
    def test_roundtrip_property(self, value):
        assert bits_to_float(float_to_bits(value)) == value
