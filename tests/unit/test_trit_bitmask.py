"""Unit + property tests of the packed (bitmask) trit encoding.

The compiled matcher of :mod:`repro.matching.compile` runs the whole trit
algebra on ``(yes_bits, maybe_bits)`` integer pairs.  These tests pin the
encoding against the reference :class:`TritVector` implementation: the
packed operators must agree element-wise with the scalar combine tables for
every input, and pack/unpack must round-trip exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    M,
    N,
    TritVector,
    Y,
    alternative_combine,
    alternative_combine_bits,
    import_yes_bits,
    parallel_combine,
    parallel_combine_bits,
    refine_bits,
    unpack_tritvector,
)
from tests.oracle.trits import import_yes, pack_tritvector, refine_with

trits = st.sampled_from([Y, M, N])
vectors = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(trits, min_size=n, max_size=n).map(TritVector)
)
paired_vectors = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.lists(trits, min_size=n, max_size=n).map(TritVector),
        st.lists(trits, min_size=n, max_size=n).map(TritVector),
    )
)


class TestRoundTrip:
    @given(vector=vectors)
    def test_pack_unpack_round_trip(self, vector):
        yes, maybe = pack_tritvector(vector)
        assert unpack_tritvector(yes, maybe, len(vector)) == vector

    @given(vector=vectors)
    def test_masks_never_overlap(self, vector):
        yes, maybe = pack_tritvector(vector)
        assert yes & maybe == 0
        assert (yes | maybe) >> len(vector) == 0

    def test_known_encoding(self):
        # Trit i lives at bit i: "YMN" -> yes=0b001, maybe=0b010.
        assert pack_tritvector(TritVector("YMN")) == (0b001, 0b010)
        assert unpack_tritvector(0b001, 0b010, 3) == TritVector("YMN")

    def test_pack_rejects_non_trits(self):
        with pytest.raises(TypeError):
            pack_tritvector(["Y"])

    def test_unpack_rejects_negative_masks(self):
        with pytest.raises(ValueError):
            unpack_tritvector(-1, 0, 3)

    def test_unpack_rejects_overlapping_masks(self):
        with pytest.raises(ValueError):
            unpack_tritvector(0b1, 0b1, 3)

    def test_unpack_rejects_excess_bits(self):
        with pytest.raises(ValueError):
            unpack_tritvector(0b100, 0, 2)


class TestPackedCombinesMatchScalarTables:
    @given(pair=paired_vectors)
    def test_parallel_combine(self, pair):
        a, b = pair
        a_yes, a_maybe = pack_tritvector(a)
        b_yes, b_maybe = pack_tritvector(b)
        yes, maybe = parallel_combine_bits(a_yes, a_maybe, b_yes, b_maybe)
        expected = TritVector(parallel_combine(x, y) for x, y in zip(a, b))
        assert unpack_tritvector(yes, maybe, len(a)) == expected

    @given(pair=paired_vectors)
    def test_alternative_combine(self, pair):
        a, b = pair
        full = (1 << len(a)) - 1
        a_yes, a_maybe = pack_tritvector(a)
        b_yes, b_maybe = pack_tritvector(b)
        yes, maybe = alternative_combine_bits(a_yes, a_maybe, b_yes, b_maybe, full)
        expected = TritVector(alternative_combine(x, y) for x, y in zip(a, b))
        assert unpack_tritvector(yes, maybe, len(a)) == expected

    @given(pair=paired_vectors)
    def test_refine(self, pair):
        mask, annotation = pair
        m_yes, m_maybe = pack_tritvector(mask)
        a_yes, a_maybe = pack_tritvector(annotation)
        yes, maybe = refine_bits(m_yes, m_maybe, a_yes, a_maybe)
        expected = refine_with(mask, annotation)
        assert unpack_tritvector(yes, maybe, len(mask)) == expected

    @given(pair=paired_vectors)
    def test_import_yes(self, pair):
        mask, returned = pair
        m_yes, m_maybe = pack_tritvector(mask)
        returned_yes, _ = pack_tritvector(returned)
        # TritVector.import_yes only looks at the Yes positions of the
        # returned vector, so dropping its Maybe bits must not change it.
        yes, maybe = import_yes_bits(m_yes, m_maybe, returned_yes)
        expected = import_yes(mask, returned)
        assert unpack_tritvector(yes, maybe, len(mask)) == expected


class TestPackedAlgebraLaws:
    @given(pair=paired_vectors)
    def test_commutativity(self, pair):
        a, b = pair
        full = (1 << len(a)) - 1
        pa = pack_tritvector(a)
        pb = pack_tritvector(b)
        assert parallel_combine_bits(*pa, *pb) == parallel_combine_bits(*pb, *pa)
        assert alternative_combine_bits(*pa, *pb, full) == alternative_combine_bits(
            *pb, *pa, full
        )

    @given(vector=vectors)
    def test_parallel_identity_is_all_no(self, vector):
        packed = pack_tritvector(vector)
        assert parallel_combine_bits(*packed, 0, 0) == packed

    @given(vector=vectors)
    def test_alternative_with_all_no_is_not_identity(self, vector):
        # Alternative Combine with an all-No vector keeps No and turns any
        # Yes/Maybe disagreement into Maybe — the open-domain annotation fold
        # depends on this (the implicit "no value branch accepts" outcome).
        full = (1 << len(vector)) - 1
        yes, maybe = alternative_combine_bits(*pack_tritvector(vector), 0, 0, full)
        assert yes == 0
        packed_yes, packed_maybe = pack_tritvector(vector)
        assert maybe == packed_yes | packed_maybe
