"""Unit tests for the trit algebra (Figure 4)."""

from __future__ import annotations

import pytest

from repro.core import (
    M,
    N,
    Trit,
    TritVector,
    Y,
    alternative_combine,
    parallel_combine,
)
from tests.oracle.trits import (
    alternative_combine_all,
    close_maybes,
    import_yes,
    parallel_combine_all,
    refine_with,
)

ALL = (Y, M, N)


class TestOperators:
    def test_alternative_table(self):
        # Figure 4, left: same stays, anything else is Maybe.
        expected = {
            (Y, Y): Y, (Y, M): M, (Y, N): M,
            (M, Y): M, (M, M): M, (M, N): M,
            (N, Y): M, (N, M): M, (N, N): N,
        }
        for (a, b), want in expected.items():
            assert alternative_combine(a, b) is want

    def test_parallel_table(self):
        # Figure 4, right: Yes dominates Maybe dominates No.
        expected = {
            (Y, Y): Y, (Y, M): Y, (Y, N): Y,
            (M, Y): Y, (M, M): M, (M, N): M,
            (N, Y): Y, (N, M): M, (N, N): N,
        }
        for (a, b), want in expected.items():
            assert parallel_combine(a, b) is want

    def test_both_commutative(self):
        for a in ALL:
            for b in ALL:
                assert alternative_combine(a, b) is alternative_combine(b, a)
                assert parallel_combine(a, b) is parallel_combine(b, a)

    def test_both_associative(self):
        for a in ALL:
            for b in ALL:
                for c in ALL:
                    assert alternative_combine(alternative_combine(a, b), c) is (
                        alternative_combine(a, alternative_combine(b, c))
                    )
                    assert parallel_combine(parallel_combine(a, b), c) is (
                        parallel_combine(a, parallel_combine(b, c))
                    )

    def test_parallel_identity_is_no(self):
        for a in ALL:
            assert parallel_combine(a, N) is a

    def test_parallel_distributes_over_alternative(self):
        # P(A(a,b), s) == A(P(a,s), P(b,s)) — this is what justifies the
        # paper's "alternative-combine the value children, then
        # parallel-combine the star child" recipe.
        for a in ALL:
            for b in ALL:
                for s in ALL:
                    left = parallel_combine(alternative_combine(a, b), s)
                    right = alternative_combine(
                        parallel_combine(a, s), parallel_combine(b, s)
                    )
                    assert left is right


class TestTritVector:
    def test_from_string(self):
        vector = TritVector("YNM")
        assert list(vector) == [Y, N, M]

    def test_from_string_case_insensitive(self):
        assert TritVector("ynm") == TritVector("YNM")

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            TritVector("YXZ")

    def test_bad_element(self):
        with pytest.raises(TypeError):
            TritVector([Y, "N"])  # type: ignore[list-item]

    def test_constructors(self):
        assert str(TritVector.all_no(3)) == "NNN"
        assert str(TritVector.all_maybe(2)) == "MM"
        assert str(TritVector.all_yes(2)) == "YY"
        assert str(TritVector.with_yes_at(4, [1, 3])) == "NYNY"

    def test_figure5_example(self):
        # MYY A NYN = MYM ; MYM P YYN = YYM — straight from the paper.
        assert TritVector("MYY").alternative(TritVector("NYN")) == TritVector("MYM")
        assert TritVector("MYM").parallel(TritVector("YYN")) == TritVector("YYM")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TritVector("YN").alternative(TritVector("Y"))
        with pytest.raises(ValueError):
            TritVector("YN").parallel(TritVector("Y"))
        with pytest.raises(ValueError):
            refine_with(TritVector("YN"), TritVector("Y"))

    def test_refine_with(self):
        mask = TritVector("MNMY")
        annotation = TritVector("YYNM")
        refined = refine_with(mask, annotation)
        # Maybes take the annotation; fixed trits stay.
        assert refined == TritVector("YNNY")

    def test_refine_keeps_maybe_when_annotation_maybe(self):
        assert refine_with(TritVector("M"), TritVector("M")) == TritVector("M")

    def test_import_yes(self):
        current = TritVector("MMNY")
        returned = TritVector("YNYY")
        merged = import_yes(current, returned)
        # Only Maybe positions with a returned Yes flip; N and Y are final.
        assert merged == TritVector("YMNY")

    def test_close_maybes(self):
        assert close_maybes(TritVector("MYNM")) == TritVector("NYNN")

    def test_positions(self):
        vector = TritVector("YMNY")
        assert vector.yes_positions() == [0, 3]
        assert vector.maybe_positions() == [1]
        assert vector.has_maybe
        assert not TritVector("YN").has_maybe

    def test_equality_and_hash(self):
        assert TritVector("YNM") == TritVector("YNM")
        assert hash(TritVector("YNM")) == hash(TritVector("YNM"))
        assert TritVector("YNM") != TritVector("YNN")

    def test_indexing(self):
        vector = TritVector("YNM")
        assert vector[0] is Y and vector[2] is M
        assert len(vector) == 3

    def test_empty_vector(self):
        vector = TritVector("")
        assert len(vector) == 0
        assert not vector.has_maybe
        assert close_maybes(vector) == vector


class TestFolds:
    def test_alternative_combine_all_empty_is_all_no(self):
        assert alternative_combine_all([], 3) == TritVector("NNN")

    def test_alternative_combine_all(self):
        vectors = [TritVector("YY"), TritVector("YN"), TritVector("YM")]
        assert alternative_combine_all(vectors, 2) == TritVector("YM")

    def test_parallel_combine_all_empty_is_all_no(self):
        assert parallel_combine_all([], 2) == TritVector("NN")

    def test_parallel_combine_all(self):
        vectors = [TritVector("NM"), TritVector("NY")]
        assert parallel_combine_all(vectors, 2) == TritVector("NY")

    def test_trit_from_letter(self):
        assert Trit.from_letter("y") is Y
        with pytest.raises(ValueError):
            Trit.from_letter("Q")
