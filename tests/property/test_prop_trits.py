"""Property-based tests of the trit algebra (hypothesis)."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core import (
    M,
    N,
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

trits = st.sampled_from([Y, M, N])
vectors = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(trits, min_size=n, max_size=n).map(TritVector)
)
paired_vectors = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.tuples(
        st.lists(trits, min_size=n, max_size=n).map(TritVector),
        st.lists(trits, min_size=n, max_size=n).map(TritVector),
    )
)
tripled_vectors = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(
        *(st.lists(trits, min_size=n, max_size=n).map(TritVector) for _ in range(3))
    )
)


class TestScalarLaws:
    @given(a=trits, b=trits)
    def test_commutativity(self, a, b):
        assert alternative_combine(a, b) is alternative_combine(b, a)
        assert parallel_combine(a, b) is parallel_combine(b, a)

    @given(a=trits, b=trits, c=trits)
    def test_associativity(self, a, b, c):
        assert alternative_combine(alternative_combine(a, b), c) is alternative_combine(
            a, alternative_combine(b, c)
        )
        assert parallel_combine(parallel_combine(a, b), c) is parallel_combine(
            a, parallel_combine(b, c)
        )

    @given(a=trits)
    def test_idempotence(self, a):
        assert alternative_combine(a, a) is a
        assert parallel_combine(a, a) is a

    @given(a=trits, b=trits, s=trits)
    def test_parallel_distributes_over_alternative(self, a, b, s):
        left = parallel_combine(alternative_combine(a, b), s)
        right = alternative_combine(parallel_combine(a, s), parallel_combine(b, s))
        assert left is right

    @given(a=trits, b=trits)
    def test_alternative_never_invents_certainty(self, a, b):
        # If the inputs disagree, the result must be Maybe.
        if a is not b:
            assert alternative_combine(a, b) is M

    @given(a=trits, b=trits)
    def test_parallel_is_join(self, a, b):
        rank = {N: 0, M: 1, Y: 2}
        assert rank[parallel_combine(a, b)] == max(rank[a], rank[b])


class TestVectorLaws:
    @given(pair=paired_vectors)
    def test_vector_ops_elementwise(self, pair):
        a, b = pair
        assert list(a.alternative(b)) == [
            alternative_combine(x, y) for x, y in zip(a, b)
        ]
        assert list(a.parallel(b)) == [parallel_combine(x, y) for x, y in zip(a, b)]

    @given(pair=paired_vectors)
    def test_refinement_only_touches_maybes(self, pair):
        mask, annotation = pair
        refined = refine_with(mask, annotation)
        for original, new, slot in zip(mask, refined, annotation):
            if original is M:
                assert new is slot
            else:
                assert new is original

    @given(pair=paired_vectors)
    def test_import_yes_is_monotonic(self, pair):
        mask, returned = pair
        merged = import_yes(mask, returned)
        for original, new in zip(mask, merged):
            if original is not M:
                assert new is original  # decided trits never change
            else:
                assert new in (M, Y)  # maybes may only be promoted

    @given(vector=vectors)
    def test_close_maybes_leaves_no_maybe(self, vector):
        closed = close_maybes(vector)
        assert not closed.has_maybe
        for original, new in zip(vector, closed):
            assert new is (N if original is M else original)

    @given(vector=vectors)
    def test_string_roundtrip(self, vector):
        assert TritVector(str(vector)) == vector

    @given(triple=tripled_vectors)
    def test_fold_order_irrelevant(self, triple):
        a, b, c = triple
        n = len(a)
        assert alternative_combine_all([a, b, c], n) == alternative_combine_all(
            [c, a, b], n
        )
        assert parallel_combine_all([a, b, c], n) == parallel_combine_all([b, c, a], n)

    @given(vector=vectors)
    def test_parallel_identity(self, vector):
        assert vector.parallel(TritVector.all_no(len(vector))) == vector
