"""The trit-vector operations only the object-graph oracle uses.

:class:`~repro.core.trits.TritVector` keeps the element-wise combine
operators; the folds, the Section 3.3 search steps on whole vectors and
the vector-to-bits encoder live here, beside the annotation and the search
that use them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.trits import M, N, PackedTrits, Trit, TritVector, Y


def alternative_combine_all(vectors: Sequence[TritVector], length: int) -> TritVector:
    """Alternative Combine over any number of vectors.

    The operator is associative and commutative, so the fold order does not
    matter.  With no vectors the result is all-No (there is no alternative
    through which anything could match).
    """
    if not vectors:
        return TritVector.all_no(length)
    result = vectors[0]
    for vector in vectors[1:]:
        result = result.alternative(vector)
    return result


def parallel_combine_all(vectors: Sequence[TritVector], length: int) -> TritVector:
    """Parallel Combine over any number of vectors; identity is all-No."""
    result = TritVector.all_no(length)
    for vector in vectors:
        result = result.parallel(vector)
    return result


def refine_with(mask: TritVector, annotation: TritVector) -> TritVector:
    """Section 3.3 step 2: replace every Maybe with the annotation's trit."""
    _check_length(mask, annotation)
    return TritVector(annotation[i] if trit is M else trit for i, trit in enumerate(mask))


def import_yes(mask: TritVector, returned: TritVector) -> TritVector:
    """Section 3.3 step 3: convert Maybes to Yes where a subsearch said Yes."""
    _check_length(mask, returned)
    return TritVector(
        Y if trit is M and returned[i] is Y else trit for i, trit in enumerate(mask)
    )


def close_maybes(mask: TritVector) -> TritVector:
    """Section 3.3 step 3, final clause: remaining Maybes become No."""
    return TritVector(N if trit is M else trit for trit in mask)


def pack_tritvector(vector: Iterable[Trit]) -> PackedTrits:
    """Encode a trit vector (or any iterable of trits) as ``(yes, maybe)``."""
    yes = 0
    maybe = 0
    for i, trit in enumerate(vector):
        if trit is Y:
            yes |= 1 << i
        elif trit is M:
            maybe |= 1 << i
        elif trit is not N:
            raise TypeError(f"not a trit: {trit!r}")
    return yes, maybe


def _check_length(mask: TritVector, other: TritVector) -> None:
    if len(other) != len(mask):
        raise ValueError(f"trit vector length mismatch: {len(mask)} vs {len(other)}")
