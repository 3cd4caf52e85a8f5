"""Trits and trit vectors — the three-valued routing logic of Section 3.

A *trit* is Yes / No / Maybe.  In a trit vector annotating a PST node, the
trit at link position *l* means:

* **Yes** — based on the tests performed so far, the event *will* be matched
  by some subscriber best reached by sending the message along link *l*;
* **No** — the event will definitely *not* be matched by any subscriber along
  that link;
* **Maybe** — further searching must take place to decide.

Two operators combine child annotations into a parent's (Figure 4):

* **Alternative Combine** ``A`` merges *alternatives* (the value branches —
  an event takes at most one of them): it keeps the least specific result, so
  any disagreement or Maybe yields Maybe (``x A x = x``, otherwise ``M``).
* **Parallel Combine** ``P`` merges branches searched *in parallel* (a value
  branch together with the ``*``-branch): it keeps the most liberal result
  (``Y`` dominates, then ``M``, then ``N``) — a guaranteed match on either
  parallel branch is a guaranteed match overall.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, List, Tuple, Union


class Trit(enum.Enum):
    """Yes / No / Maybe."""

    YES = "Y"
    NO = "N"
    MAYBE = "M"

    def __repr__(self) -> str:
        return f"Trit.{self.name}"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_letter(cls, letter: str) -> "Trit":
        try:
            return cls(letter.upper())
        except ValueError:
            raise ValueError(f"not a trit letter: {letter!r}") from None


Y = Trit.YES
N = Trit.NO
M = Trit.MAYBE

#: Parallel Combine keeps the *most liberal* trit: Y > M > N.
_PARALLEL_RANK = {N: 0, M: 1, Y: 2}


def alternative_combine(a: Trit, b: Trit) -> Trit:
    """Figure 4, left table: agreement is kept, anything else is Maybe."""
    return a if a is b else M


def parallel_combine(a: Trit, b: Trit) -> Trit:
    """Figure 4, right table: Yes dominates Maybe dominates No."""
    return a if _PARALLEL_RANK[a] >= _PARALLEL_RANK[b] else b


class TritVector:
    """An immutable fixed-length vector of trits, one per (virtual) link.

    Supports the two combine operators element-wise.

    Construction accepts trits or a compact letter string::

        TritVector("MYY")  ==  TritVector([M, Y, Y])
    """

    __slots__ = ("_trits",)

    def __init__(self, trits: Union[str, Iterable[Trit]]) -> None:
        if isinstance(trits, str):
            self._trits: Tuple[Trit, ...] = tuple(Trit.from_letter(c) for c in trits)
        else:
            self._trits = tuple(trits)
        for trit in self._trits:
            if not isinstance(trit, Trit):
                raise TypeError(f"not a trit: {trit!r}")

    @classmethod
    def all_no(cls, length: int) -> "TritVector":
        """The identity of Parallel Combine and the leaf default."""
        return cls([N] * length)

    @classmethod
    def all_maybe(cls, length: int) -> "TritVector":
        return cls([M] * length)

    @classmethod
    def all_yes(cls, length: int) -> "TritVector":
        return cls([Y] * length)

    @classmethod
    def with_yes_at(cls, length: int, positions: Iterable[int]) -> "TritVector":
        """All-No except Yes at the given positions (leaf annotations)."""
        trits = [N] * length
        for position in positions:
            trits[position] = Y
        return cls(trits)

    def __len__(self) -> int:
        return len(self._trits)

    def __iter__(self) -> Iterator[Trit]:
        return iter(self._trits)

    def __getitem__(self, index: int) -> Trit:
        return self._trits[index]

    def alternative(self, other: "TritVector") -> "TritVector":
        """Element-wise Alternative Combine."""
        self._check_length(other)
        return TritVector(
            alternative_combine(a, b) for a, b in zip(self._trits, other._trits)
        )

    def parallel(self, other: "TritVector") -> "TritVector":
        """Element-wise Parallel Combine."""
        self._check_length(other)
        return TritVector(
            parallel_combine(a, b) for a, b in zip(self._trits, other._trits)
        )

    @property
    def has_maybe(self) -> bool:
        return M in self._trits

    def yes_positions(self) -> List[int]:
        return [i for i, trit in enumerate(self._trits) if trit is Y]

    def maybe_positions(self) -> List[int]:
        return [i for i, trit in enumerate(self._trits) if trit is M]

    def _check_length(self, other: "TritVector") -> None:
        if len(other) != len(self._trits):
            raise ValueError(
                f"trit vector length mismatch: {len(self._trits)} vs {len(other)}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TritVector):
            return NotImplemented
        return self._trits == other._trits

    def __hash__(self) -> int:
        return hash(self._trits)

    def __str__(self) -> str:
        return "".join(t.value for t in self._trits)

    def __repr__(self) -> str:
        return f"TritVector({str(self)!r})"


# ----------------------------------------------------------------------
# Packed trit vectors — the bitmask encoding used by the compiled matcher.
#
# A trit vector of length n is encoded as two non-negative ints
# ``(yes_bits, maybe_bits)``: bit i of ``yes_bits`` set means trit i is Yes,
# bit i of ``maybe_bits`` set means Maybe, neither set means No.  The two
# masks never overlap.  All combine operators become a handful of machine
# word operations (arbitrary-precision for n > 64, courtesy of Python ints),
# which is what makes :mod:`repro.matching.compile` kernels allocation-free.

PackedTrits = Tuple[int, int]


def unpack_tritvector(yes_bits: int, maybe_bits: int, length: int) -> TritVector:
    """Decode ``(yes, maybe)`` back into a :class:`TritVector` of ``length``."""
    if yes_bits < 0 or maybe_bits < 0:
        raise ValueError("packed trit masks must be non-negative")
    if yes_bits & maybe_bits:
        raise ValueError("packed trit masks overlap: a trit cannot be Yes and Maybe")
    if (yes_bits | maybe_bits) >> length:
        raise ValueError(f"packed trit masks have bits beyond length {length}")
    return TritVector(
        Y if yes_bits >> i & 1 else (M if maybe_bits >> i & 1 else N)
        for i in range(length)
    )


def parallel_combine_bits(
    a_yes: int, a_maybe: int, b_yes: int, b_maybe: int
) -> PackedTrits:
    """Packed element-wise Parallel Combine (Y > M > N)."""
    yes = a_yes | b_yes
    return yes, (a_maybe | b_maybe) & ~yes


def alternative_combine_bits(
    a_yes: int, a_maybe: int, b_yes: int, b_maybe: int, full: int
) -> PackedTrits:
    """Packed element-wise Alternative Combine (agreement kept, else M).

    ``full`` is the all-ones mask ``(1 << length) - 1``; it is needed because
    "both No" can only be recognized relative to the vector length.
    """
    yes = a_yes & b_yes
    no = (full & ~(a_yes | a_maybe)) & (full & ~(b_yes | b_maybe))
    return yes, full & ~(yes | no)


def refine_bits(m_yes: int, m_maybe: int, a_yes: int, a_maybe: int) -> PackedTrits:
    """Packed Section 3.3 step 2: Maybe positions take the annotation's trit."""
    return m_yes | (m_maybe & a_yes), m_maybe & a_maybe


def import_yes_bits(m_yes: int, m_maybe: int, returned_yes: int) -> PackedTrits:
    """Packed Section 3.3 step 3: Maybes become Yes where a subsearch said Yes."""
    return m_yes | (m_maybe & returned_yes), m_maybe & ~returned_yes
