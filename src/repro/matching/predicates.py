"""Subscription predicates.

A content-based subscription is a *conjunction* of per-attribute tests against
an event schema, e.g. ``issue='IBM' & price<120 & volume>1000``.  Attributes
not mentioned in the conjunction are "don't care" (drawn as ``*`` in the
paper's Parallel Search Tree figures).

The PST of Section 2 primarily handles equality tests and don't-cares; range
tests are "also possible" and we support them throughout (a range test node
may have several satisfied outgoing edges, which the parallel subsearch
handles naturally).

Classes
-------
* :class:`AttributeTest` — abstract per-attribute test.
* :class:`EqualityTest`, :class:`RangeTest`, :class:`DontCare` — concrete tests.
* :class:`Predicate` — conjunction of tests, aligned to a schema.
* :class:`Subscription` — a predicate plus the subscriber's identity.
"""

from __future__ import annotations

import enum
import itertools
import operator
import weakref
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import PredicateError, SchemaError
from repro.matching.events import Event
from repro.matching.schema import Attribute, AttributeType, AttributeValue, EventSchema


class RangeOp(enum.Enum):
    """Comparison operator of a :class:`RangeTest`."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    NE = "!="

    @property
    def function(self) -> Callable[[AttributeValue, AttributeValue], bool]:
        return _RANGE_FUNCTIONS[self]

    @classmethod
    def from_symbol(cls, symbol: str) -> "RangeOp":
        try:
            return cls(symbol)
        except ValueError:
            raise PredicateError(f"unknown comparison operator {symbol!r}") from None


_RANGE_FUNCTIONS: Dict[RangeOp, Callable[[AttributeValue, AttributeValue], bool]] = {
    RangeOp.LT: operator.lt,
    RangeOp.LE: operator.le,
    RangeOp.GT: operator.gt,
    RangeOp.GE: operator.ge,
    RangeOp.NE: operator.ne,
}


class AttributeTest:
    """A test applied to a single attribute's value.

    Subclasses must be immutable, hashable value objects: the PST deduplicates
    branches by test equality.
    """

    __slots__ = ()

    def evaluate(self, value: AttributeValue) -> bool:
        """Whether ``value`` satisfies this test."""
        raise NotImplementedError

    @property
    def is_dont_care(self) -> bool:
        """Whether this is the ``*`` (always-true) test."""
        return False

    def describe(self, attribute_name: str) -> str:
        """Human-readable form used in ``repr`` and error messages."""
        raise NotImplementedError


class DontCare(AttributeTest):
    """The ``*`` test: satisfied by every value.

    A singleton for convenience — use :data:`DONT_CARE`.
    """

    __slots__ = ()

    def evaluate(self, value: AttributeValue) -> bool:
        return True

    @property
    def is_dont_care(self) -> bool:
        return True

    def describe(self, attribute_name: str) -> str:
        return f"{attribute_name}=*"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DontCare)

    def __hash__(self) -> int:
        return hash(DontCare)

    def __repr__(self) -> str:
        return "DontCare()"


#: Shared don't-care instance.
DONT_CARE = DontCare()


class EqualityTest(AttributeTest):
    """``attribute = value``, the workhorse test of the paper's PST.

    Interned and read-only: ``EqualityTest(v)`` (and a copy or unpickling)
    returns the one live test for ``(type(v), v)``, so ``1``, ``True`` and
    ``1.0`` stay distinct and a replica holds one test per distinct value.
    """

    __slots__ = ("value", "__weakref__")

    def __new__(cls, value: AttributeValue) -> "EqualityTest":
        key = (type(value), value)
        test = _INTERNED_EQUALITIES.get(key)
        if test is None:
            test = super().__new__(cls)
            object.__setattr__(test, "value", value)
            test = _INTERNED_EQUALITIES.setdefault(key, test)
        return test

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("EqualityTest is immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> Tuple[type, Tuple[AttributeValue]]:
        return (EqualityTest, (self.value,))

    def evaluate(self, value: AttributeValue) -> bool:
        return value == self.value

    def describe(self, attribute_name: str) -> str:
        return f"{attribute_name}={self.value!r}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EqualityTest):
            return NotImplemented
        return self.value == other.value and type(self.value) is type(other.value)

    def __hash__(self) -> int:
        return hash((EqualityTest, self.value))

    def __repr__(self) -> str:
        return f"EqualityTest({self.value!r})"


#: Weak-valued, so it holds only the tests some predicate still holds.
_INTERNED_EQUALITIES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class RangeTest(AttributeTest):
    """``attribute <op> bound`` for an ordered attribute type.

    Several range tests over the same attribute may be conjoined at predicate
    level (``price > 100 & price < 120``); they are normalized into a single
    :class:`IntervalTest` when possible.
    """

    __slots__ = ("op", "bound")

    def __init__(self, op: RangeOp, bound: AttributeValue) -> None:
        if isinstance(bound, bool):
            raise PredicateError("range tests are not defined for booleans")
        self.op = op
        self.bound = bound

    def evaluate(self, value: AttributeValue) -> bool:
        try:
            return self.op.function(value, self.bound)
        except TypeError:
            return False

    def describe(self, attribute_name: str) -> str:
        return f"{attribute_name}{self.op.value}{self.bound!r}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeTest):
            return NotImplemented
        return self.op is other.op and self.bound == other.bound

    def __hash__(self) -> int:
        return hash((RangeTest, self.op, self.bound))

    def __repr__(self) -> str:
        return f"RangeTest({self.op.value!r}, {self.bound!r})"


class IntervalTest(AttributeTest):
    """A normalized conjunction of range tests: ``low <? attr <? high``.

    ``low``/``high`` of ``None`` mean unbounded on that side.  ``low_closed``
    and ``high_closed`` select ``<=`` vs ``<`` at each end.  ``excluded``
    holds values ruled out by ``!=`` tests.
    """

    __slots__ = ("low", "high", "low_closed", "high_closed", "excluded")

    def __init__(
        self,
        low: Optional[AttributeValue] = None,
        high: Optional[AttributeValue] = None,
        *,
        low_closed: bool = True,
        high_closed: bool = True,
        excluded: Tuple[AttributeValue, ...] = (),
    ) -> None:
        self.low = low
        self.high = high
        self.low_closed = low_closed
        self.high_closed = high_closed
        self.excluded = tuple(sorted(set(excluded), key=repr))

    def evaluate(self, value: AttributeValue) -> bool:
        try:
            if self.low is not None:
                if self.low_closed:
                    if value < self.low:
                        return False
                elif value <= self.low:
                    return False
            if self.high is not None:
                if self.high_closed:
                    if value > self.high:
                        return False
                elif value >= self.high:
                    return False
        except TypeError:
            return False
        return value not in self.excluded

    @property
    def is_empty(self) -> bool:
        """Whether no value can satisfy the interval (e.g. ``x>5 & x<3``)."""
        if self.low is None or self.high is None:
            return False
        try:
            if self.low > self.high:
                return True
            if self.low == self.high and not (self.low_closed and self.high_closed):
                return True
        except TypeError:
            return True
        return False

    def describe(self, attribute_name: str) -> str:
        parts = []
        if self.low is not None:
            parts.append(f"{attribute_name}{'>=' if self.low_closed else '>'}{self.low!r}")
        if self.high is not None:
            parts.append(f"{attribute_name}{'<=' if self.high_closed else '<'}{self.high!r}")
        for value in self.excluded:
            parts.append(f"{attribute_name}!={value!r}")
        return " & ".join(parts) if parts else f"{attribute_name}=*"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalTest):
            return NotImplemented
        return (
            self.low == other.low
            and self.high == other.high
            and self.low_closed == other.low_closed
            and self.high_closed == other.high_closed
            and self.excluded == other.excluded
        )

    def __hash__(self) -> int:
        return hash(
            (IntervalTest, self.low, self.high, self.low_closed, self.high_closed, self.excluded)
        )

    def __repr__(self) -> str:
        return (
            f"IntervalTest(low={self.low!r}, high={self.high!r}, "
            f"low_closed={self.low_closed}, high_closed={self.high_closed}, "
            f"excluded={self.excluded!r})"
        )


def normalize_tests(tests: Sequence[AttributeTest]) -> AttributeTest:
    """Combine several tests on one attribute into a single equivalent test.

    * no tests / only don't-cares → :data:`DONT_CARE`
    * a single concrete test → itself
    * multiple equalities → the equality if they agree, else an empty interval
    * ranges (and ``!=``) → an :class:`IntervalTest`
    * equality + ranges → the equality if consistent, else empty interval

    Raises :class:`PredicateError` only for structurally invalid input; a
    logically unsatisfiable conjunction yields an empty interval (callers may
    check :attr:`IntervalTest.is_empty`).
    """
    concrete = [t for t in tests if not t.is_dont_care]
    if not concrete:
        return DONT_CARE
    if len(concrete) == 1:
        return concrete[0]

    equalities = [t for t in concrete if isinstance(t, EqualityTest)]
    others = [t for t in concrete if not isinstance(t, EqualityTest)]

    if equalities:
        value = equalities[0].value
        for test in equalities[1:]:
            if test.value != value:
                return IntervalTest(low=1, high=0)  # canonical empty interval
        if all(t.evaluate(value) for t in others):
            return EqualityTest(value)
        return IntervalTest(low=1, high=0)

    low: Optional[AttributeValue] = None
    high: Optional[AttributeValue] = None
    low_closed = True
    high_closed = True
    excluded: list = []
    for test in others:
        if isinstance(test, IntervalTest):
            if test.low is not None and (
                low is None or test.low > low or (test.low == low and not test.low_closed)
            ):
                low, low_closed = test.low, test.low_closed
            if test.high is not None and (
                high is None or test.high < high or (test.high == high and not test.high_closed)
            ):
                high, high_closed = test.high, test.high_closed
            excluded.extend(test.excluded)
            continue
        if not isinstance(test, RangeTest):
            raise PredicateError(f"cannot normalize test {test!r}")
        if test.op is RangeOp.NE:
            excluded.append(test.bound)
        elif test.op in (RangeOp.GT, RangeOp.GE):
            closed = test.op is RangeOp.GE
            if low is None or test.bound > low or (test.bound == low and not closed):
                low, low_closed = test.bound, closed
        else:
            closed = test.op is RangeOp.LE
            if high is None or test.bound < high or (test.bound == high and not closed):
                high, high_closed = test.bound, closed
    return IntervalTest(
        low, high, low_closed=low_closed, high_closed=high_closed, excluded=tuple(excluded)
    )


def _placed_tests(
    schema: EventSchema, placed: Mapping[int, Union[AttributeTest, Sequence[AttributeTest]]]
) -> Tuple[AttributeTest, ...]:
    """One test per schema position: each of ``placed`` checked against its
    attribute (several normalized), don't-cares elsewhere."""
    attributes = schema.attributes
    slots = [DONT_CARE] * len(attributes)
    for position, given in placed.items():
        attribute = attributes[position]
        if isinstance(given, AttributeTest):
            slots[position] = _checked(attribute, given)
        else:
            slots[position] = normalize_tests([_checked(attribute, test) for test in given])
    return tuple(slots)


def _checked(attribute: Attribute, test: AttributeTest) -> AttributeTest:
    """``test`` on ``attribute``, or :class:`PredicateError`: an equality
    value coerced to the attribute's type; a range only on an ordered
    attribute, a :class:`RangeTest`'s bound a number (not a bool) on a
    numeric one and a string on a string one.  (:func:`normalize_tests`
    builds an :class:`IntervalTest` from checked tests.)"""
    kind = attribute.type
    if isinstance(test, EqualityTest):
        try:
            value = kind.coerce(test.value)
        except SchemaError as error:
            raise PredicateError(f"attribute {attribute.name!r}: {error}") from None
        return test if value is test.value else EqualityTest(value)
    if test.is_dont_care:
        return test
    if not kind.is_ordered:
        raise PredicateError(f"range test on unordered attribute {attribute.name!r}")
    if isinstance(test, RangeTest) and not (
        isinstance(test.bound, str)
        if kind is AttributeType.STRING
        else isinstance(test.bound, (int, float)) and not isinstance(test.bound, bool)
    ):
        raise PredicateError(f"range bound {test.bound!r} on {kind.value} attribute {attribute.name!r}")
    return test


class Predicate:
    """A conjunction of per-attribute tests aligned to a schema.

    Internally a tuple of :class:`AttributeTest`, one per schema attribute in
    schema order, with :data:`DONT_CARE` filling unmentioned attributes.
    """

    __slots__ = ("schema", "_tests")

    def __init__(
        self,
        schema: EventSchema,
        tests: Mapping[str, Union[AttributeTest, Sequence[AttributeTest]]],
    ) -> None:
        positions = schema.positions
        try:
            placed = {positions[name]: given for name, given in tests.items()}
        except KeyError:
            unknown = sorted(name for name in tests if name not in positions)
            raise PredicateError(f"predicate mentions unknown attributes: {unknown!r}") from None
        self.schema = schema
        self._tests: Tuple[AttributeTest, ...] = _placed_tests(schema, placed)

    @classmethod
    def at_positions(
        cls,
        schema: EventSchema,
        placed: Mapping[int, Union[AttributeTest, Sequence[AttributeTest]]],
    ) -> "Predicate":
        """The predicate with ``placed[i]`` (several tests normalized) at
        schema position ``i`` and don't-cares elsewhere: :meth:`__init__`
        without its name lookup, and with the same checks."""
        predicate = cls.__new__(cls)
        predicate.schema = schema
        predicate._tests = _placed_tests(schema, placed)
        return predicate

    @classmethod
    def from_values(cls, schema: EventSchema, **values: AttributeValue) -> "Predicate":
        """Shorthand for an all-equality predicate:
        ``Predicate.from_values(schema, issue="IBM", volume=100)``."""
        return cls(schema, {name: EqualityTest(value) for name, value in values.items()})

    @property
    def tests(self) -> Tuple[AttributeTest, ...]:
        """Tests in schema order (don't-cares included)."""
        return self._tests

    def test_for(self, name: str) -> AttributeTest:
        """The test on attribute ``name``."""
        return self._tests[self.schema.position_of(name)]

    def matches(self, event: Event) -> bool:
        """Brute-force evaluation of the conjunction against ``event``.

        This is the reference semantics that the PST (and link matching on
        top of it) must agree with exactly.
        """
        if event.schema is not self.schema and event.schema != self.schema:
            raise PredicateError("event and predicate use different schemas")
        values = event.as_tuple()
        return all(test.evaluate(value) for test, value in zip(self._tests, values))

    @property
    def num_dont_cares(self) -> int:
        """How many attributes this predicate leaves unconstrained."""
        return sum(1 for t in self._tests if t.is_dont_care)

    @property
    def is_satisfiable(self) -> bool:
        """False if any per-attribute test is an empty interval."""
        return not any(isinstance(t, IntervalTest) and t.is_empty for t in self._tests)

    def describe(self) -> str:
        """The predicate as a subscription-language expression."""
        parts = [
            test.describe(attribute.name)
            for attribute, test in zip(self.schema, self._tests)
            if not test.is_dont_care
        ]
        return " & ".join(parts) if parts else "*"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return self.schema == other.schema and self._tests == other._tests

    def __hash__(self) -> int:
        return hash((self.schema, self._tests))

    def __repr__(self) -> str:
        return f"Predicate({self.describe()})"


_subscription_ids = itertools.count(1)


class Subscription:
    """A predicate plus the identity of the subscriber that registered it.

    ``subscriber`` is an opaque identifier — a client name in the prototype,
    a ``(broker, client)`` pair in the simulator.  ``subscription_id`` is a
    process-local unique id used to address this particular registration
    (a subscriber may register the same predicate twice, and unsubscribing
    must remove only one registration).
    """

    __slots__ = ("predicate", "subscriber", "subscription_id")

    def __init__(
        self, predicate: Predicate, subscriber: str, subscription_id: Optional[int] = None
    ) -> None:
        self.predicate = predicate
        self.subscriber = subscriber
        self.subscription_id = (
            subscription_id if subscription_id is not None else next(_subscription_ids)
        )

    def matches(self, event: Event) -> bool:
        """Whether the subscription's predicate matches ``event``."""
        return self.predicate.matches(event)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subscription):
            return NotImplemented
        return self.subscription_id == other.subscription_id

    def __hash__(self) -> int:
        return hash(self.subscription_id)

    def __repr__(self) -> str:
        return (
            f"Subscription(#{self.subscription_id} "
            f"{self.subscriber!r}: {self.predicate.describe()})"
        )
