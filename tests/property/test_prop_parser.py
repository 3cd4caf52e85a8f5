"""Property-based tests of the subscription expression parser."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.matching import (
    EqualityTest,
    Event,
    Predicate,
    RangeOp,
    RangeTest,
    parse_predicate,
    tokenize,
    uniform_schema,
)
from repro.matching.schema import EventSchema
from tests.char_tokenizer import tokenize as reference_tokenize


SCHEMA = EventSchema([("name", "string"), ("price", "float"), ("qty", "integer")])

safe_strings = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=30
)
numbers = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


@st.composite
def predicates(draw):
    """A random predicate over SCHEMA built from test objects directly."""
    tests = {}
    if draw(st.booleans()):
        tests["name"] = EqualityTest(draw(safe_strings))
    if draw(st.booleans()):
        op = draw(st.sampled_from(list(RangeOp)))
        tests["price"] = RangeTest(op, draw(numbers))
    if draw(st.booleans()):
        tests["qty"] = EqualityTest(draw(st.integers(-1000, 1000)))
    return Predicate(SCHEMA, tests)


class TestDescribeParseRoundtrip:
    @given(predicate=predicates())
    @settings(max_examples=300)
    def test_roundtrip(self, predicate):
        assert parse_predicate(SCHEMA, predicate.describe()) == predicate

    @given(predicate=predicates(), data=st.data())
    @settings(max_examples=100)
    def test_roundtrip_preserves_semantics(self, predicate, data):
        reparsed = parse_predicate(SCHEMA, predicate.describe())
        event = Event(
            SCHEMA,
            {
                "name": data.draw(safe_strings),
                "price": data.draw(
                    st.floats(allow_nan=False, allow_infinity=False, width=32)
                ),
                "qty": data.draw(st.integers(-1000, 1000)),
            },
        )
        assert reparsed.matches(event) == predicate.matches(event)


#: Characters where a compiled pattern and a character loop could disagree:
#: non-decimal digits (``²``, ``①``), decimal digits of other scripts
#: (``٣``), numerics that are neither (``½``), letters that are (``五``) or
#: that case-fold oddly (Kelvin sign, long s), Unicode whitespace, and every
#: character the grammar gives a meaning to.
_TRICKY = (
    "aAdDeEfFlLnNrRsStTuUx_ 0123456789+-.<>=!&*()'\"\\"
    "²①٣½五éKſ  　\x1c\t\n"
)
tricky_text = st.text(
    alphabet=st.one_of(st.sampled_from(_TRICKY), st.characters()), max_size=40
)
#: Whole fragments, so that numbers with exponents, escapes and keywords
#: appear far more often than character by character.
fragments = st.sampled_from(
    [
        "a1", "and", "AnD", "true", "False", "andx", "1e5", "1E-3", "-.5", "+2",
        "1e", "1.2.3", "12abc", "'a\\'b'", "'\\x41'", "'\\u00e9'", "'\\x4'",
        '"q"', "'open", "&&", "==", "<=", "!", "²", "٣", "½", "é", " ", "(", ")",
    ]
)
fragment_text = st.lists(st.one_of(fragments, tricky_text), max_size=8).map("".join)


def _tokens_or_error(tokenizer, text):
    try:
        return [
            (token.type, type(token.value), token.value, token.position)
            for token in tokenizer(text)
        ]
    except ParseError as error:
        return ("ParseError", error.position)


class TestTokenizerAgainstCharacterLoop:
    """The compiled-pattern tokenizer returns the reference's tokens, or
    fails at the reference's position."""

    @given(text=tricky_text)
    @settings(max_examples=600)
    def test_arbitrary_text(self, text):
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(
            reference_tokenize, text
        )

    @given(text=fragment_text)
    @settings(max_examples=600)
    def test_token_fragments(self, text):
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(
            reference_tokenize, text
        )


class TestRobustness:
    @given(junk=st.text(max_size=40))
    @settings(max_examples=300)
    def test_parser_never_crashes(self, junk):
        """Arbitrary input either parses or raises ParseError — nothing else."""
        try:
            parse_predicate(SCHEMA, junk)
        except ParseError:
            pass

    @given(value=st.integers(min_value=0, max_value=10**12))
    def test_integer_literals_exact(self, value):
        predicate = parse_predicate(uniform_schema(1), f"a1={value}")
        test = predicate.test_for("a1")
        assert isinstance(test, EqualityTest) and test.value == value
