"""Property-based tests of the subscription expression parser."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import ParseError, PredicateError
from repro.matching import (
    EqualityTest,
    Event,
    Predicate,
    RangeOp,
    RangeTest,
    parse_predicate,
    uniform_schema,
)
from repro.matching.schema import EventSchema
from tests.char_tokenizer import tokenize as character_loop_tokenize
from tests.token_parser import parse_predicate as reference_parse
from tests.token_parser import tokenize


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
    """The reference parser's compiled-pattern tokenizer returns the
    character loop's tokens, or fails at the character loop's position."""

    @given(text=tricky_text)
    @settings(max_examples=600)
    def test_arbitrary_text(self, text):
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(
            character_loop_tokenize, text
        )

    @given(text=fragment_text)
    @settings(max_examples=600)
    def test_token_fragments(self, text):
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(
            character_loop_tokenize, text
        )


#: Names the fragments below spell, one per attribute type, and a keyword
#: (keywords are not names, whatever the schema says).
SCANNED = EventSchema(
    [
        ("a1", "integer"),
        ("x", "float"),
        ("d", "dollar"),
        ("s", "string"),
        ("f", "boolean"),
        ("false", "integer"),
    ]
)
_NAMES = ("a1", "x", "d", "s", "f", "false", "nope")
_OPS = ("=", "==", "!=", "<", "<=", ">", ">=")
#: Literals of every kind and type, so that some clauses mistype theirs.
_LITERALS = (
    "0", "7", "-3", "+2", "٣", "1.5", "-.5", "1e3", "2E-2", "1e", "1.2.3", "'q'",
    "'a\\'b'", "'\\x41'", "'\\x4'", '"dq"', "true", "FALSE", "*", "nope",
)
_TYPED = {
    "a1": ("0", "7", "-3", "+2", "٣"),
    "x": ("0", "-3", "1.5", "-.5", "1e3", "2E-2"),
    "d": ("7", "1.5", "1e3"),
    "s": ("'q'", "'a\\'b'", "'\\x41'", '"dq"'),
    "f": ("true", "FALSE"),
}
_GAPS = st.sampled_from(["", " ", "  ", "\t", "\n", "　"])
_CONJUNCTIONS = st.sampled_from(["&", "&&", "and", "AND", "And", "&&&", "andx"])


@st.composite
def comparisons(draw):
    """``name op literal``, the literal mostly one of the name's type."""
    name = draw(st.sampled_from(_NAMES))
    literals = _TYPED.get(name, _LITERALS)
    if draw(st.integers(0, 4)) == 0:
        literals = _LITERALS
    op = draw(st.sampled_from(_OPS))
    return name + draw(_GAPS) + op + draw(_GAPS) + draw(st.sampled_from(literals + ("*",)))


@st.composite
def parenthesized(draw):
    """Comparisons joined by conjunctions, each with 0–2 ``(`` before it and
    0–2 ``)`` after it: balanced, unbalanced, and a ``)`` before its ``(``."""
    gap = draw(_GAPS)
    pieces = []
    for index in range(draw(st.integers(1, 4))):
        if index:
            pieces.append(draw(_CONJUNCTIONS))
        pieces.append("(" * draw(st.integers(0, 2)))
        pieces.append(draw(comparisons()))
        pieces.append(")" * draw(st.integers(0, 2)))
    return draw(_GAPS) + gap.join(pieces) + draw(_GAPS)


#: Balanced expressions: the grammar's own nesting, drawn as a tree.
nested = st.recursive(
    comparisons(),
    lambda inner: st.one_of(
        st.tuples(_GAPS, inner, _GAPS).map(lambda parts: "(" + "".join(parts) + ")"),
        st.tuples(inner, _GAPS, st.sampled_from(["&", "&&", "and", "AND"]), _GAPS, inner).map(
            lambda parts: parts[0] + (parts[1] or " ") + parts[2] + (parts[3] or " ") + parts[4]
        ),
    ),
    max_leaves=6,
)


def _scanned(schema, text):
    """The scanner's predicate, or ``"rejected"`` after a :class:`ParseError`
    (the only error it may raise) at a position inside the text."""
    try:
        return parse_predicate(schema, text)
    except ParseError as error:
        assert 0 <= error.position <= len(text), (text, error.position)
        return "rejected"


def _referenced(schema, text):
    try:
        return reference_parse(schema, text)
    except PredicateError:
        return "rejected"


class TestScannerAgainstReference:
    """The clause scanner accepts exactly the texts the tokenize-and-descend
    reference accepts, with equal predicates, and rejects the rest with a
    :class:`ParseError` inside the text."""

    @given(text=tricky_text)
    @settings(max_examples=400)
    def test_arbitrary_text(self, text):
        assert _scanned(SCANNED, text) == _referenced(SCANNED, text)

    @given(text=fragment_text)
    @settings(max_examples=400)
    def test_token_fragments(self, text):
        assert _scanned(SCANNED, text) == _referenced(SCANNED, text)

    @given(text=parenthesized())
    @settings(max_examples=1000)
    def test_parenthesized_shapes(self, text):
        assert _scanned(SCANNED, text) == _referenced(SCANNED, text)

    @given(text=nested)
    @settings(max_examples=600)
    def test_nested_expressions(self, text):
        assert _scanned(SCANNED, text) == _referenced(SCANNED, text)

    @given(text=st.lists(st.one_of(nested, fragments), max_size=3).map("".join))
    @settings(max_examples=400)
    def test_shapes_run_into_fragments(self, text):
        assert _scanned(SCANNED, text) == _referenced(SCANNED, text)

    @given(predicate=predicates())
    @settings(max_examples=200)
    def test_describe_round_trips(self, predicate):
        text = predicate.describe()
        assert _scanned(SCHEMA, text) == _referenced(SCHEMA, text) == predicate

    def test_a_close_before_its_open_is_rejected(self):
        """Depth 0 at the end is not enough: it may not go negative."""
        for text in ("a1=1) & (a1=2", "(a1=1)) & ((x<2)", "a1=1 ) and ( x=2"):
            assert _referenced(SCANNED, text) == "rejected"
            assert _scanned(SCANNED, text) == "rejected"


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
