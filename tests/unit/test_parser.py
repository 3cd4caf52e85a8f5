"""Unit tests for the subscription expression parser.

:class:`TestTokenizer` tests the token list of the two-stage reference
parser in ``tests/token_parser.py``, which the property tests hold the
clause scanner to."""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.matching import (
    DONT_CARE,
    EqualityTest,
    Event,
    EventSchema,
    IntervalTest,
    RangeOp,
    RangeTest,
    parse_predicate,
)
from tests.token_parser import TokenType, tokenize


class TestTokenizer:
    def test_paper_example(self):
        tokens = tokenize("issue=\"IBM\" & price < 120 & volume > 1000")
        kinds = [t.type for t in tokens]
        assert kinds == [
            TokenType.NAME, TokenType.OPERATOR, TokenType.STRING, TokenType.AND,
            TokenType.NAME, TokenType.OPERATOR, TokenType.NUMBER, TokenType.AND,
            TokenType.NAME, TokenType.OPERATOR, TokenType.NUMBER, TokenType.END,
        ]

    def test_single_and_double_quotes(self):
        assert tokenize("x='a'")[2].value == "a"
        assert tokenize('x="a"')[2].value == "a"

    def test_string_escapes(self):
        assert tokenize(r"x='a\'b'")[2].value == "a'b"
        assert tokenize(r"x='a\nb'")[2].value == "a\nb"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("x='abc")

    def test_numbers(self):
        assert tokenize("x=42")[2].value == 42
        assert tokenize("x=4.5")[2].value == 4.5
        assert tokenize("x=-3")[2].value == -3
        assert tokenize("x=1e3")[2].value == 1000.0

    def test_booleans(self):
        assert tokenize("x=true")[2].value is True
        assert tokenize("x=false")[2].value is False

    def test_and_keyword_and_ampersands(self):
        for text in ("a=1 & b=2", "a=1 && b=2", "a=1 and b=2", "a=1 AND b=2"):
            kinds = [t.type for t in tokenize(text)]
            assert kinds.count(TokenType.AND) == 1

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as info:
            tokenize("a=1 | b=2")
        assert info.value.position == 4

    def test_every_token_carries_its_first_character(self):
        """Literals used to carry the index *after* themselves."""
        assert tokenize("a=1 2")[3].position == 4
        text = "a=1 2 & b='xy' -3.5e1 true"
        tokens = tokenize(text)
        assert [t.position for t in tokens] == [0, 1, 2, 4, 6, 8, 9, 10, 15, 22, 26]
        assert [text[t.position] for t in tokens[:-1]] == list("a=12&b='-t")

    def test_operators(self):
        for symbol in ("<", "<=", ">", ">=", "=", "==", "!="):
            token = tokenize(f"a{symbol}1")[1]
            assert token.type is TokenType.OPERATOR
            assert token.value == symbol


class TestParsePredicate:
    def test_paper_example(self, stock_schema):
        predicate = parse_predicate(
            stock_schema, "issue='IBM' & price<120 & volume>1000"
        )
        assert predicate.test_for("issue") == EqualityTest("IBM")
        assert predicate.test_for("price") == RangeTest(RangeOp.LT, 120)
        assert predicate.test_for("volume") == RangeTest(RangeOp.GT, 1000)

    def test_empty_and_star_are_match_all(self, stock_schema, ibm_event):
        for text in ("", "   ", "*"):
            predicate = parse_predicate(stock_schema, text)
            assert predicate.matches(ibm_event)
            assert predicate.num_dont_cares == 3

    def test_explicit_star_clause(self, stock_schema):
        predicate = parse_predicate(stock_schema, "issue=* & volume>10")
        assert predicate.test_for("issue") is DONT_CARE

    def test_star_requires_equality(self, stock_schema):
        with pytest.raises(ParseError):
            parse_predicate(stock_schema, "price<*")

    def test_double_equals(self, stock_schema):
        predicate = parse_predicate(stock_schema, "issue=='IBM'")
        assert predicate.test_for("issue") == EqualityTest("IBM")

    def test_unknown_attribute(self, stock_schema):
        with pytest.raises(ParseError, match="unknown attribute"):
            parse_predicate(stock_schema, "nope=1")

    def test_parenthesized_expression(self, stock_schema):
        predicate = parse_predicate(stock_schema, "(issue='IBM') & (price<120)")
        assert predicate.test_for("issue") == EqualityTest("IBM")

    def test_repeated_ranges_normalize(self, stock_schema):
        predicate = parse_predicate(stock_schema, "price>100 & price<120")
        test = predicate.test_for("price")
        assert isinstance(test, IntervalTest)
        assert test.evaluate(110) and not test.evaluate(120)

    def test_trailing_garbage(self, stock_schema):
        with pytest.raises(ParseError):
            parse_predicate(stock_schema, "price<120 volume>3")

    @pytest.mark.parametrize(
        "text, position",
        [("price<120 7", 10), ("price<120 'x'", 10), ("price<120 3.5 volume>3", 10)],
    )
    def test_trailing_literal_error_points_at_the_literal(
        self, stock_schema, text, position
    ):
        with pytest.raises(ParseError, match="trailing input") as info:
            parse_predicate(stock_schema, text)
        assert info.value.position == position

    def test_missing_value(self, stock_schema):
        with pytest.raises(ParseError):
            parse_predicate(stock_schema, "price<")

    def test_missing_operator(self, stock_schema):
        with pytest.raises(ParseError):
            parse_predicate(stock_schema, "price 120")

    def test_value_must_be_literal(self, stock_schema):
        with pytest.raises(ParseError):
            parse_predicate(stock_schema, "price<volume")

    def test_unbalanced_paren(self, stock_schema):
        with pytest.raises(ParseError):
            parse_predicate(stock_schema, "(price<120")

    @pytest.mark.parametrize(
        "text, position",
        [
            ("price = 'x'", 8),
            ("price < 'x'", 8),
            ("issue < 5", 8),
            ("volume = 2.5", 9),
            ("volume > 1 & volume = 2.5", 22),
            ("volume=true", 7),
            ("volume<true", 7),
            ("price='x' & nope=1", 6),
            ("nope=1 & price='x'", 0),
            ("price='x' & ) volume=1", 6),
        ],
    )
    def test_mistyped_literal_points_at_the_literal(self, stock_schema, text, position):
        """Regression: a literal the attribute's type refuses escaped as a
        SchemaError, or made a range test that never matched.  The error is
        the leftmost one, whether the type or the syntax is at fault."""
        with pytest.raises(ParseError) as info:
            parse_predicate(stock_schema, text)
        assert info.value.position == position

    @pytest.mark.parametrize(
        "text, position, message",
        [
            ("price<1) & (price>0", 7, "unmatched"),
            ("(price<1)) & (volume>0", 9, "unmatched"),
            ("((price<1) & volume>0", 21, "to close 1"),
            ("  price<120 7", 12, "trailing input"),
            ("price<120 &", 11, "attribute name"),
            ("price<120 & )", 12, "attribute name"),
            ("price 120", 6, "operator"),
            ("price='IBM", 6, "unterminated"),
            ("price=1.2.3", 6, "malformed number"),
        ],
    )
    def test_rejected_text_points_at_the_offence(self, stock_schema, text, position, message):
        with pytest.raises(ParseError, match=message) as info:
            parse_predicate(stock_schema, text)
        assert info.value.position == position

    def test_keywords_are_not_names(self):
        schema = EventSchema([("And", "integer"), ("true", "integer"), ("andx", "integer")])
        for text in ("And=1", "true=1", "andx=1 & true=2"):
            with pytest.raises(ParseError):
                parse_predicate(schema, text)
        assert parse_predicate(schema, "andx=1 and(andx<3)").test_for("andx") == EqualityTest(1)

    def test_semantics_match_python(self, stock_schema):
        predicate = parse_predicate(stock_schema, "price>=100 & price<=120 & issue!='X'")
        good = Event(stock_schema, {"issue": "IBM", "price": 100.0, "volume": 1})
        bad_price = Event(stock_schema, {"issue": "IBM", "price": 99.0, "volume": 1})
        bad_issue = Event(stock_schema, {"issue": "X", "price": 110.0, "volume": 1})
        assert predicate.matches(good)
        assert not predicate.matches(bad_price)
        assert not predicate.matches(bad_issue)

    def test_integer_schema_values(self, schema5):
        predicate = parse_predicate(schema5, "a1=1 & a2=2 & a3=3 & a5=3")
        assert predicate.matches(Event.from_tuple(schema5, (1, 2, 3, 99, 3)))
        assert not predicate.matches(Event.from_tuple(schema5, (1, 2, 3, 99, 4)))
