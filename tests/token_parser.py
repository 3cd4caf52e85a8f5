"""A two-stage parser, the reference that the clause scanner
:func:`repro.matching.parser.parse_predicate` is checked against.

:func:`tokenize` splits the text with one master pattern, and
:class:`_Parser` descends the grammar recursively over the token list.  The
character loop in ``tests/char_tokenizer.py`` is in turn the reference for
:func:`tokenize`.  :func:`parse_predicate` here hands the tests by attribute
name to :class:`~repro.matching.predicates.Predicate`, whose checks the
scanner shares, so a literal the attribute's type refuses is rejected by
both (here as a :class:`~repro.errors.PredicateError`).
"""

from __future__ import annotations

import enum
import re
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

from repro.errors import ParseError
from repro.matching.parser import _read_string
from repro.matching.predicates import (
    DONT_CARE,
    AttributeTest,
    EqualityTest,
    Predicate,
    RangeOp,
    RangeTest,
)
from repro.matching.schema import EventSchema


class TokenType(enum.Enum):
    NAME = "name"
    STRING = "string"
    NUMBER = "number"
    OPERATOR = "operator"
    AND = "and"
    STAR = "star"
    LPAREN = "("
    RPAREN = ")"
    END = "end"


class Token(NamedTuple):
    type: TokenType
    value: Union[str, int, float, bool]
    position: int


#: Each ``TokenType.X`` through the class is a descriptor call; the
#: tokenizer and the parser read these aliases (declaration order).
_NAME, _STRING, _NUMBER, _OPERATOR, _AND, _STAR, _LPAREN, _RPAREN, _END = TokenType


#: One alternative per token class, tried in this order at each position.
#: ``\s``, ``\w`` and ``\d`` are exactly ``str.isspace``, ``isalnum``-or-``_``
#: and ``isdecimal``, so Unicode text splits where the grammar says it does.
#: Whitespace matches nothing, so ``finditer`` skips it; every other
#: character starts some match, ``error`` at worst.
_TOKEN_PATTERN = re.compile(
    r"""
      (?P<keyword>(?:[Aa][Nn][Dd]|[Tt][Rr][Uu][Ee]|[Ff][Aa][Ll][Ss][Ee])(?!\w))
    | (?P<name>[A-Za-z_]\w*)
    | (?P<operator><=|>=|!=|==|[<>=])
    | (?P<integer>[-+]?\d+(?![\d.eE]))
    | (?P<and>&&?)
    | (?P<float>(?:\d|[-+.](?=[\d.]))(?:[\d.eE]|(?<=[eE])[-+])*)
    | (?P<string>'[^'\\]*(?:\\.[^'\\]*)*'|"[^"\\]*(?:\\.[^"\\]*)*")
    | (?P<star>\*)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<word>[^\W\d]\w*)
    | (?P<error>\S)
    """,
    re.VERBOSE | re.DOTALL,
)
#: Groups whose lexeme is the token's value.
_VERBATIM = dict(name=_NAME, operator=_OPERATOR, star=_STAR, lparen=_LPAREN, rparen=_RPAREN)
#: Builds a Token from a ``(type, value, position)`` tuple without going
#: through the NamedTuple's Python-level ``__new__``.
_new_tuple = tuple.__new__


def tokenize(text: str) -> List[Token]:
    """Split ``text`` into tokens, raising :class:`ParseError` on bad input.

    Every token carries the index of its first character."""
    tokens: List[Token] = []
    append = tokens.append
    for match in _TOKEN_PATTERN.finditer(text):
        kind = match.lastgroup
        value = match[0]
        start = match.start()
        token_type = _VERBATIM.get(kind)
        if token_type is None:
            token_type, value = _literal(kind, value, text, start, tokens)
        append(_new_tuple(Token, (token_type, value, start)))
    append(_new_tuple(Token, (_END, "", len(text))))
    return tokens


def _literal(kind: str, lexeme: str, text: str, start: int, tokens: List[Token]) -> Tuple:
    """Type and value of a token whose value is not its lexeme; raises the
    :class:`ParseError` for a lexeme that begins no token."""
    if kind == "integer" or kind == "float":
        try:
            return _NUMBER, int(lexeme) if kind == "integer" else float(lexeme)
        except ValueError:
            raise ParseError(f"malformed number {lexeme!r}", position=start) from None
    if kind == "and":
        return _AND, "&"
    if kind == "keyword":
        lowered = lexeme.lower()
        return (_AND, lexeme) if lowered == "and" else (_NUMBER, lowered == "true")
    if kind == "string":
        return _STRING, _read_string(text, start)[0] if "\\" in lexeme else lexeme[1:-1]
    if kind == "word" and lexeme[0].isalpha():
        return _NAME, lexeme
    if lexeme in ("'", '"'):
        _read_string(text, start)  # unterminated: raises
    if lexeme[0].isdigit():
        # A digit that is not decimal (``²``) reads as a number literal that
        # no conversion accepts: the literal just before it when that one
        # runs on into it, else its own.
        if (
            tokens
            and tokens[-1].type is _NUMBER
            and _TOKEN_PATTERN.match(text, tokens[-1].position).end() == start
        ):
            start = tokens[-1].position
        raise ParseError(f"malformed number at {start}", position=start)
    raise ParseError(f"unexpected character {lexeme[0]!r}", position=start)


class _Parser:
    """Recursive-descent parser producing the tests per attribute: a lone
    test as itself (it is its own normal form), repeated ones as a list for
    :func:`~repro.matching.predicates.normalize_tests`."""

    __slots__ = ("_tokens", "_schema", "_position", "clauses")

    def __init__(self, tokens: Sequence[Token], schema: EventSchema) -> None:
        self._tokens = tokens
        self._schema = schema
        self._position = 0
        self.clauses: Dict[str, Union[AttributeTest, List[AttributeTest]]] = {}

    def _peek(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        self._position += 1
        return token

    def _expect(self, type: TokenType) -> Token:
        token = self._advance()
        if token.type is not type:
            raise ParseError(
                f"expected {type.value}, found {token.value!r}", position=token.position
            )
        return token

    def parse(self) -> Dict[str, Union[AttributeTest, List[AttributeTest]]]:
        self._expression()
        end = self._peek()
        if end.type is not _END:
            raise ParseError(f"trailing input at {end.value!r}", position=end.position)
        return self.clauses

    def _add(self, name: str, test: AttributeTest) -> None:
        tests = self.clauses.setdefault(name, test)
        if isinstance(tests, list):
            tests.append(test)
        elif tests is not test:
            self.clauses[name] = [tests, test]

    def _expression(self) -> None:
        self._clause()
        while self._peek().type is _AND:
            self._advance()
            self._clause()

    def _clause(self) -> None:
        token = self._peek()
        if token.type is _LPAREN:
            self._advance()
            self._expression()
            self._expect(_RPAREN)
            return
        name_token = self._expect(_NAME)
        name = name_token.value
        if name not in self._schema:
            raise ParseError(f"unknown attribute {name!r}", position=name_token.position)
        op_token = self._expect(_OPERATOR)
        symbol = op_token.value
        value_token = self._advance()
        if value_token.type is _STAR:
            if symbol not in ("=", "=="):
                raise ParseError("'*' is only valid with '='", position=value_token.position)
            self._add(name, DONT_CARE)
            return
        if value_token.type not in (_STRING, _NUMBER):
            raise ParseError(
                f"expected a literal, found {value_token.value!r}", position=value_token.position
            )
        value = value_token.value
        if symbol in ("=", "=="):
            self._add(name, EqualityTest(value))
        else:
            self._add(name, RangeTest(RangeOp.from_symbol(symbol), value))


def parse_predicate(schema: EventSchema, text: str) -> Predicate:
    """Parse ``text`` into a :class:`Predicate` over ``schema``."""
    stripped = text.strip()
    if not stripped or stripped == "*":
        return Predicate(schema, {})
    clauses = _Parser(tokenize(stripped), schema).parse()
    return Predicate(schema, clauses)
