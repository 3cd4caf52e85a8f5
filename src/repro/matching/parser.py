"""Parser for the subscription expression language.

The paper writes subscriptions as conjunctions of attribute comparisons::

    issue='IBM' & price < 120 & volume > 1000

Grammar (conjunctive only, matching the paper's predicate model)::

    expression := clause ( ('&' | '&&' | 'and') clause )*
    clause     := NAME op literal | NAME '=' '*' | '(' expression ')'
    op         := '=' | '==' | '!=' | '<' | '<=' | '>' | '>='
    literal    := STRING | NUMBER | 'true' | 'false'

Strings may be single- or double-quoted with backslash escapes.  Numbers with
a ``.`` or exponent parse as floats, others as integers.  ``attr = *`` is an
explicit don't-care (equivalent to omitting the attribute).  Keywords are
matched in any case and are not names.

Conjunction is associative, so an expression is a run of comparisons joined
by ``&``, each with any number of ``(`` before it and ``)`` after it, whose
parenthesis depth never goes negative and ends at zero.  The scanner reads
exactly that: one match of :data:`_CLAUSE` per comparison, each test written
straight into its schema position.

The entry point is :func:`parse_predicate`, which validates names and types
against an :class:`~repro.matching.schema.EventSchema` and returns a
:class:`~repro.matching.predicates.Predicate`.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ParseError, PredicateError
from repro.matching.predicates import (
    DONT_CARE,
    AttributeTest,
    EqualityTest,
    Predicate,
    RangeOp,
    RangeTest,
)
from repro.matching.schema import EventSchema

#: One comparison with its parentheses and the conjunction after it.  Each
#: part after the opening parentheses is optional, written ``(?: X | )``, so
#: the match always succeeds and the first group left out (``None``) says
#: what is missing; ``?`` or ``*`` over a group would take the regex engine's
#: slow repeat, so parenthesis runs are character classes that take the
#: whitespace between them.  ``\s``, ``\w`` and ``\d`` are exactly
#: ``str.isspace``, ``isalnum``-or-``_`` and ``isdecimal``, and ``int`` and
#: ``float`` accept every decimal digit ``\d`` does.
_CLAUSE = re.compile(
    r"""
    \s* (?P<open> \([\s(]* | )
    (?: (?P<name> (?!(?:[Aa][Nn][Dd]|[Tt][Rr][Uu][Ee]|[Ff][Aa][Ll][Ss][Ee])(?!\w)) [A-Za-z_]\w* ) \s*
        (?: (?P<op> <=|>=|!=|==|[<>=] ) \s*
            (?: (?: (?P<integer> [-+]?\d+(?![\d.eE]) )
                  | (?P<float> (?:\d|[-+.](?=[\d.]))(?:[\d.eE]|(?<=[eE])[-+])* )
                  | (?P<string> '[^'\\]*(?:\\.[^'\\]*)*' | "[^"\\]*(?:\\.[^"\\]*)*" )
                  | (?P<boolean> (?:[Tt][Rr][Uu][Ee]|[Ff][Aa][Ll][Ss][Ee])(?!\w) )
                  | (?P<star> \* ) )
                \s* (?P<close> \)[\s)]* | ) (?P<conjunction> &&? | [Aa][Nn][Dd](?!\w) | )
            | )
        | )
    | )
    """,
    re.VERBOSE | re.DOTALL,
)
_match_clause = _CLAUSE.match
_LITERALS = ("integer", "float", "string", "boolean", "star")
#: ``=`` and ``==`` are absent: they make equality tests.
_RANGE_OPS = {op.value: op for op in RangeOp}

_Placed = Dict[int, Union[AttributeTest, List[AttributeTest]]]


def parse_predicate(schema: EventSchema, text: str) -> Predicate:
    """Parse ``text`` into a :class:`Predicate` over ``schema``.

    A rejected text raises :class:`ParseError` at its leftmost offending
    character, a literal the attribute's type refuses included.

    >>> schema = stock_trade_schema()
    >>> p = parse_predicate(schema, "issue='IBM' & price<120 & volume>1000")
    >>> p.describe()
    "issue='IBM' & price<120 & volume>1000"
    """
    stripped = text.strip()
    if not stripped or stripped == "*":
        return Predicate.at_positions(schema, {})
    try:
        return Predicate.at_positions(schema, _scan(schema, text, False))
    except PredicateError:
        pass
    # Rejected: scan again, placing the tests after every clause, so that
    # the error names the leftmost offending character.
    _scan(schema, text, True)
    raise AssertionError(f"{text!r} was rejected, then scanned clean")


def _scan(schema: EventSchema, text: str, place_each: bool) -> _Placed:
    """The tests of ``text`` by schema position: a lone test as itself (it is
    its own normal form), repeated ones as a list for
    :func:`~repro.matching.predicates.normalize_tests`.  With ``place_each``
    the tests read so far are placed after every clause, so that a literal
    the attribute's type refuses raises here, at the literal."""
    positions = schema.positions
    placed: _Placed = {}
    depth = 0
    start = 0
    while True:
        clause = _match_clause(text, start)
        opens, name, symbol, integer, floating, string, boolean, star, closes, conjunction = (
            clause.groups()
        )
        if opens:
            depth += opens.count("(")
        slot = positions.get(name)
        if slot is None:
            if name is None:
                raise _expected("an attribute name", text, clause.end())
            raise ParseError(f"unknown attribute {name!r}", position=clause.start("name"))
        op = _RANGE_OPS.get(symbol)
        try:
            if integer is not None:
                value = int(integer)
            elif string is not None:
                if "\\" in string:
                    value = _read_string(text, clause.start("string"))[0]
                else:
                    value = string[1:-1]
            elif floating is not None:
                value = float(floating)
            elif boolean is not None:
                value = boolean[0] in "Tt"
            elif star is None:
                raise _no_literal(text, clause.end(), symbol)
        except ValueError:  # past int's digit limit, or not a float
            raise ParseError(
                f"malformed number {(integer or floating)[:20]!r}", position=_literal_start(clause)
            ) from None
        if op is None:
            test = EqualityTest(value) if star is None else DONT_CARE
        elif star is None and boolean is None:
            test = RangeTest(op, value)
        else:
            what = "'*' is only valid with '='" if boolean is None else "booleans have no order"
            raise ParseError(what, position=_literal_start(clause))
        tests = placed.setdefault(slot, test)
        if tests is not test:
            if type(tests) is list:
                tests.append(test)
            else:
                placed[slot] = [tests, test]
        if place_each:
            try:
                Predicate.at_positions(schema, placed)
            except PredicateError as error:
                raise ParseError(str(error), position=_literal_start(clause)) from None
        if closes:
            count = closes.count(")")
            if count > depth:  # the (depth + 1)-th ')' closes nothing
                unmatched = [i for i, character in enumerate(closes) if character == ")"][depth]
                raise ParseError("unmatched ')'", position=clause.start("close") + unmatched)
            depth -= count
        start = clause.end()
        if not conjunction:
            break
    if start != len(text):
        raise ParseError(f"trailing input at {_found(text, start)}", position=start)
    if depth:
        raise _expected(f"')' to close {depth} '('", text, start)
    return placed


def _found(text: str, start: int) -> str:
    """What an error message names at ``start``."""
    rest = text[start:].split(None, 1)
    return repr(rest[0][:20]) if rest else "the end of the text"


def _expected(what: str, text: str, start: int) -> ParseError:
    return ParseError(f"expected {what}, found {_found(text, start)}", position=start)


def _no_literal(text: str, start: int, symbol: Optional[str]) -> ParseError:
    """The error for a clause that stops at ``start``, before its literal."""
    if symbol is None:
        return _expected("an operator", text, start)
    if text[start : start + 1] in ("'", '"'):
        _read_string(text, start)  # unterminated: raises
    return _expected("a literal", text, start)


def _literal_start(clause: re.Match) -> int:
    return next(clause.start(group) for group in _LITERALS if clause[group] is not None)


_HEX_ESCAPES = {"x": 2, "u": 4, "U": 8}


def _read_string(text: str, start: int) -> Tuple[str, int]:
    """Read a quoted string with Python-style escapes (so ``repr`` output —
    what :meth:`Predicate.describe` emits for string values — parses back)."""
    quote = text[start]
    i = start + 1
    out: List[str] = []
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise ParseError("dangling escape in string literal", position=i)
            escape = text[i + 1]
            if escape in _HEX_ESCAPES:
                digits = _HEX_ESCAPES[escape]
                hex_text = text[i + 2 : i + 2 + digits]
                if len(hex_text) < digits:
                    raise ParseError("truncated hex escape", position=i)
                try:
                    out.append(chr(int(hex_text, 16)))
                except (ValueError, OverflowError):
                    raise ParseError(f"bad hex escape \\{escape}{hex_text}", position=i) from None
                i += 2 + digits
                continue
            out.append(
                {"n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\", quote: quote}.get(
                    escape, escape
                )
            )
            i += 2
            continue
        if ch == quote:
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise ParseError("unterminated string literal", position=start)
