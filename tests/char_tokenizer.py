"""The character-loop tokenizer: the reference that the compiled-pattern
:func:`tests.token_parser.tokenize` is checked against, the tokenizer of
the two-stage parser that is in turn the reference for the clause scanner
:func:`repro.matching.parser.parse_predicate`.  One character at a time,
every token carrying the index of its first character."""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.errors import ParseError
from repro.matching.parser import _read_string
from tests.token_parser import Token, TokenType

_OPERATORS = ("<=", ">=", "!=", "==", "<", ">", "=")


def tokenize(text: str) -> List[Token]:
    """Split ``text`` into tokens, raising :class:`ParseError` on bad input."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "&":
            # accept both '&' and '&&'
            j = i + 2 if text[i : i + 2] == "&&" else i + 1
            tokens.append(Token(TokenType.AND, "&", i))
            i = j
            continue
        if ch == "*":
            tokens.append(Token(TokenType.STAR, "*", i))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token(TokenType.LPAREN, "(", i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token(TokenType.RPAREN, ")", i))
            i += 1
            continue
        matched_op = next((op for op in _OPERATORS if text.startswith(op, i)), None)
        if matched_op is not None:
            tokens.append(Token(TokenType.OPERATOR, matched_op, i))
            i += len(matched_op)
            continue
        if ch in "'\"":
            start = i
            value, i = _read_string(text, i)
            tokens.append(Token(TokenType.STRING, value, start))
            continue
        if ch.isdigit() or (
            ch in "+-." and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")
        ):
            start = i
            value, i = _read_number(text, i)
            tokens.append(Token(TokenType.NUMBER, value, start))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            lowered = word.lower()
            if lowered == "and":
                tokens.append(Token(TokenType.AND, word, i))
            elif lowered in ("true", "false"):
                tokens.append(Token(TokenType.NUMBER, lowered == "true", i))
            else:
                tokens.append(Token(TokenType.NAME, word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", position=i)
    tokens.append(Token(TokenType.END, "", n))
    return tokens


def _read_number(text: str, start: int) -> Tuple[Union[int, float], int]:
    i = start
    if text[i] in "+-":
        i += 1
    begin_digits = i
    is_float = False
    while i < len(text) and (text[i].isdigit() or text[i] in ".eE+-"):
        if text[i] in "+-" and text[i - 1] not in "eE":
            break
        if text[i] in ".eE":
            is_float = True
        i += 1
    literal = text[start:i]
    if i == begin_digits:
        raise ParseError(f"malformed number at {start}", position=start)
    try:
        return (float(literal) if is_float else int(literal)), i
    except ValueError:
        raise ParseError(f"malformed number {literal!r}", position=start) from None
