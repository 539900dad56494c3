"""Parser for the compact polynomial syntax used in configs and on the CLI.

Grammar (precedence climbing, lowest first):

    expr   := unary (('+' | '-') unary)*
    unary  := ('-' | '+') unary | factor
    factor := power ('*' power)*
    power  := atom ('^' INT)?
    atom   := INT ('/' INT)? | 'x' | '(' expr ')'

'/' is not a general operator: it only forms rational literals, so '7/2*x'
means (7/2)*x and 'x/2' is rejected.  Exponents must be literal nonnegative
integers, and a power is refused before it is built when the exponent times
its base's degree (a constant counting as degree 1) exceeds MAX_DEGREE, so
'x^100000000' is a ParseError rather than 10^8 coefficients; so is a product
whose factors' degrees add up past MAX_DEGREE, such as 'x^600*x^600'.  A sum
cannot raise the degree, so no polynomial built exceeds it.  The output of
poly.render is accepted and round-trips up to that degree.  Parentheses and
unary signs recurse, so nesting them more than MAX_DEPTH levels deep is a
ParseError rather than a RecursionError, and an integer literal longer than
the interpreter's digit limit (sys.set_int_max_str_digits) is a ParseError
at its position.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Poly


class ParseError(ValueError):
    """Syntax error with the offset and what was expected there."""

    def __init__(self, message: str, position: int, expected=None):
        self.position = position
        self.expected = tuple(expected) if expected else ()
        detail = f"{message} at position {position}"
        if self.expected:
            detail += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(detail)


_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([x+\-*/^()]))")

_END = ("end", "", -1)

MAX_DEPTH = 100  # six stack frames a level: 600 stay below the default limit of 1000
MAX_DEGREE = 1000  # largest degree a power or a product may build


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # only whitespace could remain unmatched before a bad char
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if bad >= len(text):
                break
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        else:
            tokens.append(("op", m.group(2), m.start(2)))
        pos = m.end()
    tokens.append(_END)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message, expected=None):
        kind, value, pos = self.peek()
        if kind == "end":
            pos = len(self.text)
        raise ParseError(message, pos, expected)

    def literal(self, value: str, pos: int) -> int:
        try:
            return int(value)
        except ValueError:  # longer than the interpreter's digit limit
            raise ParseError(f"integer literal of {len(value)} digits exceeds the "
                             "interpreter's digit limit", pos) from None

    def nested(self, parse, pos: int) -> Poly:
        """parse() one level deeper, for the opener at pos."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", pos)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def parse(self) -> Poly:
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            self.error(f"trailing input {value!r}", expected=("operator", "end of input"))
        return result

    def expr(self) -> Poly:
        left = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right = self.unary()
                left = left + right if value == "+" else left - right
            else:
                return left

    def unary(self) -> Poly:
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.nested(self.unary, pos)
            return inner if value == "+" else -inner
        return self.factor()

    def factor(self) -> Poly:
        left = self.power()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                right = self.power()
                if left.degree + right.degree > MAX_DEGREE:
                    raise ParseError(f"product too large: degrees {left.degree} and "
                                     f"{right.degree} add up past {MAX_DEGREE}", pos)
                left = left * right
            else:
                return left

    def power(self) -> Poly:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                self.error("exponent must be a nonnegative integer literal",
                           expected=("integer",))
            self.advance()
            n, degree = self.literal(value, pos), max(base.degree, 1)
            if n * degree > MAX_DEGREE:
                raise ParseError(f"power too large: exponent {n} times base degree "
                                 f"{degree} exceeds {MAX_DEGREE}", pos)
            return base ** n
        return base

    def atom(self) -> Poly:
        kind, value, pos = self.peek()
        if kind == "int":
            self.advance()
            num = self.literal(value, pos)
            kind, value, _ = self.peek()
            if kind == "op" and value == "/":
                self.advance()
                kind, value, pos = self.peek()
                if kind != "int":
                    self.error("denominator must be an integer literal",
                               expected=("integer",))
                self.advance()
                den = self.literal(value, pos)
                if den == 0:
                    self.error("zero denominator")
                return Poly.const(Fraction(num, den))
            return Poly.const(num)
        if kind == "op" and value == "x":
            self.advance()
            return Poly.x()
        if kind == "op" and value == "(":
            self.advance()
            inner = self.nested(self.expr, pos)
            kind, value, _ = self.peek()
            if not (kind == "op" and value == ")"):
                self.error("unclosed parenthesis", expected=(")",))
            self.advance()
            return inner
        self.error("expected a term", expected=("integer", "'x'", "'('"))


def parse_poly(text: str) -> Poly:
    """Parse the compact syntax into a Poly; raises ParseError on bad input."""
    if not text or not text.strip():
        raise ParseError("empty input", 0, expected=("integer", "'x'", "'('"))
    return _Parser(text).parse()
