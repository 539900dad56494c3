"""Dense univariate polynomials and Laurent polynomials over exact rationals.

Every coefficient is a ``fractions.Fraction``; nothing in this package ever
touches floating point except the degree sentinel of the zero polynomial.
Polynomials are immutable value objects: ascending coefficient tuples with
trailing zeros stripped, so structural equality is mathematical equality.

The canonical text rendering (``render`` / ``Poly.__str__``) is the exchange
format used by the CLI and the config files: ``-12*x^5+144*x^4-628*x^3+...``,
no spaces, descending powers, ``^`` for exponentiation.  ``parsing.parse_poly``
is the inverse.

``record`` is the class decorator behind every result type in the package
(``FamilySpec``, ``LinearSolution``, ``RecurrenceTable``, the CLI's
``Table``, ...).  It reads the field names from the class annotations, in
order, and adds an ``__init__`` that takes them positionally or by keyword
(a class-level value is the default) and then calls ``__post_init__`` if
the class has one, a ``__repr__`` in the ``Name(field=value, ...)`` form,
and an ``__eq__`` between instances of the same class.  A field whose name
starts with ``_`` is left out of the repr, the comparison and the hash.
With ``frozen=True`` assignment raises ``AttributeError`` and instances
hash by their fields, a ``dict`` field by its items in any order, so the
hash agrees with ``==``; otherwise they are unhashable.  It builds no code at
run time and imports nothing, so a casolag process loads little of the
standard library beyond ``json``, ``fractions``, ``math``, ``functools``
and ``re``.  The standard library's ``asdict``, ``replace`` and
``fields`` helpers do not apply to these classes.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from fractions import Fraction

RatLike = Fraction | int | str

# degree of the zero polynomial; compares below every integer
NEG_INF = float("-inf")


def record(cls=None, *, frozen: bool = False):
    """Class decorator: a record over the annotated fields (module docstring)."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    name = cls.__name__
    names = tuple(cls.__annotations__)
    public = tuple(n for n in names if not n.startswith("_"))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        if len(values) < len(names):
            missing = [n for n in names if n not in values and n not in defaults]
            if missing:
                raise TypeError(f"{name}() missing {len(missing)} required argument(s): "
                                + ", ".join(map(repr, missing)))
            values = {n: values[n] if n in values else defaults[n] for n in names}
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    def _fields(self) -> tuple:
        return tuple(getattr(self, n) for n in public)

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{n}={getattr(self, n)!r}" for n in public) + ")")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields(self) == _fields(other)

    cls.__init__ = __init__
    cls.__repr__ = __repr__
    cls.__eq__ = __eq__
    cls.__hash__ = None
    if frozen:
        def __setattr__(self, key, value):
            raise AttributeError(f"cannot assign to field {key!r} of frozen {name}")

        def __delattr__(self, key):
            raise AttributeError(f"cannot delete field {key!r} of frozen {name}")

        cls.__setattr__ = __setattr__
        cls.__delattr__ = __delattr__
        cls.__hash__ = lambda self: hash(tuple(
            frozenset(v.items()) if isinstance(v, dict) else v for v in _fields(self)))
    return cls


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def as_rat(v: RatLike) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to Fraction.  Refuses floats and
    bools, and strings other than -?p(/q)? (no decimals, exponents, spaces)."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str):
        if not _RATIONAL.fullmatch(v):
            raise ValueError(f'not a "p/q" rational: {v!r}')
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r}") from None
    raise TypeError(f"not an exact rational: {v!r}")


def rat_str(v: Fraction) -> str:
    """Serialize a Fraction as 'p' or 'p/q' (lowest terms, q > 0)."""
    v = as_rat(v)
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


class Poly:
    """Immutable dense polynomial, coefficients ascending by power."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def const(c: RatLike) -> "Poly":
        return Poly((as_rat(c),))

    @staticmethod
    def monomial(k: int, c: RatLike = 1) -> "Poly":
        if k < 0:
            raise ValueError("monomial power must be >= 0")
        return Poly((0,) * k + (as_rat(c),))

    # -- structure ----------------------------------------------------

    @property
    def degree(self):
        """Degree as int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x^k (zero beyond the stored range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @property
    def lead(self) -> Fraction:
        """Leading coefficient; zero for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def valuation(self):
        """Smallest power with nonzero coefficient, or None if zero."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = as_rat(other)
            return Poly(tuple(c * a for a in self.coeffs))
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        # the product of the cleared integer lists, one Fraction per coefficient
        (la, a), (lb, b) = clear_denominators(self.coeffs), clear_denominators(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        den = la * lb
        return Poly(Fraction(c, den) for c in out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # a square past the top bit would go unused
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        # kept once taken: a spec is hashed at every read of its memoized ladder
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(("Poly", self.coeffs)))
            return self._hash

    # -- evaluation ----------------------------------------------------

    def __call__(self, arg):
        """Evaluate at a rational (Horner)."""
        x = as_rat(arg)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift_down(self, k: int) -> "Poly":
        """Divide exactly by x^k; the low k coefficients must vanish."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        if any(c != 0 for c in self.coeffs[:k]):
            raise ValueError(f"not divisible by x^{k}")
        return Poly(self.coeffs[k:])

    # -- text ----------------------------------------------------------

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"Poly({render(self)})"


def _coerce_poly(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.const(v)
    return NotImplemented


def render(p: Poly) -> str:
    """Canonical compact rendering, descending powers, no spaces.

    Round-trips through parsing.parse_poly.  Rational coefficients keep the
    'p/q' shape, so e.g. 7/2*x^2 parses back to the same polynomial because
    '/' binds tighter than '*' for bare numbers.
    """
    return _render_terms(reversed(list(enumerate(p.coeffs))))


def _render_terms(terms) -> str:
    """Render (power, coeff) pairs in the given (descending) order, zeros
    skipped; "0" when nothing is left."""
    parts = []
    for k, c in terms:
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = rat_str(mag)
        else:
            xpow = "x" if k == 1 else f"x^{k}"
            body = xpow if mag == 1 else f"{rat_str(mag)}*{xpow}"
        parts.append(sign + body)
    return "".join(parts) or "0"


def integer_roots(p: Poly, lo: int, hi: int) -> list:
    """The integers n with lo <= n <= hi and p(n) = 0, ascending.

    Along the derivative sequence (Collins and Loos), in integers.  Strip
    x^v from the primitive f = c*p (0 is a root iff v > 0) and clamp
    [lo, hi] to [-B, B], B a power of two above Fujiwara's root bound
    2*max_k |a_{d-k}/a_d|^(1/k).  For k = d-1 down to 0, keep a set of
    integer ends, from {lo, hi}, with no real root of f^(k)/k! inside a gap
    between consecutive ends wider than 1: there f^(k) is monotone, as
    f^(k+1) has no root inside, so bisection on exact signs pins its one
    root to a unit gap whose ends join the set.  So each level evaluates
    f^(k) only at the ends of gaps wider than 1.  An integer root of f,
    multiple or not, is then an end, where f is evaluated.  No polynomial
    division: O(deg^2) ends, each found in log2(2B) steps, polynomial in
    the bit size of p.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes at every integer")
    f = _primitive(p.coeffs)
    v = next(k for k, c in enumerate(f) if c)
    f = f[v:]
    d, top = len(f) - 1, f[-1].bit_length()
    # |a_{d-k}/a_d|^(1/k) < 2^e_k, e_k = ceil((bits(a_{d-k}) - bits(a_d) + 1)/k)
    e = max((-((top - 1 - c.bit_length()) // k)
             for k, c in enumerate(reversed(f[:-1]), 1) if c), default=0)
    bound = 2 << max(e, 0)
    lo, hi = max(lo, -bound), min(hi, bound)
    if hi < lo:
        return []
    ends, g = {lo, hi}, f[-1:]
    for k in reversed(range(d)):  # g = f^(k)/k! from f^(k+1)/(k+1)!
        g = [f[k]] + [c * (k + 1) // (j + 1) for j, c in enumerate(g)]
        ts = sorted(ends)
        wide = [(s, t) for s, t in zip(ts, ts[1:]) if t - s > 1]
        signs = {t: _horner(g, t) for gap in wide for t in gap}
        for s, t in wide:
            vs, vt = signs[s], signs[t]
            if vs * vt < 0:  # a root, where g is monotone
                while t - s > 1:
                    c = (s + t) // 2
                    vc = _horner(g, c)
                    s, t, vs, vt = (s, c, vs, vc) if vs * vc <= 0 else (c, t, vc, vt)
                ends |= {s, t}
    roots = [t for t in sorted(ends) if not _horner(f, t)]
    return sorted(roots + [0]) if v and lo <= 0 <= hi else roots


def _horner(cs, x: int) -> int:
    """The integer coefficient list cs, ascending, evaluated at x."""
    v = 0
    for c in reversed(cs):
        v = v * x + c
    return v


def clear_denominators(values: Sequence) -> tuple[int, list[int]]:
    """(L, [L*v for v in values]) with L the lcm of the denominators; values
    that are all ints come back as they are, with no Fraction built."""
    if all(type(v) is int for v in values):
        return 1, list(values)
    values = [as_rat(v) for v in values]
    lcm = math.lcm(*(v.denominator for v in values))
    return lcm, [v.numerator * (lcm // v.denominator) for v in values]


def _primitive(cs) -> list:
    """Positive rational multiple of cs with coprime integer coefficients."""
    ints = clear_denominators(cs)[1]
    g = math.gcd(*ints)
    return [c // g for c in ints]


class LaurentPoly:
    """Finite Laurent polynomial: coefficients ascending from power ``low``.

    Normalized so the first and last stored coefficients are nonzero (the
    zero element stores nothing).  The value type of the bilinear forms'
    rational corrections, which live in span{x^-1, ..., x^-(g_max+1)}.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, low: int = 0, coeffs: Iterable[RatLike] = ()):
        cs = [as_rat(c) for c in coeffs]
        while cs and cs[0] == 0:
            cs.pop(0)
            low += 1
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            low = 0
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def from_terms(terms) -> "LaurentPoly":
        """Build from an iterable of (power, coeff); repeated powers add."""
        acc: dict = {}
        for k, c in terms:
            acc[k] = acc.get(k, Fraction(0)) + as_rat(c)
        if not acc:
            return LaurentPoly()
        lo = min(acc)
        hi = max(acc)
        return LaurentPoly(lo, [acc.get(k, Fraction(0)) for k in range(lo, hi + 1)])

    def coeff(self, k: int) -> Fraction:
        i = k - self.low
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def terms(self):
        """Yield (power, coeff) for nonzero coefficients, ascending."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                yield self.low + i, c

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        product = Poly(self.coeffs) * Poly(other.coeffs)
        return LaurentPoly(self.low + other.low, product.coeffs)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.low == other.low and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("LaurentPoly", self.low, self.coeffs))

    def __str__(self):
        return _render_terms(reversed(list(self.terms())))

    def __repr__(self):
        return f"LaurentPoly({self})"
