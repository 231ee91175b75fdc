"""Exact coefficient fields: the rationals and prime fields GF(p).

Rational scalars are `fractions.Fraction` (arbitrary precision, always in
lowest terms with positive denominator).  Prime-field scalars are `GFElement`
residues kept in [0, p).  Both are immutable and hashable, so polynomials can
share them freely across threads.  A field's `kernel` gives an element as the
kernels of `linalg` and `groebner` compute on it; no other module unwraps one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache

from .errors import CharacteristicTooSmall, DivisionByZero, FieldMismatch, ParseError


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# a natural number with `_` digit groups, in literals and polynomials alike
DIGITS = r"\d+(?:_\d+)*"
# the literal syntax of every field: an integer or a ratio a/b of integers,
# with outer spaces and `_` digit groups; no decimal point, no exponent
_INT_RATIO = re.compile(rf"\s*([-+]?{DIGITS})(?:/({DIGITS}))?\s*")


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin with the twelve prime bases 2..37; exact
    for every p below 3.3e24, so for every p below 2^64."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class GFElement:
    """A residue modulo a prime p, canonically represented in [0, p)."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _coerce(self, other) -> "GFElement":
        if not isinstance(other, GFElement):
            raise FieldMismatch(f"cannot combine GF({self.p}) element with {other!r}")
        if other.p != self.p:
            raise FieldMismatch(f"GF({self.p}) vs GF({other.p})")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return GFElement(self.val + other.val, self.p)

    def __sub__(self, other):
        other = self._coerce(other)
        return GFElement(self.val - other.val, self.p)

    def __mul__(self, other):
        other = self._coerce(other)
        return GFElement(self.val * other.val, self.p)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.val == 0:
            raise DivisionByZero(f"division by zero in GF({self.p})")
        return GFElement(self.val * pow(other.val, -1, self.p), self.p)

    def __pow__(self, e: int):
        if e < 0 and self.val == 0:
            raise DivisionByZero(f"zero has no inverse in GF({self.p})")
        return GFElement(pow(self.val, e, self.p), self.p)

    def _mixed(self, other):
        raise FieldMismatch(f"cannot combine {other!r} with GF({self.p}) element")

    # reflected forms exist only to turn mixed rational/GF arithmetic
    # into FieldMismatch instead of TypeError
    __radd__ = _mixed
    __rsub__ = _mixed
    __rmul__ = _mixed
    __rtruediv__ = _mixed

    def __neg__(self):
        return GFElement(-self.val, self.p)

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        return (
            isinstance(other, GFElement) and self.p == other.p and self.val == other.val
        )

    def __hash__(self):
        return hash((self.val, self.p))

    def __repr__(self):
        return f"GF({self.p})[{self.val}]"

    def __str__(self):
        return str(self.val)


class RationalField:
    """The field of rational numbers."""

    characteristic = 0
    name = "QQ"
    element_type = Fraction

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def parse(self, text: str) -> Fraction:
        """An integer or a ratio a/b with b nonzero."""
        m = _INT_RATIO.fullmatch(text)
        if m is not None:
            num, den = m.groups()
            if den is None:
                return Fraction(int(num))
            if int(den):
                return Fraction(int(num), int(den))
        raise ParseError(f"bad rational literal {text!r}")

    def kernel(self, c: Fraction) -> int | Fraction:
        """c as the kernels take it: its numerator when c is integral."""
        return c.numerator if c.denominator == 1 else c

    def is_one(self, c: Fraction) -> bool:
        return c == 1

    def is_negative(self, c: Fraction) -> bool:
        return c < 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p; construct through the `GF` factory."""

    element_type = GFElement

    def __init__(self, p: int):
        if p >= 2**64:
            raise ParseError(f"{p} is too large: GF(p) needs p < 2^64")
        if not is_prime(p):
            raise ParseError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"GF({p})"

    def zero(self) -> GFElement:
        return GFElement(0, self.p)

    def one(self) -> GFElement:
        return GFElement(1, self.p)

    def from_int(self, n: int) -> GFElement:
        return GFElement(n, self.p)

    def parse(self, text: str) -> GFElement:
        """An integer, or a ratio a/b in QQ's syntax, read as a·b⁻¹ mod p."""
        m = _INT_RATIO.fullmatch(text)
        if m is None:
            raise ParseError(f"bad GF({self.p}) literal {text!r}")
        den = int(m.group(2) or 1) % self.p
        if den == 0:
            raise ParseError(f"zero denominator in GF({self.p}) literal {text!r}")
        return GFElement(int(m.group(1)) * pow(den, -1, self.p), self.p)

    def kernel(self, c: GFElement) -> int:
        """c as the kernels take it: its residue in [0, p)."""
        return c.val

    def is_one(self, c: GFElement) -> bool:
        return c.val == 1

    def is_negative(self, c: GFElement) -> bool:
        return False

    def elements(self):
        return (GFElement(i, self.p) for i in range(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()


@cache
def GF(p: int) -> PrimeField:
    """Return the (cached) prime field with p elements."""
    return PrimeField(p)


def parse_field(text: str):
    """Parse a field spec string: ``QQ`` or ``GF(p)``."""
    s = text.strip()
    if s == "QQ":
        return QQ
    if s.startswith("GF(") and s.endswith(")"):
        body = s[3:-1].strip()
        if not body.isdigit():
            raise ParseError(f"bad field spec {text!r}")
        return GF(int(body))
    raise ParseError(f"bad field spec {text!r} (expected QQ or GF(p))")


def nat_embed(n: int, field):
    """Image of a natural number under the canonical map into the field."""
    if n < 0:
        raise ValueError("nat_embed takes a natural number")
    return field.from_int(n)


def nat_images(d: int, field) -> tuple:
    """Images of the naturals 0..d-1, which are distinct unless the
    characteristic is below d; then `CharacteristicTooSmall`."""
    p = field.characteristic
    if p and p < d:
        raise CharacteristicTooSmall(
            f"naturals 0..{d - 1} collide in characteristic {p}"
        )
    return tuple(map(field.from_int, range(d)))
