"""Polynomial rings, sparse multivariate polynomials, and linear shifts.

Polynomials are immutable maps from exponent tuples to nonzero field
elements; they carry no term order of their own, so the same polynomial can
be viewed under many orderings during fan traversal.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DimensionMismatch,
    DomainError,
    FieldMismatch,
    ParseError,
    RingMismatch,
    ZeroPolynomial,
)
from .field import GF, QQ, GFElement
from .orderings import TermOrder, degrevlex
from .parse import VAR_NAME, parse_polynomial
from .terms import term_str


def same_ring(a: "PolyRing", b: "PolyRing") -> None:
    """Raise `RingMismatch` unless the rings a and b are equal."""
    if a != b:
        raise RingMismatch(f"{a} vs {b}")


class PolyRing:
    """K[x_1, ..., x_n] for an exact coefficient field K."""

    __slots__ = ("field", "vars", "_index")

    def __init__(self, field, varnames):
        varnames = tuple(str(v) for v in varnames)
        if not varnames:
            raise ParseError("a polynomial ring needs at least one variable")
        if len(set(varnames)) != len(varnames):
            raise ParseError(f"duplicate variable names in {varnames}")
        for v in varnames:
            if not VAR_NAME.fullmatch(v):
                raise ParseError(f"bad variable name {v!r}")
        self.field = field
        self.vars = varnames
        self._index = {v: i for i, v in enumerate(varnames)}

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ParseError(f"unknown variable {name!r}; ring has {self.vars}")

    def element(self, c):
        """c as a field element: an int is mapped into the field; any other
        value must be its own element, or FieldMismatch is raised."""
        field = self.field
        if isinstance(c, int):
            return field.from_int(c)
        p = field.characteristic
        if type(c) is not field.element_type or (p and c.p != p):
            raise FieldMismatch(f"{c!r} is not an element of {field}")
        return c

    def poly(self, coeffs: dict) -> "Polynomial":
        """Build a polynomial from `element`s, dropping zero coefficients."""
        clean = {}
        n = self.nvars
        for exp, c in coeffs.items():
            exp = tuple(exp)
            if len(exp) != n:
                raise DimensionMismatch(f"exponent {exp} has wrong length")
            if any(e < 0 for e in exp):
                raise ParseError(f"negative exponent in {exp}")
            c = self.element(c)
            if c:
                clean[exp] = c
        return Polynomial(self, clean)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: self.field.one()})

    def const(self, c) -> "Polynomial":
        return self.poly({(0,) * self.nvars: c})

    def var(self, name_or_index) -> "Polynomial":
        i = (
            name_or_index
            if isinstance(name_or_index, int)
            else self.var_index(name_or_index)
        )
        exp = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exp: self.field.one()})

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    def extend(self, extra_names) -> "PolyRing":
        return PolyRing(self.field, self.vars + tuple(extra_names))

    def default_order(self) -> TermOrder:
        return degrevlex(self.nvars)

    def term_order(self, order: TermOrder | None = None) -> TermOrder:
        """order, checked to rank terms in this ring's nvars variables, or
        the default ordering when None.  Every entry that takes a
        `TermOrder` calls it before any work."""
        if order is None:
            return self.default_order()
        if order.nvars != self.nvars:
            raise DimensionMismatch(
                f"ordering of {order.nvars} variables for a ring of {self.nvars}"
            )
        return order

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.vars == other.vars
        )

    def __hash__(self):
        return hash((self.field, self.vars))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.vars)}]"


class Polynomial:
    """A sparse polynomial; never mutate `coeffs` after construction."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: PolyRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def total_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)

    def degree_in(self, i: int) -> int:
        if not self.coeffs:
            return -1
        return max(e[i] for e in self.coeffs)

    def variables_used(self) -> set[int]:
        used = set()
        for exp in self.coeffs:
            for i, e in enumerate(exp):
                if e:
                    used.add(i)
        return used

    def leading_term(self, order: TermOrder):
        """The order-maximal support term with its coefficient."""
        order = self.ring.term_order(order)
        if not self.coeffs:
            raise ZeroPolynomial("the zero polynomial has no leading term")
        exp = max(self.coeffs, key=order.key)
        return exp, self.coeffs[exp]

    def monic(self, order: TermOrder) -> "Polynomial":
        _, c = self.leading_term(order)
        if self.ring.field.is_one(c):
            return self
        return Polynomial(self.ring, {e: v / c for e, v in self.coeffs.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        same_ring(self.ring, other.ring)
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            cur = out.get(e)
            s = v if cur is None else cur + v
            if s:
                out[e] = s
            elif cur is not None:
                del out[e]
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        same_ring(self.ring, other.ring)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                cur = out.get(e)
                s = prod if cur is None else cur + prod
                if s:
                    out[e] = s
                elif cur is not None:
                    del out[e]
        return Polynomial(self.ring, out)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        """c times the polynomial, c taken through `PolyRing.element`."""
        c = self.ring.element(c)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {e: v * c for e, v in self.coeffs.items()})

    def evaluate(self, point) -> object:
        """Evaluate at a tuple of field elements."""
        field = self.ring.field
        total = field.zero()
        for exp, c in self.coeffs.items():
            val = c
            for coord, e in zip(point, exp):
                if e:
                    val = val * coord**e
            total = total + val
        return total

    def is_factor_closed(self) -> bool:
        """True when one support term is divisible by every other.

        Such a term is the componentwise maximum of the support, so it is
        the leading term under every term ordering.
        """
        if not self.coeffs:
            return True
        top = tuple(max(es) for es in zip(*self.coeffs))
        return top in self.coeffs

    def to_str(self, order: TermOrder | None = None) -> str:
        """Canonical text form: terms strictly decreasing in the active
        ordering, signs absorbed into the +/- separators."""
        order = self.ring.term_order(order)
        if not self.coeffs:
            return "0"
        field = self.ring.field
        parts = []
        for i, exp in enumerate(sorted(self.coeffs, key=order.key, reverse=True)):
            c = self.coeffs[exp]
            neg = field.is_negative(c)
            mag = -c if neg else c
            mon = term_str(exp, self.ring.vars)
            if mon == "1":
                body = str(mag)
            elif field.is_one(mag):
                body = mon
            else:
                body = f"{mag}*{mon}"
            if i == 0:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f" - {body}" if neg else f" + {body}")
        return "".join(parts)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.coeffs.items())))

    def __repr__(self):
        return self.to_str()


def _field_of(c):
    """The field whose element c is; FieldMismatch for anything else, ints
    and floats included."""
    if type(c) is Fraction:
        return QQ
    if type(c) is GFElement:
        return GF(c.p)
    raise FieldMismatch(f"{c!r} is not a field element")


class LinearShift:
    """An invertible substitution x_i -> a_i * x_i + b_i.

    A shift has no ring to map an int into, so its scales and offsets must
    be elements of one field, or FieldMismatch is raised; `inverse` then
    stays in that field.
    """

    __slots__ = ("scales", "offsets")

    def __init__(self, scales, offsets):
        scales = tuple(scales)
        offsets = tuple(offsets)
        if len(scales) != len(offsets):
            raise DimensionMismatch("scales and offsets differ in length")
        fields = {_field_of(c) for c in scales + offsets}
        if len(fields) > 1:
            names = " and ".join(sorted(map(str, fields)))
            raise FieldMismatch(f"linear shift mixes {names}")
        if any(not a for a in scales):
            raise DomainError("linear shift scales must be nonzero")
        self.scales = scales
        self.offsets = offsets

    def inverse(self) -> "LinearShift":
        inv_scales = tuple(a ** (-1) for a in self.scales)
        inv_offsets = tuple(-(b * a) for a, b in zip(inv_scales, self.offsets))
        return LinearShift(inv_scales, inv_offsets)

    def apply(self, f: Polynomial) -> Polynomial:
        """Substitute each variable, fully expanded and normalized."""
        ring = f.ring
        if len(self.scales) != ring.nvars:
            raise DimensionMismatch("shift has wrong variable count")
        images = [
            ring.var(i).scale(a) + ring.const(b)
            for i, (a, b) in enumerate(zip(self.scales, self.offsets))
        ]
        out = ring.zero()
        for exp, c in f.coeffs.items():
            piece = ring.const(c)
            for i, e in enumerate(exp):
                if e:
                    piece = piece * images[i] ** e
            out = out + piece
        return out

    def __repr__(self):
        return f"LinearShift(scales={self.scales}, offsets={self.offsets})"
