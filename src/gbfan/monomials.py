"""Monomial ideals given by their minimal generators."""

from __future__ import annotations

from itertools import product

from .errors import InfiniteOrderIdeal, ParseError
from .terms import is_one, tdivides, tlcm


def minimalize(exps) -> frozenset:
    """Keep only divisibility-minimal exponent vectors."""
    exps = set(map(tuple, exps))
    keep = set()
    for t in exps:
        if not any(tdivides(s, t) for s in exps if s != t):
            keep.add(t)
    return frozenset(keep)


class MonomialIdeal:
    """A monomial ideal; generators are stored minimal and pairwise
    non-dividing."""

    __slots__ = ("nvars", "gens")

    def __init__(self, nvars: int, exps):
        exps = [tuple(e) for e in exps]
        for e in exps:
            if len(e) != nvars:
                raise ParseError(f"exponent {e} has wrong length")
            if any(x < 0 for x in e):
                raise ParseError(f"negative exponent in {e}")
        self.nvars = nvars
        self.gens = minimalize(exps)

    def is_unit(self) -> bool:
        return any(is_one(g) for g in self.gens)

    def contains(self, exp) -> bool:
        exp = tuple(exp)
        return any(tdivides(g, exp) for g in self.gens)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return MonomialIdeal(self.nvars, list(self.gens) + list(other.gens))

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return MonomialIdeal(
            self.nvars, [tlcm(s, t) for s in self.gens for t in other.gens]
        )

    def pure_power_degrees(self) -> list[int | None]:
        """Per variable, the exponent of its pure-power generator, if any."""
        out: list[int | None] = [None] * self.nvars
        for g in self.gens:
            nz = [i for i, e in enumerate(g) if e]
            if len(nz) == 1:
                i = nz[0]
                if out[i] is None or g[i] < out[i]:
                    out[i] = g[i]
            elif not nz:
                return [0] * self.nvars
        return out

    def is_zero_dimensional(self) -> bool:
        """True when every variable has a pure power in the ideal."""
        return all(d is not None for d in self.pure_power_degrees())

    def order_ideal(self) -> list[tuple[int, ...]]:
        """All power products outside the ideal, ascending by exponent
        tuple (x-major); raises when infinite."""
        if self.is_unit():
            return []
        degrees = self.pure_power_degrees()
        if any(d is None for d in degrees):
            raise InfiniteOrderIdeal(
                "complement is infinite: some variable has no pure power"
            )
        return [
            exp
            for exp in product(*(range(d) for d in degrees))
            if not self.contains(exp)
        ]

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.nvars == other.nvars
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __repr__(self):
        return f"MonomialIdeal({self.nvars}, {sorted(self.gens)})"
