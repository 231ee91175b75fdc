"""Term orderings encoded as full-rank integer weight matrices.

A matrix defines a term ordering by comparing the images M·s and M·t
lexicographically.  Validity requires rank n and, so that 1 is minimal,
that the first nonzero entry of every column (read top-down) is positive.

`TermOrder.key`, the tuple M·t, is the ordering's definition and the
tests' reference; the library maps terms to single ints by one layout,
described in `Packing`.  An ordering keeps its packings, so they live as
long as it does: Buchberger packs by them and `TermOrder.rank_key` ranks
by them.
"""

from __future__ import annotations

from functools import cache
from operator import add, mul

from .errors import DimensionMismatch, InvalidOrdering, ParseError
from .linalg import echelon_reduce


class TermOrder:
    """A term ordering given by integer weight rows, compared row by row;
    an entry with a fractional part raises `InvalidOrdering`."""

    __slots__ = ("rows", "tag", "nvars", "_canon", "_nonneg", "_packings")

    def __init__(self, rows, tag: str = "matrix"):
        given = tuple(map(tuple, rows))
        rows = tuple(tuple(map(int, r)) for r in given)
        if rows != given:
            raise InvalidOrdering("weights must be integers")
        if not rows or not rows[0]:
            raise InvalidOrdering("empty weight matrix")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise InvalidOrdering("ragged weight matrix")
        for col in range(n):
            lead = next((r[col] for r in rows if r[col]), 0)
            if lead < 0:
                raise InvalidOrdering(
                    f"column {col}: first nonzero weight must be positive"
                )
        # the canonical form (see `canonical`) is also the rank check, and M'
        # (see `Packing`) keeps the rows that raise the rank, each lifted by
        # the smallest multiple of the sum of those before it that clears
        # its negatives
        echelon: list = []
        canon: list[tuple[int, ...]] = []
        lifted: list[tuple[int, ...]] = []
        above = (0,) * n
        for row in rows:
            pivot, vec, _ = echelon_reduce(echelon, row, 0)
            if pivot is None:
                continue
            echelon.append((pivot, vec, None))
            canon.append(tuple(vec))
            if min(row) < 0:
                lam = max(-(w // s) for w, s in zip(row, above) if w < 0)
                row = tuple([w + lam * s for w, s in zip(row, above)])
            lifted.append(row)
            if len(canon) == n:
                break
            above = tuple(map(add, above, row))
        if len(canon) != n:
            raise InvalidOrdering("weight matrix must have full column rank")
        self.rows = rows
        self.tag = tag
        self.nvars = n
        self._canon = tuple(canon)
        self._nonneg = tuple(lifted)
        self._packings: dict[int, Packing] = {}  # slot width -> packing

    def key(self, exp: tuple[int, ...]) -> tuple[int, ...]:
        """Sort key: the weighted image of an exponent vector."""
        if len(exp) != self.nvars:
            raise DimensionMismatch(
                f"exponent length {len(exp)} != {self.nvars} variables"
            )
        return tuple([sum(map(mul, row, exp)) for row in self.rows])

    def rank_key(self, degree: int):
        """A key function that maps an exponent tuple of total degree at
        most `degree` to one int; the ints compare as `key` does.

        It is `Packing.rank` of the narrowest packing of this ordering
        whose slots hold that degree.  A term of higher degree may rank
        wrongly, so each caller passes a bound on the terms it ranks."""
        pk = packing(self)
        while degree >= pk.refused:
            pk = packing(self, 2 * pk.bits)
        return pk.rank

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        """Canonical form identifying matrices that define the same ordering.

        Each row is reduced against the echelon rows of the rows kept before
        it (a subtraction of earlier rows, which never changes the induced
        order) and positively scaled to a primitive integer vector: the
        unique representative of the row modulo the earlier span that is zero
        in the earlier pivot columns.  Rows in the earlier span are dropped,
        so a valid ordering has exactly nvars canonical rows.
        """
        return self._canon

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        if self.tag in ("lex", "deglex", "degrevlex"):
            return self.tag
        return f"{self.tag}{list(map(list, self.rows))}"


class SlotOverflow(Exception):
    """A packed term outgrew its slots; the run restarts on wider ones."""


class Packing:
    """Terms of one ordering as single ints (Bachmann–Schönemann): the
    library's one term-to-int layout, for Buchberger's reduction kernel and
    for `TermOrder.rank_key`.

    M' keeps the n rows of M that raise the rank (a row in the span of the
    rows before it never decides a comparison), each made nonnegative by
    adding the least multiple of the sum of the kept rows before it, which
    never changes the ordering (Robbiano 1985).  A term t packs into slots
    of `bits` bits, each with a guard bit at its top: the high slots hold
    M'·t, the first row highest, and the low slots hold t's exponents.
    While every guard is clear:

    - T < S exactly when t < s: M'·t sits above t and M' has full rank, so
      the exponent slots never decide a comparison and no order key is
      computed for a term;
    - T + S packs t·s, so a shift is one addition;
    - t divides s when ((S | G) - T) & G == G, G the guard bits; since
      M' ≥ 0 the key slots pass whenever the exponent slots do.

    A term of degree below `refused` sets no guard.  `pack` refuses, with
    `SlotOverflow`, a term of higher degree; `rank` packs without that
    check, for callers that bound their degrees up front.  A slot with its
    guard clear holds less than 2^(bits - 1), so two such slots add up to
    less than 2^bits and no carry leaves a slot: a sum of packed terms has
    outgrown its slots exactly when it sets a guard, which is the caller's
    to test.
    """

    __slots__ = ("bits", "guard", "refused", "rank", "_mask", "_shifts")

    def __init__(self, order: TermOrder, bits: int):
        rows = order._nonneg
        n, high = order.nvars, len(rows)
        self.bits = bits
        self.guard = sum(1 << (k * bits + bits - 1) for k in range(n + high))
        units = tuple(
            (1 << (j * bits))
            + sum(row[j] << ((n + high - 1 - i) * bits) for i, row in enumerate(rows))
            for j in range(n)
        )
        # the least degree d with d * (max entry of M' + 1) >= 2^(bits - 1)
        top = max(map(max, rows)) + 1
        self.refused = -(-(1 << (bits - 1)) // top)
        self._mask = (1 << bits) - 1
        self._shifts = tuple(j * bits for j in range(n))

        def rank(t: tuple[int, ...]) -> int:  # one function per packing
            return sum(map(mul, t, units))

        self.rank = rank

    def pack(self, t: tuple[int, ...]) -> int:
        if sum(t) >= self.refused:
            raise SlotOverflow(f"a term of degree {sum(t)} in {self.bits}-bit slots")
        return self.rank(t)

    def unpack(self, packed: int) -> tuple[int, ...]:
        mask = self._mask
        return tuple([(packed >> s) & mask for s in self._shifts])


def packing(order: TermOrder, bits: int = 32) -> Packing:
    """The packing of `order` in slots of `bits` bits (see `Packing`),
    built once and kept on the ordering, so it lives as long as the
    ordering does."""
    pk = order._packings.get(bits)
    if pk is None:
        pk = order._packings.setdefault(bits, Packing(order, bits))
    return pk


@cache
def lex(n: int) -> TermOrder:
    rows = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return TermOrder(rows, "lex")


@cache
def deglex(n: int) -> TermOrder:
    rows = [[1] * n]
    rows += [[1 if j == i else 0 for j in range(n)] for i in range(n - 1)]
    return TermOrder(rows, "deglex")


@cache
def degrevlex(n: int) -> TermOrder:
    rows = [[1] * n]
    rows += [[-1 if j == n - 1 - i else 0 for j in range(n)] for i in range(n - 1)]
    return TermOrder(rows, "degrevlex")


def weight_order(weights) -> TermOrder:
    """A weight vector first, completed by degrevlex."""
    w = list(weights)
    return TermOrder([w] + [list(r) for r in degrevlex(len(w)).rows], "weight")


def elimination_order(n: int, block) -> TermOrder:
    """Block ordering that eliminates the given variable indices first."""
    block = set(block)
    head = [[1 if i in block else 0 for i in range(n)]]
    return TermOrder(head + [list(r) for r in degrevlex(n).rows], "elim")


_NAMED = {"lex": lex, "deglex": deglex, "degrevlex": degrevlex}


def parse_order(spec: str, n: int) -> TermOrder:
    """Parse an ordering spec: a preset name, ``weight:w1,...``, or
    ``matrix:r11,r12;r21,r22;...`` (rows separated by semicolons)."""
    s = spec.strip()
    if s in _NAMED:
        return _NAMED[s](n)

    def row(text: str, kind: str, what: str) -> list[int]:
        try:
            r = [int(x) for x in text.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad {kind} spec {spec!r}") from exc
        if len(r) != n:
            raise ParseError(f"{what} length {len(r)} != {n} variables")
        return r

    try:
        if s.startswith("weight:"):
            return weight_order(row(s[len("weight:"):], "weight", "weight vector"))
        if s.startswith("matrix:"):
            rows = s[len("matrix:"):].split(";")
            return TermOrder([row(r, "matrix", "matrix row") for r in rows])
    except InvalidOrdering as exc:
        raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown ordering {spec!r}")
