"""Shared helpers: rings, parsing shortcuts, point construction, and a
call-recording fixture."""

import functools
import inspect
import sys
from pathlib import Path

_src = Path(__file__).resolve().parent.parent / "src"
if str(_src) not in sys.path:
    sys.path.insert(0, str(_src))

import pytest

from gbfan import (
    GF,
    QQ,
    Ideal,
    PointSet,
    PolyRing,
    TermOrder,
    enumerate_fan,
    fan_equal,
    weight_order,
)
from gbfan.cones import strict_positive_solution
from gbfan.groebner import _integral
from gbfan.linalg import slot_width


def qring(*names) -> PolyRing:
    return PolyRing(QQ, names)


def fring(p, *names) -> PolyRing:
    return PolyRing(GF(p), names)


def ideal(ring, *texts) -> Ideal:
    return Ideal.from_strings(ring, texts)


def kernel_gens(ring, polys) -> list[dict]:
    """Polynomials as `buchberger_dicts` takes them: dicts of ints,
    residues over GF(p) and integer multiples over QQ."""
    return [_integral(f.coeffs, ring.field)[0] for f in polys]


def packed_slots(packed: int, count: int, n: int, p: int) -> list[int]:
    """The first `count` slots of a packed GF(p) echelon row of length n,
    by the layout `linalg.echelon_reduce` documents; no bit of the int may
    lie above them."""
    w, mask = slot_width(n, p)
    assert type(packed) is int and packed >= 0 and packed >> w * count == 0
    return [packed >> w * i & mask for i in range(count)]


def points(ring, coords) -> PointSet:
    """Build a point set from tuples of ints or field-syntax strings."""
    field = ring.field
    pts = []
    for row in coords:
        pts.append(
            tuple(
                field.parse(c) if isinstance(c, str) else field.from_int(c)
                for c in row
            )
        )
    return PointSet(ring, pts)


# Ideals in x, y, z, by name, with their field, whose lex bases Buchberger
# from the generators is slow to reach.  found-qq did not finish in
# minutes, found-gf took about 15 s.  lex-a and lex-b are zero-dimensional,
# of multiplicities 14 and 11: Buchberger ran past 3 s on each, where FGLM
# from the degrevlex basis takes milliseconds.
FOUND_IDEALS = {
    "found-qq": (
        "QQ",
        (
            "4*x*z - x*y*z - y^2*z^2 - 4*x^2*z",
            "x*y*z^2 + x^2*y^2*z + y*z^2 - x",
            "4 - x^2 + 3*y*z^2",
        ),
    ),
    "found-gf": (
        "GF(32003)",
        (
            "3*x*y - x^2*y^2 + x^2*y*z^2 + 2*y^2*z^2",
            "-4*y*z - 4*x^2*y*z + 4*x*y^2 - 3*x^2*z",
            "-x*y + x^2*y^2*z^2 - 3*z^2 + 4*y^2",
        ),
    ),
    "lex-a": (
        "QQ",
        (
            "x^2*y^2*z^2 + 2*x^2*y*z - 2*x*y*z + 3",
            "-3*x*y^2 + 4*x*y - 2*y^2 - z^2",
            "2*x^2*y*z^2 - 4*y*z",
        ),
    ),
    "lex-b": (
        "QQ",
        (
            "2*x^2*y + y*z - 4",
            "-x*y^2*z^2 + 2*x^2*y*z + 2*x*y^2*z - z",
            "3*x^2*y^2*z - x^2*z + 3*x*y",
        ),
    ),
}


def found_ideal_text(name) -> str:
    """The FOUND_IDEALS entry `name` as the text of an ideal file."""
    field, gens = FOUND_IDEALS[name]
    return f"# field: {field}\n# vars: x, y, z\n" + "\n".join(gens) + "\n"


def write_found_ideal(tmp_path, name) -> Path:
    """The FOUND_IDEALS entry `name` as an ideal file in tmp_path."""
    path = tmp_path / "found.ideal"
    path.write_text(found_ideal_text(name))
    return path


def weight_refinement(w) -> TermOrder:
    """Ordering realizing a strictly positive weight, degrevlex-refined."""
    return weight_order(w)


def socle_bijection_holds(spec, first, second) -> bool:
    """Shared fans plus, cone by cone, the bijection t -> socle/t between
    the grid quotient terms missing from one ideal and the quotient basis
    of the other."""
    soc = spec.socle_term()
    grid_terms = set(spec.quotient_terms())
    fan1, fan2 = enumerate_fan(first), enumerate_fan(second)
    if not fan_equal(fan1, fan2):
        return False
    for mb in fan1:
        w = strict_positive_solution(mb.cone.ineqs, spec.ring.nvars)
        order = weight_refinement(w)
        o1 = set(first.quotient_basis(order))
        o2 = set(second.quotient_basis(order))
        image = {tuple(s - t for s, t in zip(soc, u)) for u in grid_terms - o1}
        if image != o2:
            return False
    return True


@pytest.fixture
def rxy():
    return qring("x", "y")


@pytest.fixture
def rxyz():
    return qring("x", "y", "z")


@pytest.fixture
def record_calls(monkeypatch):
    """`record_calls(owner, name)` replaces `owner.name` for the test with a
    pass-through that records every call, and returns the live list of
    records.  A record maps each parameter name to its argument, defaults
    included; once the call returns, it also maps "return" to the result.
    A classmethod stays a classmethod, and its records include `cls`."""

    def record(owner, name):
        calls = []
        raw = inspect.getattr_static(owner, name)
        real = raw.__func__ if isinstance(raw, classmethod) else getattr(owner, name)
        signature = inspect.signature(real)

        @functools.wraps(real)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            call = dict(bound.arguments)
            calls.append(call)
            call["return"] = real(*args, **kwargs)
            return call["return"]

        if isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        monkeypatch.setattr(owner, name, wrapper)
        return calls

    return record
