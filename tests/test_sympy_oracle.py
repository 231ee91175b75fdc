"""Differential oracle: reduced bases agree with sympy's `groebner`."""

import signal

import pytest
from hypothesis import given, settings, strategies as st

from gbfan import GF, QQ, Ideal, PolyRing, degrevlex, lex
from gbfan.cli import main

from conftest import FOUND_IDEALS, write_found_ideal

sympy = pytest.importorskip("sympy")

FIELDS = {"QQ": QQ, "GF(5)": GF(5), "GF(32003)": GF(32003)}
ORDERS = {"lex": lex, "grevlex": degrevlex}
# A few drawn lex ideals over QQ in three variables take `buchberger_dicts`
# minutes, where sympy takes at most a few seconds: such a draw is cut off
# after BUDGET_S seconds, not compared, and the test ends as XFAIL.
BUDGET_S = 10


@st.composite
def ideals(draw):
    """1-3 generators in 2-3 variables, each of degree at most 2 per
    variable, with small nonzero integer coefficients."""
    n = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.integers(-4, 4).filter(bool)
    polys = st.dictionaries(exps, coeffs, min_size=1, max_size=4)
    return n, draw(st.lists(polys, min_size=1, max_size=3))


def to_field(field, c):
    q = sympy.Rational(c)
    return field.from_int(int(q.p)) / field.from_int(int(q.q))


def sympy_monic_basis(ring, gens, sympy_order):
    """sympy's reduced basis, made monic in `ring` by the leading
    coefficient under `sympy_order` (plain `terms()` lists lex order)."""
    syms = sympy.symbols(ring.vars)
    exprs = [
        sum(c * sympy.prod(s**e for s, e in zip(syms, exp)) for exp, c in g.items())
        for g in gens
    ]
    p = ring.field.characteristic
    options = {"modulus": p} if p else {"domain": "QQ"}
    basis = sympy.groebner(exprs, *syms, order=sympy_order, **options)
    out = set()
    for poly in basis.polys:
        terms = poly.terms(order=sympy_order)
        lc = to_field(ring.field, terms[0][1])
        out.add(ring.poly({exp: to_field(ring.field, c) / lc for exp, c in terms}))
    return out


class _Overrun(Exception):
    pass


def _overrun(signum, frame):
    raise _Overrun


def test_groebner_matches_sympy():
    overruns = []

    @settings(max_examples=80, deadline=None)
    @given(
        drawn=ideals(),
        field=st.sampled_from(sorted(FIELDS)),
        order=st.sampled_from(sorted(ORDERS)),
    )
    def check(drawn, field, order):
        n, gens = drawn
        ring = PolyRing(FIELDS[field], ("x", "y", "z")[:n])
        f = ring.field
        I = Ideal(ring, [ring.poly({e: f.from_int(c) for e, c in g.items()}) for g in gens])
        previous = signal.signal(signal.SIGALRM, _overrun)
        signal.alarm(BUDGET_S)
        try:
            ours = I.groebner(ORDERS[order](n)).elements
        except _Overrun:
            overruns.append((field, order, gens))
            return
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(set(ours)) == len(ours)
        assert set(ours) == sympy_monic_basis(ring, gens, order)

    check()
    if overruns:
        pytest.xfail(
            f"{len(overruns)} basis(es) ran past {BUDGET_S} s, first {overruns[0]}"
            " (known: buchberger_dicts is slow on some lex bases over QQ)"
        )


@pytest.mark.parametrize("name", ["found-qq", "lex-a", "lex-b"])
def test_gb_lex_of_found_qq_ideal_matches_sympy(tmp_path, capsys, name):
    # `buchberger_dicts` in lex from these generators overruns any budget;
    # `gb --order lex` converts the degrevlex basis by FGLM
    assert main(["gb", str(write_found_ideal(tmp_path, name)), "--order", "lex"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    ring = PolyRing(QQ, ("x", "y", "z"))
    gens = [ring.parse(t).coeffs for t in FOUND_IDEALS[name][1]]
    assert header == "order: lex"
    assert {ring.parse(t) for t in rows} == sympy_monic_basis(ring, gens, "lex")
