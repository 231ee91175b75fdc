"""Command-line front end.

Exit codes: 0 success, 2 parse/config error, 3 math-domain error,
4 internal invariant breach.  Identical inputs and flags always produce
byte-identical output; results go to stdout, diagnostics to stderr.

Every command returns ``(payload, lines)``: the JSON object without its
``schema`` key, and the text output built from the payload's strings.
`main` alone writes stdout, once the command has returned, so a command
that fails has written nothing there.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .errors import DomainError, GbfanError, ParseError
from .fan import (
    enumerate_basic_sets,
    enumerate_fan,
    fan_oracle_zerodim,
    minimal_models,
    unique_gb_fast_check,
)
from .files import (
    load_grid,
    load_ideal,
    load_monomial_ideal,
    load_points,
    load_shift,
    load_tuples,
)
from .monomials import MonomialIdeal
from .orderings import parse_order
from .points import (
    complementary_pair,
    distraction_ideal,
    ideal_of_points,
    maximal_grid,
    natural_distraction,
    point_row,
    shift_ideal,
    staircase,
    vanishing_ideal,
)
from .random_ideals import corpus_rings, random_zero_dim_ideal
from .terms import term_str

SCHEMA = 1


class _SelfcheckFailed(Exception):
    """A failed selfcheck trial.  `main` writes its report to stdout: the
    FAIL line, then an ideal file that reproduces the trial."""

    def __init__(self, reason, seed, trial, ideal):
        ring = ideal.ring
        self.lines = [
            f"selfcheck: FAIL ({reason})",
            f"# seed: {seed}, trial: {trial}",
            f"# field: {ring.field.name}",
            f"# vars: {', '.join(ring.vars)}",
            *(g.to_str() for g in ideal.gens),
        ]
        super().__init__(self.lines[0])


def _listing(key: str, rows: list[str]):
    """A payload holding one list of strings, printed one per line."""
    return {key: rows}, rows


def _basis(gb) -> dict:
    return {
        "order": repr(gb.order),
        "basis": [g.to_str(gb.order) for g in gb.elements],
    }


def cmd_gb(args):
    ring, ideal = load_ideal(args.ideal, args.field, args.vars)
    gb = ideal.groebner()
    if args.order is not None:
        gb = gb.change_order(parse_order(args.order, ring.nvars))
    payload = _basis(gb)
    return payload, ["order: " + payload["order"], *payload["basis"]]


def cmd_fan(args):
    _, ideal = load_ideal(args.ideal, args.field, args.vars)
    fan = enumerate_fan(ideal)
    cones = [
        {
            "lt_ideal": [term_str(t, fan.ring.vars) for t in sorted(mb.basis.lt_exps)],
            "reduced_gb": [g.to_str(mb.basis.order) for g in mb.basis],
            "cone": [list(v) for v in mb.cone.ineqs],
        }
        for mb in fan
    ]
    payload = {
        "field": fan.ring.field.name,
        "vars": list(fan.ring.vars),
        "gfan_number": fan.size,
        "cones": cones,
    }
    lines = [f"gfan_number: {fan.size}"]
    for i, (mb, cone) in enumerate(zip(fan, cones), start=1):
        lines += [
            f"cone {i}:",
            "  lt_ideal: " + ", ".join(cone["lt_ideal"]),
            f"  cone: {mb.cone}",
            "  basis:",
            *("    " + g for g in cone["reduced_gb"]),
        ]
    return payload, lines


def cmd_points(args):
    pts = load_points(args.points, args.field, args.vars)
    order = None if args.order is None else parse_order(args.order, pts.ring.nvars)
    gb, quotient = ideal_of_points(pts, order)
    payload = {
        **_basis(gb),
        "quotient_basis": [term_str(t, pts.ring.vars) for t in quotient],
    }
    return payload, [
        "order: " + payload["order"],
        *payload["basis"],
        "quotient_basis: " + ", ".join(payload["quotient_basis"]),
    ]


def cmd_models(args):
    pts = load_points(args.points, args.field, args.vars)
    ideal = vanishing_ideal(pts)
    f = pts.ring.parse(args.function)
    return _listing("models", sorted(m.to_str() for m in minimal_models(f, ideal)))


def cmd_unique(args):
    if args.points and args.ideal:
        raise ParseError("unique takes an ideal file or --points, not both")
    if args.points:
        ideal = vanishing_ideal(load_points(args.points, args.field, args.vars))
    elif args.ideal:
        _, ideal = load_ideal(args.ideal, args.field, args.vars)
    else:
        raise ParseError("unique needs an ideal file or --points")
    flag = unique_gb_fast_check(ideal)
    return {"unique": flag}, [f"unique: {'true' if flag else 'false'}"]


def _generators(polys):
    return _listing("generators", [g.to_str() for g in polys])


def cmd_distract(args):
    ring, mono = load_monomial_ideal(args.ideal, args.field, args.vars)
    tuples = load_tuples(args.tuples, ring)
    return _generators(distraction_ideal(ring, mono, tuples).gens)


def cmd_natural(args):
    ring, mono = load_monomial_ideal(args.ideal, args.field, args.vars)
    return _generators(natural_distraction(ring, mono).gens)


def cmd_staircase(args):
    ring, mono = load_monomial_ideal(args.ideal, args.field, args.vars)
    rows = list(map(point_row, staircase(ring, mono)))
    diagram = _staircase_diagram(ring, mono) if args.diagram else []
    return {"points": rows}, rows + diagram


def _staircase_diagram(ring, mono: MonomialIdeal) -> list[str]:
    """ASCII picture for two variables: ● order ideal, ○ generators."""
    if ring.nvars != 2:
        raise DomainError("--diagram needs exactly two variables")
    inside = set(mono.order_ideal())
    gens = set(mono.gens)
    max_x = max(e[0] for e in inside | gens)
    max_y = max(e[1] for e in inside | gens)
    lines = []
    for y in range(max_y, -1, -1):
        cells = []
        for x in range(max_x + 1):
            if (x, y) in inside:
                cells.append("●")
            elif (x, y) in gens:
                cells.append("○")
            else:
                cells.append("·")
        lines.append(" ".join(cells))
    return lines


def cmd_mgrid(args):
    ring, ideal = load_ideal(args.ideal, args.field, args.vars)
    spec = maximal_grid(ideal)
    grid = {ring.vars[i]: spec.generator(i).to_str() for i in range(ring.nvars)}
    return {"grid": grid}, [f"{v}: poly {g}" for v, g in grid.items()]


def cmd_grid(args):
    spec = load_grid(args.grid, args.field, args.vars)
    if args.points:
        return _listing("points", list(map(point_row, spec.points())))
    return _generators(spec.generators())


def cmd_complement(args):
    spec = load_grid(args.grid, args.field, args.vars)
    _, first = load_ideal(args.ideal, args.field, args.vars)
    second, cert = complementary_pair(spec, first)
    basis = _basis(second.groebner())
    payload = {
        "multiplicity_grid": cert.grid_multiplicity,
        "multiplicity_input": cert.multiplicity_1,
        "multiplicity_complement": cert.multiplicity_2,
        "certificate": cert.ok,
        "basis": basis["basis"],
    }
    counts = ("multiplicity_grid", "multiplicity_input", "multiplicity_complement")
    return payload, [
        *(f"{k}: {payload[k]}" for k in counts),
        "certificate: ok",
        "order: " + basis["order"],
        *basis["basis"],
    ]


def cmd_shift(args):
    ring, ideal = load_ideal(args.ideal, args.field, args.vars)
    shift = load_shift(args.shift, ring)
    return _generators(shift_ideal(ideal, shift).gens)


def cmd_basic_sets(args):
    if args.bound < 0:
        raise ParseError("basic-sets needs --bound >= 0")
    ring, ideal = load_ideal(args.ideal, args.field, args.vars)
    sets = enumerate_basic_sets(ideal, bound=args.bound)
    return _listing(
        "basic_sets", [", ".join(term_str(t, ring.vars) for t in s) for s in sets]
    )


def cmd_selfcheck(args):
    if args.max_mult < 1 or args.trials < 0:
        raise ParseError("selfcheck needs --max-mult >= 1 and --trials >= 0")
    rng = Random(args.seed)
    rings = corpus_rings(2) + corpus_rings(3)
    checked = 0
    for trial in range(1, args.trials + 1):
        ring = rng.choice(rings)
        ideal = random_zero_dim_ideal(rng, ring, max_mult=args.max_mult)
        fan = enumerate_fan(ideal)
        oracle = fan_oracle_zerodim(ideal, bound=args.max_mult)
        if fan != oracle:
            raise _SelfcheckFailed("fan and oracle disagree", args.seed, trial, ideal)
        if unique_gb_fast_check(ideal) != (fan.size == 1):
            raise _SelfcheckFailed(
                "factor-closed test disagrees with fan size", args.seed, trial, ideal
            )
        checked += 1
    # selfcheck has no --format: its result is only ever text.
    return None, [f"selfcheck: ok ({checked} random ideals, seed {args.seed})"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbfan",
        description=(
            "Exact Gröbner bases, Gröbner fans, ideals of points, "
            "distractions, and complementary ideals over QQ and GF(p)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order=False):
        p.add_argument("--field", help="coefficient field: QQ or GF(p)")
        p.add_argument("--vars", help="comma-separated variable names")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        if order:
            p.add_argument(
                "--order",
                help="term ordering: lex, deglex, degrevlex, weight:..., matrix:...",
            )

    p = sub.add_parser("gb", help="reduced Gröbner basis of an ideal file")
    p.add_argument("ideal")
    common(p, order=True)
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("fan", help="Gröbner fan and GFan number")
    p.add_argument("ideal")
    common(p)
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("points", help="vanishing ideal of a point file")
    p.add_argument("points")
    common(p, order=True)
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("models", help="normal forms of a model across the fan")
    p.add_argument("points")
    p.add_argument("-f", "--function", required=True, help="polynomial to reduce")
    common(p)
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("unique", help="factor-closed one-basis test")
    p.add_argument("ideal", nargs="?")
    p.add_argument("--points", help="treat input as a point file")
    common(p)
    p.set_defaults(func=cmd_unique)

    p = sub.add_parser("distract", help="distraction of a monomial ideal")
    p.add_argument("ideal", help="monomial ideal file")
    p.add_argument("tuples", help="per-variable constant tuples file")
    common(p)
    p.set_defaults(func=cmd_distract)

    p = sub.add_parser("natural", help="natural distraction of a monomial ideal")
    p.add_argument("ideal", help="monomial ideal file")
    common(p)
    p.set_defaults(func=cmd_natural)

    p = sub.add_parser("staircase", help="staircase points of a monomial ideal")
    p.add_argument("ideal", help="monomial ideal file")
    p.add_argument("--diagram", action="store_true", help="append an ASCII picture")
    common(p)
    p.set_defaults(func=cmd_staircase)

    p = sub.add_parser("mgrid", help="maximal grid ideal inside an ideal")
    p.add_argument("ideal")
    common(p)
    p.set_defaults(func=cmd_mgrid)

    p = sub.add_parser("grid", help="expand a grid spec file")
    p.add_argument("grid")
    p.add_argument("--points", action="store_true", help="list the grid points")
    common(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("complement", help="colon complement inside a grid")
    p.add_argument("grid", help="grid spec file")
    p.add_argument("ideal", help="ideal containing the grid ideal")
    common(p)
    p.set_defaults(func=cmd_complement)

    p = sub.add_parser("shift", help="apply a linear shift to an ideal")
    p.add_argument("ideal")
    p.add_argument("shift", help="per-variable 'x: scale, offset' file")
    common(p)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("basic-sets", help="all basic sets of a zero-dimensional ideal")
    p.add_argument("ideal")
    p.add_argument("--bound", type=int, default=12, help="multiplicity bound")
    common(p)
    p.set_defaults(func=cmd_basic_sets)

    p = sub.add_parser("selfcheck", help="randomized fan-vs-oracle verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--max-mult", type=int, default=8, dest="max_mult")
    p.set_defaults(func=cmd_selfcheck, format="text")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines = args.func(args)
    except _SelfcheckFailed as exc:
        lines, code = exc.lines, 4
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except GbfanError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # bug trap
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4
    else:
        code = 0
        if args.format == "json":
            lines = [json.dumps({"schema": SCHEMA, **payload})]
    sys.stdout.write("".join(line + "\n" for line in lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
