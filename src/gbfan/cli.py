"""Command-line front end.

Exit codes: 0 success, 2 parse/config error, 3 math-domain error,
4 internal invariant breach.  Identical inputs and flags always produce
byte-identical output; results go to stdout, diagnostics to stderr.
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
    shift_ideal,
    staircase,
    vanishing_ideal,
)
from .random_ideals import corpus_rings, random_zero_dim_ideal
from .terms import term_str

SCHEMA = 1


def _order_for(ring, spec: str | None):
    if spec is None:
        return ring.default_order()
    return parse_order(spec, ring.nvars)


def _emit(text: str):
    sys.stdout.write(text + "\n")


def _emit_json(payload: dict):
    _emit(json.dumps({"schema": SCHEMA, **payload}))


def _basis_lines(gb) -> list[str]:
    return [f"order: {gb.order!r}"] + [g.to_str(gb.order) for g in gb.elements]


def _fan_payload(fan) -> dict:
    cones = []
    for mb in fan:
        cones.append(
            {
                "lt_ideal": [
                    term_str(t, fan.ring.vars) for t in sorted(mb.basis.lt_exps)
                ],
                "reduced_gb": [g.to_str(mb.basis.order) for g in mb.basis],
                "cone": [list(v) for v in mb.cone.ineqs],
            }
        )
    return {
        "field": fan.ring.field.name,
        "vars": list(fan.ring.vars),
        "gfan_number": fan.size,
        "cones": cones,
    }


def cmd_gb(args):
    ring, ideal = load_ideal(args.ideal, args.field, args.vars)
    gb = ideal.groebner(_order_for(ring, args.order))
    if args.format == "json":
        _emit_json(
            {
                "order": repr(gb.order),
                "basis": [g.to_str(gb.order) for g in gb.elements],
            }
        )
    else:
        for line in _basis_lines(gb):
            _emit(line)


def cmd_fan(args):
    _, ideal = load_ideal(args.ideal, args.field, args.vars)
    fan = enumerate_fan(ideal)
    if args.format == "json":
        _emit_json(_fan_payload(fan))
        return
    _emit(f"gfan_number: {fan.size}")
    for i, mb in enumerate(fan, start=1):
        _emit(f"cone {i}:")
        _emit(
            "  lt_ideal: "
            + ", ".join(term_str(t, fan.ring.vars) for t in sorted(mb.basis.lt_exps))
        )
        _emit(f"  cone: {mb.cone}")
        _emit("  basis:")
        for g in mb.basis:
            _emit(f"    {g.to_str(mb.basis.order)}")


def cmd_points(args):
    pts = load_points(args.points, args.field, args.vars)
    order = _order_for(pts.ring, args.order)
    gb, quotient = ideal_of_points(pts, order)
    if args.format == "json":
        _emit_json(
            {
                "order": repr(order),
                "basis": [g.to_str(order) for g in gb.elements],
                "quotient_basis": [term_str(t, pts.ring.vars) for t in quotient],
            }
        )
        return
    for line in _basis_lines(gb):
        _emit(line)
    _emit("quotient_basis: " + ", ".join(term_str(t, pts.ring.vars) for t in quotient))


def cmd_models(args):
    pts = load_points(args.points, args.field, args.vars)
    ideal = vanishing_ideal(pts)
    f = pts.ring.parse(args.function)
    models = sorted(m.to_str() for m in minimal_models(f, ideal))
    if args.format == "json":
        _emit_json({"models": models})
        return
    for m in models:
        _emit(m)


def cmd_unique(args):
    if args.points:
        ideal = vanishing_ideal(load_points(args.points, args.field, args.vars))
    elif args.ideal:
        _, ideal = load_ideal(args.ideal, args.field, args.vars)
    else:
        raise ParseError("unique needs an ideal file or --points")
    flag = unique_gb_fast_check(ideal)
    if args.format == "json":
        _emit_json({"unique": flag})
    else:
        _emit(f"unique: {'true' if flag else 'false'}")


def cmd_distract(args):
    ring, mono = load_monomial_ideal(args.ideal, args.field, args.vars)
    tuples = load_tuples(args.tuples, ring)
    ideal = distraction_ideal(ring, mono, tuples)
    _print_generators(ideal, args)


def cmd_natural(args):
    ring, mono = load_monomial_ideal(args.ideal, args.field, args.vars)
    ideal = natural_distraction(ring, mono)
    _print_generators(ideal, args)


def _print_generators(ideal, args):
    if args.format == "json":
        _emit_json({"generators": [g.to_str() for g in ideal.gens]})
        return
    for g in ideal.gens:
        _emit(g.to_str())


def cmd_staircase(args):
    ring, mono = load_monomial_ideal(args.ideal, args.field, args.vars)
    pts = staircase(ring, mono)
    rows = [",".join(ring.field.to_str(c) for c in p) for p in pts]
    if args.format == "json":
        _emit_json({"points": rows})
        return
    for row in rows:
        _emit(row)
    if args.diagram:
        for line in _staircase_diagram(ring, mono):
            _emit(line)


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
    if args.format == "json":
        _emit_json(
            {
                "grid": {
                    ring.vars[i]: spec.generator(i).to_str()
                    for i in range(ring.nvars)
                }
            }
        )
        return
    for i in range(ring.nvars):
        _emit(f"{ring.vars[i]}: poly {spec.generator(i).to_str()}")


def cmd_grid(args):
    spec = load_grid(args.grid, args.field, args.vars)
    ring = spec.ring
    if args.points:
        pts = spec.points()
        rows = [",".join(ring.field.to_str(c) for c in p) for p in pts]
        if args.format == "json":
            _emit_json({"points": rows})
            return
        for row in rows:
            _emit(row)
        return
    if args.format == "json":
        _emit_json({"generators": [g.to_str() for g in spec.generators()]})
        return
    for g in spec.generators():
        _emit(g.to_str())


def cmd_complement(args):
    spec = load_grid(args.grid, args.field, args.vars)
    _, first = load_ideal(args.ideal, args.field, args.vars)
    second, cert = complementary_pair(spec, first)
    gb = second.groebner()
    if args.format == "json":
        _emit_json(
            {
                "multiplicity_grid": cert.grid_multiplicity,
                "multiplicity_input": cert.multiplicity_1,
                "multiplicity_complement": cert.multiplicity_2,
                "certificate": cert.ok,
                "basis": [g.to_str(gb.order) for g in gb.elements],
            }
        )
        return
    _emit(f"multiplicity_grid: {cert.grid_multiplicity}")
    _emit(f"multiplicity_input: {cert.multiplicity_1}")
    _emit(f"multiplicity_complement: {cert.multiplicity_2}")
    _emit("certificate: ok")
    for line in _basis_lines(gb):
        _emit(line)


def cmd_shift(args):
    ring, ideal = load_ideal(args.ideal, args.field, args.vars)
    shift = load_shift(args.shift, ring)
    shifted = shift_ideal(ideal, shift)
    _print_generators(shifted, args)


def cmd_basic_sets(args):
    ring, ideal = load_ideal(args.ideal, args.field, args.vars)
    sets = enumerate_basic_sets(ideal, bound=args.bound)
    rows = [", ".join(term_str(t, ring.vars) for t in s) for s in sets]
    if args.format == "json":
        _emit_json({"basic_sets": rows})
        return
    for row in rows:
        _emit(row)


def _selfcheck_fail(reason, args, trial, ideal):
    """Report a failed trial; everything after the FAIL line is an ideal
    file that reproduces it."""
    ring = ideal.ring
    _emit(f"selfcheck: FAIL ({reason})")
    _emit(f"# seed: {args.seed}, trial: {trial}")
    _emit(f"# field: {ring.field.name}")
    _emit(f"# vars: {', '.join(ring.vars)}")
    for g in ideal.gens:
        _emit(g.to_str())
    raise SystemExit(4)


def cmd_selfcheck(args):
    rng = Random(args.seed)
    rings = corpus_rings(2) + corpus_rings(3)
    checked = 0
    for trial in range(1, args.trials + 1):
        ring = rng.choice(rings)
        ideal = random_zero_dim_ideal(rng, ring, max_mult=args.max_mult)
        fan = enumerate_fan(ideal)
        oracle = fan_oracle_zerodim(ideal, bound=args.max_mult)
        if fan != oracle:
            _selfcheck_fail("fan and oracle disagree", args, trial, ideal)
        if unique_gb_fast_check(ideal) != (fan.size == 1):
            _selfcheck_fail(
                "factor-closed test disagrees with fan size", args, trial, ideal
            )
        checked += 1
    _emit(f"selfcheck: ok ({checked} random ideals, seed {args.seed})")


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
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:
        return int(exc.code or 0)
    except GbfanError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # bug trap
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
