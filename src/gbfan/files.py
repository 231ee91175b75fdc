"""Plain-text input formats.

Every file may start with header comments:

    # field: QQ            (or GF(p))
    # vars: x, y, z

Command-line flags override headers.  Ideal files list one generator per
line; point files are CSV rows of coordinates; grid, shift, and constant
tuple files use per-variable lines like ``x: 0, 1/5, 2, -1`` or
``x: poly x^2 - 2``.
"""

from __future__ import annotations

from .errors import DomainError, DuplicatePoint, ParseError
from .field import parse_field
from .monomials import MonomialIdeal
from .groebner import Ideal
from .points import GridSpec, PointSet
from .ring import LinearShift, PolyRing


def _read(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _split_headers(lines):
    field = None
    varnames = None
    body = []
    for line in lines:
        s = line.strip()
        if not s:
            continue
        if s.startswith("#"):
            content = s[1:].strip()
            if content.lower().startswith("field:"):
                field = parse_field(content[len("field:"):])
            elif content.lower().startswith("vars:"):
                varnames = [v.strip() for v in content[len("vars:"):].split(",") if v.strip()]
            continue
        body.append(s)
    return field, varnames, body


def resolve_ring(path: str, field_flag: str | None, vars_flag: str | None):
    """Ring from file headers and/or flags; flags win. Returns (ring, body)."""
    field, varnames, body = _split_headers(_read(path))
    if field_flag:
        field = parse_field(field_flag)
    if vars_flag:
        varnames = [v.strip() for v in vars_flag.split(",") if v.strip()]
    if field is None:
        raise ParseError(f"{path}: no field given (use a '# field:' header or --field)")
    if not varnames:
        raise ParseError(f"{path}: no variables given (use a '# vars:' header or --vars)")
    return PolyRing(field, varnames), body


def load_ideal(path: str, field_flag=None, vars_flag=None):
    ring, body = resolve_ring(path, field_flag, vars_flag)
    return ring, Ideal(ring, [ring.parse(line) for line in body])


def load_monomial_ideal(path: str, field_flag=None, vars_flag=None):
    ring, ideal = load_ideal(path, field_flag, vars_flag)
    exps = []
    for g in ideal.gens:
        if len(g.coeffs) != 1:
            raise ParseError(f"{path}: generator {g.to_str()!r} is not a monomial")
        exps.append(next(iter(g.coeffs)))
    return ring, MonomialIdeal(ring.nvars, exps)


def _literals(field, text: str, path: str) -> tuple:
    """A comma list of field literals, for point rows, grid roots, tuples
    and shift pairs alike: an empty entry is a parse error, naming the
    file, and an empty (stripped) text lists none."""
    try:
        return tuple(map(field.parse, text.split(","))) if text else ()
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_points(path: str, field_flag=None, vars_flag=None):
    ring, body = resolve_ring(path, field_flag, vars_flag)
    rows = [_literals(ring.field, line, path) for line in body]
    try:
        return PointSet(ring, rows)
    except (ParseError, DuplicatePoint) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _per_variable_lines(ring: PolyRing, body, path: str):
    """Map 'var: payload' lines to payload strings indexed by variable."""
    seen: dict[int, str] = {}
    for line in body:
        if ":" not in line:
            raise ParseError(f"{path}: expected 'var: ...' in {line!r}")
        name, payload = line.split(":", 1)
        i = ring.var_index(name.strip())
        if i in seen:
            raise ParseError(f"{path}: duplicate line for {name.strip()!r}")
        seen[i] = payload.strip()
    missing = [ring.vars[i] for i in range(ring.nvars) if i not in seen]
    if missing:
        raise ParseError(f"{path}: missing lines for {', '.join(missing)}")
    return [seen[i] for i in range(ring.nvars)]


def load_grid(path: str, field_flag=None, vars_flag=None):
    ring, body = resolve_ring(path, field_flag, vars_flag)
    payloads = _per_variable_lines(ring, body, path)
    entries = []
    for payload in payloads:
        if payload.startswith("poly "):
            entries.append(("poly", ring.parse(payload[len("poly "):])))
        else:
            entries.append(("roots", _literals(ring.field, payload, path)))
    try:
        return GridSpec(ring, tuple(entries))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _aux_lines(path: str, ring: PolyRing):
    """Per-variable payloads of a file whose headers must match the ring."""
    field, varnames, body = _split_headers(_read(path))
    if field is not None and field != ring.field:
        raise ParseError(f"{path}: field header disagrees with the ring")
    if varnames and list(varnames) != list(ring.vars):
        raise ParseError(f"{path}: vars header disagrees with the ring")
    return _per_variable_lines(ring, body, path)


def load_tuples(path: str, ring: PolyRing):
    """Per-variable constant tuples (distraction spec) for a known ring;
    `distraction_ideal` checks them."""
    return [_literals(ring.field, p, path) for p in _aux_lines(path, ring)]


def load_shift(path: str, ring: PolyRing) -> LinearShift:
    """Per-variable 'x: scale, offset' lines."""
    scales, offsets = [], []
    for name, payload in zip(ring.vars, _aux_lines(path, ring)):
        pair = _literals(ring.field, payload, path)
        if len(pair) != 2:
            raise ParseError(f"{path}: {name} needs 'scale, offset'")
        scales.append(pair[0])
        offsets.append(pair[1])
    try:
        return LinearShift(ring, scales, offsets)
    except DomainError as exc:
        raise ParseError(f"{path}: {exc}") from exc
