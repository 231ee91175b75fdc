"""Command-line interface: formats, exit codes, round trips."""

import json

import pytest

import gbfan.cli
from gbfan import parse_field, PolyRing
from gbfan.cli import main
from gbfan.fan import GroebnerFan
from gbfan.files import load_ideal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def demo(tmp_path):
    files = {}
    files["points"] = tmp_path / "pts.csv"
    files["points"].write_text(
        "# field: GF(2)\n# vars: x, y, z\n1,0,0\n0,1,0\n1,0,1\n"
    )
    files["ideal"] = tmp_path / "j1.txt"
    files["ideal"].write_text(
        "# field: QQ\n# vars: x, y\n"
        "(x^2+1)*(x-1)*(x-2)\n(y^2-2)*(y+2)\nx - 1 + y^2 - 2\n"
    )
    files["grid"] = tmp_path / "grid.txt"
    files["grid"].write_text(
        "# field: QQ\n# vars: x, y\nx: poly (x^2+1)*(x-1)*(x-2)\ny: poly (y^2-2)*(y+2)\n"
    )
    files["mono"] = tmp_path / "mono.txt"
    files["mono"].write_text("# field: QQ\n# vars: x, y\nx^5\nx^4*y\nx*y^2\ny^4\n")
    files["tuples"] = tmp_path / "pi.txt"
    files["tuples"].write_text("x: 3, 2, 5, 7, 11\ny: 2, -1, 3, 12\n")
    files["shift"] = tmp_path / "shift.txt"
    files["shift"].write_text("x: 1, 1\ny: 1, -2\n")
    return files


def test_gb_text(demo, capsys):
    code, out, _ = run(capsys, "gb", str(demo["ideal"]))
    assert code == 0
    assert out.splitlines() == ["order: degrevlex", "x - 1", "y^2 - 2"]


def test_gb_json_roundtrip(demo, capsys):
    code, out, _ = run(capsys, "gb", str(demo["ideal"]), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    ring = PolyRing(parse_field("QQ"), ("x", "y"))
    reparsed = [ring.parse(t) for t in payload["basis"]]
    assert reparsed == [ring.parse("x - 1"), ring.parse("y^2 - 2")]


def test_gb_order_flag(demo, capsys):
    code, out, _ = run(capsys, "gb", str(demo["ideal"]), "--order", "lex")
    assert code == 0
    assert out.splitlines()[0] == "order: lex"


def test_fan_text_and_json(demo, capsys):
    code, out, _ = run(capsys, "fan", str(demo["ideal"]))
    assert code == 0
    assert out.splitlines()[0] == "gfan_number: 1"
    code, out, _ = run(capsys, "fan", str(demo["ideal"]), "--format", "json")
    payload = json.loads(out)
    assert payload["gfan_number"] == 1
    assert payload["cones"][0]["lt_ideal"] == ["y^2", "x"]
    assert payload["cones"][0]["cone"] == []


def test_fan_unique_consistency(demo, capsys):
    _, fan_out, _ = run(capsys, "fan", str(demo["ideal"]), "--format", "json")
    cones = json.loads(fan_out)["gfan_number"]
    _, uniq_out, _ = run(capsys, "unique", str(demo["ideal"]))
    assert (cones == 1) == (uniq_out.strip() == "unique: true")


def test_points_and_models(demo, capsys):
    code, out, _ = run(capsys, "points", str(demo["points"]), "--order", "lex")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order: lex"
    assert "quotient_basis: 1, z, y" in lines[-1]
    code, out, _ = run(capsys, "models", str(demo["points"]), "-f", "y*z + y")
    assert code == 0
    assert out.splitlines() == ["x + 1", "y"]


def test_unique_points_flag(demo, capsys):
    code, out, _ = run(capsys, "unique", "--points", str(demo["points"]))
    assert code == 0
    assert out.strip() == "unique: false"


def test_unique_rejects_ideal_with_points(tmp_path, capsys):
    # the ideal has two cones; a one-point file must not replace it
    two = tmp_path / "two.txt"
    two.write_text("# field: QQ\n# vars: x, y\nx^2 - y\ny^2 - 1\n")
    point = tmp_path / "one.csv"
    point.write_text("# field: GF(5)\n# vars: x, y\n1,2\n")
    assert run(capsys, "unique", str(two))[:2] == (0, "unique: false\n")
    code, out, err = run(capsys, "unique", str(two), "--points", str(point))
    assert code == 2 and out == ""
    assert err.startswith("error: unique takes an ideal file or --points")


def test_distract_and_natural(demo, capsys):
    code, out, _ = run(capsys, "distract", str(demo["mono"]), str(demo["tuples"]))
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out2, _ = run(capsys, "natural", str(demo["mono"]))
    assert code == 0
    ring = PolyRing(parse_field("QQ"), ("x", "y"))
    gens = {ring.parse(t) for t in out2.splitlines()}
    assert ring.parse("x*y*(y-1)") in gens


def test_staircase_with_diagram(demo, capsys):
    code, out, _ = run(capsys, "staircase", str(demo["mono"]), "--diagram")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0,0"
    csv_rows = [l for l in lines if "," in l]
    assert len(csv_rows) == 11
    art = [l for l in lines if "●" in l or "○" in l]
    assert art and all(len(l) == len(art[0]) for l in art)


def test_staircase_three_variables(tmp_path, capsys):
    mono = tmp_path / "mono3.txt"
    mono.write_text("# field: QQ\n# vars: x, y, z\nx^2\nx*y*z^2\ny^2\nz^3\n")
    code, out, _ = run(capsys, "staircase", str(mono))
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 11
    assert rows[0] == "0,0,0" and rows[-1] == "1,1,1"


def test_unique_true_for_factor_closed_points(tmp_path, capsys):
    pts = tmp_path / "four.csv"
    pts.write_text("# field: QQ\n# vars: x, y, z\n0,0,0\n1,0,0\n1,1,0\n1,1,1\n")
    code, out, _ = run(capsys, "unique", "--points", str(pts))
    assert code == 0
    assert out.strip() == "unique: true"


def test_mgrid(demo, capsys):
    code, out, _ = run(capsys, "mgrid", str(demo["ideal"]))
    assert code == 0
    assert out.splitlines() == ["x: poly x - 1", "y: poly y^2 - 2"]


def test_grid_expansion(demo, capsys, tmp_path):
    code, out, _ = run(capsys, "grid", str(demo["grid"]))
    assert code == 0
    assert len(out.splitlines()) == 2
    roots = tmp_path / "roots.txt"
    roots.write_text("# field: QQ\n# vars: x, y\nx: 0, 1\ny: 2\n")
    code, out, _ = run(capsys, "grid", str(roots), "--points")
    assert code == 0
    assert out.splitlines() == ["0,2", "1,2"]


def test_complement(demo, capsys):
    code, out, _ = run(capsys, "complement", str(demo["grid"]), str(demo["ideal"]))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "multiplicity_grid: 12"
    assert lines[1] == "multiplicity_input: 2"
    assert lines[2] == "multiplicity_complement: 10"
    assert lines[3] == "certificate: ok"
    assert "y^3 + 2*y^2 - 2*y - 4" in lines


def test_shift(demo, capsys):
    code, out, _ = run(capsys, "shift", str(demo["ideal"]), str(demo["shift"]))
    assert code == 0
    ring = PolyRing(parse_field("QQ"), ("x", "y"))
    gens = [ring.parse(t) for t in out.splitlines()]
    assert gens[0] == ring.parse("(x^2+2*x+2)*(x)*(x-1)")


def test_basic_sets(demo, capsys):
    code, out, _ = run(capsys, "basic-sets", str(demo["ideal"]))
    assert code == 0
    assert out.splitlines() == ["1, y"]


def test_selfcheck(capsys):
    code, out, _ = run(capsys, "selfcheck", "--seed", "3", "--trials", "2")
    assert code == 0
    assert out.startswith("selfcheck: ok")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        pytest.param("selfcheck", "--max-mult", "0", id="--max-mult-0"),
        pytest.param("selfcheck", "--trials", "-1", id="--trials--1"),
        pytest.param("basic-sets", "--bound", "-1", id="basic-sets---bound--1"),
    ],
)
def test_selfcheck_rejects_bad_counts(demo, capsys, command, flag, value):
    inputs = {"selfcheck": ["--seed", "3"], "basic-sets": [str(demo["ideal"])]}
    code, out, err = run(capsys, command, *inputs[command], flag, value)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {command} needs")


def test_selfcheck_failure_prints_reproducible_ideal(tmp_path, capsys, monkeypatch):
    drawn = []

    def wrong_oracle(ideal, bound):
        drawn.append(ideal)
        return GroebnerFan(ideal.ring, [])

    monkeypatch.setattr(gbfan.cli, "fan_oracle_zerodim", wrong_oracle)
    code, out, _ = run(capsys, "selfcheck", "--seed", "3", "--trials", "2")
    assert code == 4
    lines = out.splitlines()
    assert lines[0] == "selfcheck: FAIL (fan and oracle disagree)"
    assert lines[1] == "# seed: 3, trial: 1"
    repro = tmp_path / "repro.txt"
    repro.write_text("\n".join(lines[1:]) + "\n")
    ring, ideal = load_ideal(str(repro))
    assert len(drawn) == 1
    assert ring == drawn[0].ring
    assert ideal.gens == drawn[0].gens


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# field: QQ\n# vars: x, y\nx +* y\n")
    code, _, err = run(capsys, "gb", str(bad))
    assert code == 2 and "error" in err


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "gb", "/nonexistent/ideal.txt")
    assert code == 2


def test_exit_code_domain_error(tmp_path, capsys):
    linear = tmp_path / "lin.txt"
    linear.write_text("# field: QQ\n# vars: x, y\nx + y\n")
    code, _, err = run(capsys, "basic-sets", str(linear))
    assert code == 3 and "error" in err


QQ_XY = "# field: QQ\n# vars: x, y\n"
QQ_X = "# field: QQ\n# vars: x\n"


@pytest.mark.parametrize(
    "command, text, aux_text, message",
    [
        pytest.param(
            "points", QQ_XY + "1,2\n1,2\n", None, "duplicate points",
            id="duplicate-point",
        ),
        pytest.param(
            "points", QQ_XY + "1,2,3\n", None, "has 3 coordinates",
            id="row-length",
        ),
        pytest.param(
            "shift", QQ_XY + "x*y\n", "x: 0, 1\ny: 1, 0\n", "scales must be nonzero",
            id="zero-shift-scale",
        ),
        pytest.param(
            "grid", QQ_XY + "x: poly x*y\ny: 1\n", None, "must be univariate",
            id="grid-poly-xy",
        ),
        pytest.param(
            "distract", QQ_XY + "x^2\ny\n", "# vars: y, x\nx: 1, 2\ny: 3\n",
            "vars header disagrees", id="tuples-vars-header",
        ),
        pytest.param(
            "distract", QQ_X + "x^2\n", "# field: GF(5)\nx: 0, 7\n",
            "field header disagrees", id="tuples-field-header",
        ),
        pytest.param(
            "shift", QQ_X + "x^2\n", "# field: GF(3)\nx: 1, 1\n",
            "field header disagrees", id="shift-field-header",
        ),
    ],
)
def test_loader_errors_exit_2(tmp_path, capsys, command, text, aux_text, message):
    (tmp_path / "input.txt").write_text(text)
    argv = [command, str(tmp_path / "input.txt")]
    if aux_text is not None:
        (tmp_path / "second.txt").write_text(aux_text)
        argv.append(str(tmp_path / "second.txt"))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_zero_ideal_gb(tmp_path, capsys):
    empty = tmp_path / "zero.txt"
    empty.write_text("# field: QQ\n# vars: x, y\n")
    code, out, _ = run(capsys, "gb", str(empty))
    assert code == 0
    assert out.splitlines() == ["order: degrevlex"]


def test_flags_override_headers(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    raw.write_text("x^2 - y\n")
    code, out, _ = run(capsys, "gb", str(raw), "--field", "QQ", "--vars", "x,y")
    assert code == 0
    assert "x^2 - y" in out


def test_byte_identical_reruns(demo, capsys):
    _, out1, _ = run(capsys, "fan", str(demo["ideal"]), "--format", "json")
    _, out2, _ = run(capsys, "fan", str(demo["ideal"]), "--format", "json")
    assert out1 == out2


def test_fan_json_reparses(tmp_path, capsys):
    sym = tmp_path / "sym.txt"
    sym.write_text(
        "# field: QQ\n# vars: x, y\nx^2 + x*y + y^2\nx^3\nx^2*y\nx*y^2\ny^3\n"
    )
    _, out, _ = run(capsys, "fan", str(sym), "--format", "json")
    payload = json.loads(out)
    assert payload["gfan_number"] == 2
    ring = PolyRing(parse_field(payload["field"]), payload["vars"])
    for cone in payload["cones"]:
        basis = [ring.parse(t) for t in cone["reduced_gb"]]
        lt = {ring.parse(t) for t in cone["lt_ideal"]}
        assert len(basis) == len(lt)


# Pinned stdout.  The printed basis order of a multi-cone fan follows the
# facet points of the Fourier-Motzkin back-substitution, and the printed
# rows of an ordering are its input rows, not its canonical form.
FAN_X2_Y3 = """\
gfan_number: 9
cone 1:
  lt_ideal: z, y^3
  cone: [-2 3 0] [-1 -1 1]
  basis:
    z - x*y
    y^3 - x^2
cone 2:
  lt_ideal: z, x^2
  cone: [-1 -1 1] [2 -3 0]
  basis:
    x^2 - y^3
    z - x*y
cone 3:
  lt_ideal: z^2, x*z, x*y, x^2
  cone: [0 -5 2] [1 1 -1]
  basis:
    x*y - z
    x^2 - y^3
    x*z - y^4
    z^2 - y^5
cone 4:
  lt_ideal: z^3, y*z^2, y^2*z, y^3, x*y
  cone: [-5 0 3] [1 1 -1]
  basis:
    x*y - z
    y^3 - x^2
    y^2*z - x^3
    y*z^2 - x^4
    z^3 - x^5
cone 5:
  lt_ideal: y*z^2, y^2*z, y^3, x*y, x^5
  cone: [-4 1 2] [5 0 -3]
  basis:
    x*y - z
    y*z^2 - x^4
    y^2*z - x^3
    x^5 - z^3
    y^3 - x^2
cone 6:
  lt_ideal: y^2*z, y^3, x*y, x^4
  cone: [-3 2 1] [4 -1 -2]
  basis:
    x*y - z
    y^2*z - x^3
    y^3 - x^2
    x^4 - y*z^2
cone 7:
  lt_ideal: y^3, x*y, x^3
  cone: [-2 3 0] [3 -2 -1]
  basis:
    x*y - z
    y^3 - x^2
    x^3 - y^2*z
cone 8:
  lt_ideal: y^4, x*y, x^2
  cone: [-1 4 -1] [2 -3 0]
  basis:
    x*y - z
    x^2 - y^3
    y^4 - x*z
cone 9:
  lt_ideal: y^5, x*z, x*y, x^2
  cone: [0 5 -2] [1 -4 1]
  basis:
    x*y - z
    x*z - y^4
    x^2 - y^3
    y^5 - z^2
"""

GB_WEIGHT_2_1 = """\
order: weight[[2, 1], [1, 1], [0, -1]]
y^3 + x - 2*y
x^2 + x*y + y^2 - 1
"""

GB_MATRIX_12_0M1 = """\
order: matrix[[1, 2], [0, -1]]
x^3 - y
y^2 + x*y + x^2 - 1
"""


def test_pinned_fan_and_order_output(tmp_path, capsys):
    twisted = tmp_path / "twisted.txt"
    twisted.write_text("# field: QQ\n# vars: x, y, z\nx^2 - y^3\nx*y - z\n")
    code, out, _ = run(capsys, "fan", str(twisted))
    assert code == 0
    assert out == FAN_X2_Y3
    cubic = tmp_path / "cubic.txt"
    cubic.write_text("# field: QQ\n# vars: x, y\nx^2 + x*y + y^2 - 1\nx^3 - y\n")
    code, out, _ = run(capsys, "gb", str(cubic), "--order", "weight:2,1")
    assert code == 0
    assert out == GB_WEIGHT_2_1
    code, out, _ = run(capsys, "gb", str(cubic), "--order", "matrix:1,2;0,-1")
    assert code == 0
    assert out == GB_MATRIX_12_0M1


def test_failing_command_writes_no_stdout(tmp_path, capsys):
    mono = tmp_path / "mono3.txt"
    mono.write_text("# field: QQ\n# vars: x, y, z\nx^2\ny\nz^2\n")
    code, out, err = run(capsys, "staircase", str(mono), "--diagram")
    assert code == 3
    assert out == ""
    assert err == "error: DomainError: --diagram needs exactly two variables\n"


# Pinned stdout of the commands whose text has lines the JSON lacks.
POINTS_LEX = """\
order: lex
z^2 + z
y*z
y^2 + y
x + y + 1
quotient_basis: 1, z, y
"""

POINTS_JSON = (
    '{"schema": 1, "order": "degrevlex", '
    '"basis": ["x + y + 1", "z^2 + z", "y*z", "y^2 + y"], '
    '"quotient_basis": ["1", "z", "y"]}\n'
)

COMPLEMENT_TEXT = """\
multiplicity_grid: 12
multiplicity_input: 2
multiplicity_complement: 10
certificate: ok
order: degrevlex
y^3 + 2*y^2 - 2*y - 4
x^3*y + 2*x^3 - 2*x^2*y - 4*x^2 + x*y + 2*x - 2*y - 4
x^4 - 3*x^3 + 3*x^2 - 3*x + 2
"""

COMPLEMENT_JSON = (
    '{"schema": 1, "multiplicity_grid": 12, "multiplicity_input": 2, '
    '"multiplicity_complement": 10, "certificate": true, '
    '"basis": ["y^3 + 2*y^2 - 2*y - 4", '
    '"x^3*y + 2*x^3 - 2*x^2*y - 4*x^2 + x*y + 2*x - 2*y - 4", '
    '"x^4 - 3*x^3 + 3*x^2 - 3*x + 2"]}\n'
)


def test_pinned_points_and_complement_output(demo, capsys):
    pinned = [
        (("points", str(demo["points"]), "--order", "lex"), POINTS_LEX),
        (("points", str(demo["points"]), "--format", "json"), POINTS_JSON),
        (("complement", str(demo["grid"]), str(demo["ideal"])), COMPLEMENT_TEXT),
        (
            ("complement", str(demo["grid"]), str(demo["ideal"]), "--format", "json"),
            COMPLEMENT_JSON,
        ),
    ]
    for argv, expected in pinned:
        assert run(capsys, *argv) == (0, expected, "")
