"""Command-line interface: formats, exit codes, round trips."""

import hashlib
import json

import pytest

import gbfan.cli
from gbfan import degrevlex, enumerate_fan, parse_field, PolyRing
from gbfan.cli import main
from gbfan.fan import GroebnerFan
from gbfan.files import load_ideal
from gbfan.terms import term_str

from conftest import found_ideal_text


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


@pytest.mark.parametrize(
    "spec, lines",
    [
        ("lex", ["order: lex", "y^2 - 2", "x - 1"]),
        # both equal degrevlex on two variables; the label is the one asked for
        ("deglex", ["order: deglex", "x - 1", "y^2 - 2"]),
        ("weight:1,1", ["order: weight[[1, 1], [1, 1], [0, -1]]", "x - 1", "y^2 - 2"]),
    ],
)
def test_gb_order_converts_the_degrevlex_basis(demo, capsys, record_calls, spec, lines):
    import gbfan.groebner

    runs = record_calls(gbfan.groebner, "buchberger_dicts")
    code, out, _ = run(capsys, "gb", str(demo["ideal"]), "--order", spec)
    assert code == 0
    assert out.splitlines() == lines
    assert [call["order"] for call in runs] == [degrevlex(2)]


# Every pinned stdout of a `gbfan` command, in one table.  The input files
# go by name into one directory, the command runs there, and a row holds
# its argv, those names included, and the SHA-256 of the expected stdout.
PINNED_INPUTS = {
    "pts.csv": "1,2,3\n5,7,11\n-1,4,9\n13,0,2\n",
    "qq.csv": "1,2,3\n1/2,7,-1\n0,0,0\n2,-3,5\n",
    "cyclic4.ideal": "# field: GF(32003)\n# vars: x, y, z, w\n"
    "x + y + z + w\nx*y + y*z + z*w + w*x\n"
    "x*y*z + y*z*w + z*w*x + w*x*y\nx*y*z*w - 1\n",
    "katsura3.ideal": "# field: QQ\n# vars: x, y, z, w\n"
    "x + 2*y + 2*z + 2*w - 1\nx^2 + 2*y^2 + 2*z^2 + 2*w^2 - x\n"
    "2*x*y + 2*y*z + 2*z*w - y\n2*x*z + y^2 + 2*y*w - z\n",
    "katsura5.ideal": "# field: GF(32003)\n# vars: x0, x1, x2, x3, x4, x5\n"
    "x0 + 2*x1 + 2*x2 + 2*x3 + 2*x4 + 2*x5 - 1\n"
    "x0^2 + 2*x1^2 + 2*x2^2 + 2*x3^2 + 2*x4^2 + 2*x5^2 - x0\n"
    "2*x0*x1 + 2*x1*x2 + 2*x2*x3 + 2*x3*x4 + 2*x4*x5 - x1\n"
    "2*x0*x2 + x1^2 + 2*x1*x3 + 2*x2*x4 + 2*x3*x5 - x2\n"
    "2*x0*x3 + 2*x1*x2 + 2*x1*x4 + 2*x2*x5 - x3\n"
    "2*x0*x4 + 2*x1*x3 + x2^2 + 2*x1*x5 - x4\n",
    "cyclic5.ideal": "# field: QQ\n# vars: x0, x1, x2, x3, x4\n"
    "x0 + x1 + x2 + x3 + x4\n"
    "x0*x1 + x1*x2 + x2*x3 + x3*x4 + x4*x0\n"
    "x0*x1*x2 + x1*x2*x3 + x2*x3*x4 + x3*x4*x0 + x4*x0*x1\n"
    "x0*x1*x2*x3 + x1*x2*x3*x4 + x2*x3*x4*x0 + x3*x4*x0*x1 + x4*x0*x1*x2\n"
    "x0*x1*x2*x3*x4 - 1\n",
    "fracs.ideal": "# field: QQ\n# vars: x, y, z\n"
    "2/3*x^2*y + 1/3*y*z - 4\n5/7*x*y^2 + 11/6*x - 7/2*z\n"
    "-9/4*z^2 + 3/5*x*y + 1/3*x\n",
    "posdim.ideal": "# field: QQ\n# vars: x, y, z\nx^2 - y^3\nx*y - z\n",
    "found-qq.ideal": found_ideal_text("found-qq"),
    "found-gf.ideal": found_ideal_text("found-gf"),
    "lex-a.ideal": found_ideal_text("lex-a"),
    "lex-b.ideal": found_ideal_text("lex-b"),
    "grid7.txt": "# field: GF(7)\n# vars: x, y\nx: 0, 1, 3/2\ny: 2, 5\n",
    "grid7-ideal.txt": "# field: GF(7)\n# vars: x, y\nx*(x-1)\n(y-2)*(y-5)\n",
    "mono5.txt": "# field: GF(5)\n# vars: x, y\nx^3\nx*y^2\ny^4\n",
    "tuples5.txt": "x: 1/2, 2, 4\ny: 0, 3, 1, 2\n",
    "shift7.txt": "x: 3, 1/2\ny: 1, 4\n",
}

BASIC_SETS_FRACS = "dca9f8f1da4c48b0b5f0e86220ac83255be0bc6fce360f74e3826800606cf91a"

# One row per pin, after a comment naming the code path it guards.
PINNED_STDOUT = [
    # Buchberger-Möller on residues (`ideal_of_points`, GF(32003))
    pytest.param(
        ["points", "pts.csv", "--field", "GF(32003)", "--vars", "x,y,z"],
        "8fb5b621d866345942937b5618897b8877ae3d218b0b225f3c5790dc3cb1a4ad",
        id="pts-gf",
    ),
    # Buchberger-Möller's fraction-free kernel on integer points
    pytest.param(
        ["points", "pts.csv", "--field", "QQ", "--vars", "x,y,z"],
        "f9a261af6bcf69ea7e73ccf7b22263f8351683665e1ab6c1ac3079a7ae99df51",
        id="pts-qq",
    ),
    # Buchberger-Möller on packed residue rows, widest slots
    # (`echelon_reduce`, GF(2^61 - 1))
    pytest.param(
        ["points", "pts.csv", "--field", "GF(2305843009213693951)", "--vars", "x,y,z"],
        "5642ee81894f11373637432f403dcb024a5968ab261e60af4855401e5a7ee062",
        id="pts-gf61",
    ),
    # Buchberger-Möller on a rational coordinate, Fractions mixed with ints
    pytest.param(
        ["points", "qq.csv", "--field", "QQ", "--vars", "x,y,z"],
        "95beafe4e65a6c66d9519ca61d8a5f52c9948d61aee27f9a5fcc9d1e9524a1e4",
        id="qq",
    ),
    # Buchberger's residue kernel, keys and first divisors memoised per run
    pytest.param(
        ["gb", "cyclic4.ideal"],
        "7e00f23f3129114b991db433cfee970a3e38924602484379d9f20e1a92fe4841",
        id="cyclic4",
    ),
    # Buchberger's fraction-free integer kernel over QQ
    pytest.param(
        ["gb", "katsura3.ideal"],
        "7a477dd0ec30bbc8502e38858269bbf30d4b2b5c9ef69d5c857ed5d77e804ff3",
        id="katsura3",
    ),
    # Buchberger's residue kernel on Katsura-5, 22 elements in 6 variables
    pytest.param(
        ["gb", "katsura5.ideal"],
        "370e23954fcff9ac2d0701005a3f871c3b0a99999396cd1bd8804844b36baaae",
        id="katsura5",
    ),
    # the fraction-free kernel on cyclic-5, 20 elements in 5 variables
    pytest.param(
        ["gb", "cyclic5.ideal"],
        "0440d544ffb5619a17b1de05e0c1f644eb806e9884122c886a489425870129a8",
        id="cyclic5",
    ),
    # Buchberger over QQ from fractional, unequal leading coefficients
    pytest.param(
        ["gb", "fracs.ideal"],
        "e16282100139222eac5813aa3c3425dc8e8ae01f06c2dedd5ec502018522e7bd",
        id="fracs",
    ),
    # Buchberger's residue kernel on 61-bit residues, field set by --field
    pytest.param(
        ["gb", "fracs.ideal", "--field", "GF(2305843009213693951)"],
        "9da4cb65baaaf2ebc04aea101d97b0c3e93a57f96c1ac83282686934808c2147",
        id="fracs-gf",
    ),
    # FGLM flips and ordering canonical forms, integer QQ echelon branch
    pytest.param(
        ["fan", "fracs.ideal"],
        "a95ae6cc5407af802b1b1288aca3dca5f928557b91b1f1b7716a1243ee3e24df",
        id="fracs-fan",
    ),
    # the same fan walk on GF(32003) residues
    pytest.param(
        ["fan", "fracs.ideal", "--field", "GF(32003)"],
        "d6592d146ce2d811d387f77a91ef624afbfb1b0c18d4ea9b33eee2dd9de1dd08",
        id="fracs-fan-gf",
    ),
    # FGLM in one variable (`Ideal.univariate_in`) over QQ
    pytest.param(
        ["mgrid", "fracs.ideal"],
        "f3898f95ff9da0174c3c2b39c1acc5dea7d2faeeff3599fbd4e5b067b67cb127",
        id="fracs-mgrid",
    ),
    # the same eliminants over GF(32003)
    pytest.param(
        ["mgrid", "fracs.ideal", "--field", "GF(32003)"],
        "27c34d0452c740e42b9bddc24a3f76ed7527d9f32c8c2e101ad6645314318c1d",
        id="fracs-mgrid-gf",
    ),
    # the basic-set walk's 80 sets and their order, over QQ
    pytest.param(["basic-sets", "fracs.ideal"], BASIC_SETS_FRACS, id="fracs-basic-sets"),
    # the same walk on GF(32003) residues, same digest
    pytest.param(
        ["basic-sets", "fracs.ideal", "--field", "GF(32003)"],
        BASIC_SETS_FRACS,
        id="fracs-basic-sets-gf",
    ),
    # the walk's Buchberger flips on a positive-dimensional ideal
    pytest.param(
        ["fan", "posdim.ideal"],
        "0a8291523cb817b0d2c0e59b9165020212b885909fb095b7e02c84ff152f0e89",
        id="posdim-fan",
    ),
    # `ReducedGB.change_order` to lex by FGLM (the ideal is zero-dimensional)
    pytest.param(
        ["gb", "found-qq.ideal", "--order", "lex"],
        "ed8f5af7c38803094ecf885c9a6d6e79f8403bd1d97c17e74118904c6564277e",
        id="found-qq",
    ),
    # `ReducedGB.change_order` to lex by Buchberger from the basis
    # (the ideal is positive-dimensional)
    pytest.param(
        ["gb", "found-gf.ideal", "--order", "lex"],
        "b712e8b52605d0be00d88530bc128b990b0b76a4488c07e472d1e4d939b9f6e0",
        id="found-gf",
    ),
    # `ReducedGB.change_order` to lex by FGLM on two zero-dimensional ideals
    # whose lex basis Buchberger from the generators is slow to reach
    pytest.param(
        ["gb", "lex-a.ideal", "--order", "lex"],
        "4f99ea6c12e34a265a6384e85e038181310dc0a4c2ecbbdde2723574d9ded8df",
        id="lex-a",
    ),
    # the same FGLM route, the second ideal
    pytest.param(
        ["gb", "lex-b.ideal", "--order", "lex"],
        "4facf36d0247513797f29fbd4d80efb0965a2a300a50e1d61a7bf9ae56af813e",
        id="lex-b",
    ),
    # tag-variable Buchberger on GF(7) residues from `_integral`
    pytest.param(
        ["complement", "grid7.txt", "grid7-ideal.txt"],
        "3523a4cb6a2f1796f28ab8fbf61a7b84638535d99c79832be46a98167ce11dba",
        id="complement-gf",
    ),
    # GF(5) residues printed with `str`
    pytest.param(
        ["staircase", "mono5.txt"],
        "0980b34e36cd31139d2e0de49dd22949eb51634be95f9c14b420eacb8457c523",
        id="staircase-gf",
    ),
    pytest.param(
        ["natural", "mono5.txt"],
        "9cceb2119aa8a1c5ce717bd5dd7e118adc49a1896151846a8c2669bafbd4cf80",
        id="natural-gf",
    ),
    # `distraction_ideal`, the one tuples check, on GF(5) tuples from
    # `files._literals`
    pytest.param(
        ["distract", "mono5.txt", "tuples5.txt"],
        "58b2ec685fcfcdf0123f378a8d78ad19b07c976439432ae698c57d85a054a6af",
        id="distract-gf",
    ),
    # `load_shift`'s scale-offset pairs and `shift_ideal` on GF(7)
    pytest.param(
        ["shift", "grid7-ideal.txt", "shift7.txt"],
        "8a800cb481b3f2569ead8cb3212f584de68fac21d2115cfd2238b0071d374c33",
        id="shift-gf",
    ),
    # `unique_gb_fast_check` on the `vanishing_ideal` of a QQ point file
    pytest.param(
        ["unique", "--points", "pts.csv", "--field", "QQ", "--vars", "x,y,z"],
        "26f27b4805a53903ed4173b93a9e674733c237652aa0d96db6cde0f12b853087",
        id="unique-points",
    ),
    # `minimal_models`, one function's normal forms across a QQ point
    # set's fan
    pytest.param(
        ["models", "qq.csv", "--field", "QQ", "--vars", "x,y,z", "-f", "x^2*y - 3/2*z^2 + 1"],
        "a88ad2c1e891103d8f48d4963fa8dbca2234cd64ddd8becd36d7a0a58b60aae9",
        id="models-qq",
    ),
    # `GridSpec.points` of a grid whose roots include the GF(7) literal 3/2
    pytest.param(
        ["grid", "grid7.txt", "--points"],
        "b2487a9bd970ce8e428998af9fe5afa20c0f90c81f05507bdb9b622afca25318",
        id="grid-points-gf",
    ),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT)
def test_pinned_stdout(tmp_path, monkeypatch, capsys, argv, digest):
    for name, text in PINNED_INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gb_reads_non_ascii_variable_names(tmp_path, capsys):
    path = tmp_path / "greek.ideal"
    path.write_text("# field: QQ\n# vars: α, β\nα^2 - β\nβ^2 - 1\n")
    code, out, err = run(capsys, "gb", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines() == ["order: degrevlex", "β^2 - 1", "α^2 - β"]


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


def test_unique_needs_an_ideal_or_points(capsys):
    code, out, err = run(capsys, "unique")
    assert code == 2 and out == ""
    assert err.startswith("error: unique needs an ideal file or --points")


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


def test_mgrid_unit_ideal_exits_3(tmp_path, capsys):
    unit = tmp_path / "unit.txt"
    unit.write_text("# field: QQ\n# vars: x, y\n1\n")
    code, out, err = run(capsys, "mgrid", str(unit))
    assert (code, out) == (3, "")
    assert err == "error: DomainError: the unit ideal contains no grid ideal\n"


@pytest.mark.parametrize(
    "command, text, flags, expected",
    [
        pytest.param(
            "gb", "# field: QQ\n# vars: x, y\nx^2 - y\n", [],
            ["order: degrevlex", "x^2 - y"], id="ideal",
        ),
        pytest.param(
            "grid", "x: 0, 1\ny: 2\n", ["--field", "QQ", "--vars", "x,y"],
            ["x^2 - x", "y - 2"], id="grid",
        ),
    ],
)
def test_byte_order_mark_is_skipped(tmp_path, capsys, command, text, flags, expected):
    path = tmp_path / "bom.txt"
    path.write_bytes(("\ufeff" + text).encode("utf-8"))
    code, out, _ = run(capsys, command, str(path), *flags)
    assert code == 0
    assert out.splitlines() == expected


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


def test_exit_code_bad_field_digit(tmp_path, capsys):
    # "²" is a digit to str.isdigit but not to int()
    f = tmp_path / "f.txt"
    f.write_text("# field: QQ\n# vars: x, y\nx + y\n")
    code, out, err = run(capsys, "gb", str(f), "--field", "GF(²)")
    assert code == 2 and out == ""
    assert err.startswith("error: bad field spec")


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
        pytest.param(
            "points", QQ_XY + "1.5,2\n", None, "bad rational literal",
            id="qq-decimal-point",
        ),
        pytest.param(
            "grid", QQ_XY + "x: 0.5\ny: 1\n", None, "bad rational literal",
            id="qq-decimal-root",
        ),
        # PointSet and LinearShift make these checks; the loaders name the file
        pytest.param(
            "points", QQ_XY + "1/2,2,3\n", None,
            "input.txt: point 1/2,2,3 has 3 coordinates", id="row-length-in-file",
        ),
        pytest.param(
            "points", QQ_XY + "1/2,2\n0,0\n1/2, 2\n", None,
            "input.txt: duplicate points: 1/2,2 ", id="duplicate-point-in-file",
        ),
        pytest.param(
            "shift", QQ_XY + "x*y\n", "x: 1, 1\ny: 0, 1/2\n",
            "second.txt: linear shift scales must be nonzero",
            id="zero-shift-scale-in-file",
        ),
        # every comma list reads its entries alike: an empty one is an error
        pytest.param(
            "grid", QQ_XY + "x: 0,,1\ny: 1\n", None, "bad rational literal ''",
            id="grid-empty-root",
        ),
        pytest.param(
            "distract", QQ_X + "x^2\n", "x: 3,,5\n", "bad rational literal ''",
            id="tuples-empty-entry",
        ),
        # a bad literal names its file too, in every loader
        pytest.param(
            "grid", "# field: GF(7)\n# vars: x\nx: 0,,1\n", None,
            "input.txt: bad GF(7) literal ''", id="bad-root-in-file",
        ),
        pytest.param(
            "grid", "# field: GF(7)\n# vars: x, y\nx: 0,,1\ny: 2, 5\n", None,
            "bad GF(7) literal ''", id="empty-root",
        ),
        pytest.param(
            "points", QQ_XY + "1.5,2\n", None,
            "input.txt: bad rational literal '1.5'", id="bad-coordinate-in-file",
        ),
        pytest.param(
            "distract", QQ_X + "x^2\n", "x: 3,,5\n",
            "second.txt: bad rational literal ''", id="bad-tuple-entry-in-file",
        ),
        pytest.param(
            "shift", QQ_X + "x^2\n", "x: 1,a\n",
            "second.txt: bad rational literal 'a'", id="bad-shift-entry-in-file",
        ),
        pytest.param(
            "gb", "# vars: x\nx\n", None, "no field given", id="no-field"
        ),
        pytest.param(
            "gb", "# field: QQ\nx\n", None, "no variables given", id="no-vars"
        ),
        pytest.param(
            "natural", QQ_X + "x^2 + x\n", None, "'x^2 + x' is not a monomial",
            id="not-a-monomial",
        ),
        pytest.param(
            "grid", QQ_XY + "x 0, 1\ny: 1\n", None, "expected 'var: ...'",
            id="no-colon",
        ),
        pytest.param(
            "grid", QQ_XY + "x: 0\nx: 1\ny: 1\n", None, "duplicate line for 'x'",
            id="duplicate-line",
        ),
        pytest.param(
            "grid", QQ_XY + "x: 0, 1\n", None, "missing lines for y",
            id="missing-line",
        ),
        pytest.param(
            "shift", QQ_XY + "x*y\n", "x: 1\ny: 1, 0\n",
            "second.txt: x needs 'scale, offset'", id="shift-pair-length",
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
# walk's flip weights, each the primitive sum of the rays on its facet, and
# the printed rows of an ordering are its input rows, not its canonical form.
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
    z - x*y
    x^2 - y^3
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
    y^3 - x^2
    x^5 - z^3
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
    y^4 - x*z
    x^2 - y^3
cone 9:
  lt_ideal: y^5, x*z, x*y, x^2
  cone: [0 5 -2] [1 -4 1]
  basis:
    x*y - z
    x^2 - y^3
    x*z - y^4
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


# Pinned stdout of two zero-dimensional fans, whose neighbours come by FGLM
# flips from the start basis; the printed basis order follows the flips.
FAN_SYMMETRIC = """\
gfan_number: 6
cone 1:
  lt_ideal: z^2, y*z, y^2, x^3
  cone: [-1 -1 2] [-1 2 -1]
  basis:
    x^3
    z^2 - x*y
    y*z - x^2
    y^2 - x*z
cone 2:
  lt_ideal: z^2, y*z, y^3, x*z, x^2*y^2, x^3
  cone: [-2 1 1] [1 -2 1]
  basis:
    x^3
    x*z - y^2
    y*z - x^2
    y^3
    x^2*y^2
    z^2 - x*y
cone 3:
  lt_ideal: z^2, y^3, x*z, x^2
  cone: [-1 -1 2] [2 -1 -1]
  basis:
    y^3
    x^2 - y*z
    x*z - y^2
    z^2 - x*y
cone 4:
  lt_ideal: z^3, y*z, y^2, x*y, x^2*z^2, x^3
  cone: [-2 1 1] [1 1 -2]
  basis:
    z^3
    y*z - x^2
    x*y - z^2
    x^3
    x^2*z^2
    y^2 - x*z
cone 5:
  lt_ideal: z^3, y^2, x*y, x^2
  cone: [-1 2 -1] [2 -1 -1]
  basis:
    y^2 - x*z
    x*y - z^2
    x^2 - y*z
    z^3
cone 6:
  lt_ideal: z^3, y^2*z^2, y^3, x*z, x*y, x^2
  cone: [1 -2 1] [1 1 -2]
  basis:
    y^3
    x*y - z^2
    x*z - y^2
    z^3
    y^2*z^2
    x^2 - y*z
"""

FAN_GF7 = """\
gfan_number: 2
cone 1:
  lt_ideal: z^2, y^3, x*y, x^2
  cone: [-1 0 1]
  basis:
    x^2 + 6
    x*y + 6*y
    z^2 + 6*x*z
    y^3 + 6*y
cone 2:
  lt_ideal: z^3, y*z^2, y^3, x*z, x*y, x^2
  cone: [1 0 -1]
  basis:
    x*z + 6*z^2
    x*y + 6*y
    x^2 + 6
    z^3 + 6*z
    y*z^2 + 6*y*z
    y^3 + 6*y
"""


SYMMETRIC_IDEAL = "# field: QQ\n# vars: x, y, z\nx^2 - y*z\ny^2 - x*z\nz^2 - x*y\nx*y*z\n"
GF7_IDEAL = "# field: GF(7)\n# vars: x, y, z\nx^2 - 1\ny^3 - y\nz^2 - x*z\nx*y - y\n"


@pytest.mark.parametrize(
    "text, expected",
    [(SYMMETRIC_IDEAL, FAN_SYMMETRIC), (GF7_IDEAL, FAN_GF7)],
    ids=["symmetric", "gf7"],
)
def test_pinned_zero_dimensional_fan_output(tmp_path, capsys, text, expected):
    path = tmp_path / "ideal.txt"
    path.write_text(text)
    assert run(capsys, "fan", str(path)) == (0, expected, "")


def _order_free(fan):
    """A fan's text with nothing of the walk's orderings in it: per cone,
    its leading terms, its inequalities and its elements printed in
    degrevlex, the elements sorted and the cones sorted."""
    order = degrevlex(fan.ring.nvars)
    cones = sorted(
        "\n".join(
            [
                ", ".join(term_str(t, fan.ring.vars) for t in sorted(mb.basis.lt_exps)),
                str(mb.cone),
                *sorted(g.to_str(order) for g in mb.basis),
            ]
        )
        for mb in fan
    )
    return "\n\n".join(cones)


# The fans of every pinned `gbfan fan` output, pinned as fans: a change of
# the walk's flip weights may reorder the printed bases, never the fan.
@pytest.mark.parametrize(
    "text, field, digest",
    [
        pytest.param(
            PINNED_INPUTS["fracs.ideal"],
            None,
            "a56109e876ced1bccc7cc1d839899bb27627cdca03a843394e7d1ba48411995d",
            id="fracs-fan",
        ),
        pytest.param(
            PINNED_INPUTS["fracs.ideal"],
            "GF(32003)",
            "31c47819d9235825c7c1fdb5321ad8dd8f49dbc683a49216db946d96f762e844",
            id="fracs-fan-gf",
        ),
        pytest.param(
            PINNED_INPUTS["posdim.ideal"],
            None,
            "7562359f3f98ff0be87741704225a26ff4d0688f8b733285ef8aa65ccc19e428",
            id="posdim-fan",
        ),
        pytest.param(
            SYMMETRIC_IDEAL,
            None,
            "6234cc97544f640c30a5fb02321d3a41dfb0fb5b1edd632c9a7b31c2bad3abe5",
            id="symmetric",
        ),
        pytest.param(
            GF7_IDEAL,
            None,
            "62578b8f298cbe9597121042d5f8756ccfa83a6e8d5319e5c96992ee7b1199d3",
            id="gf7",
        ),
    ],
)
def test_pinned_fans_order_free(tmp_path, text, field, digest):
    path = tmp_path / "ideal.txt"
    path.write_text(text)
    _, ideal = load_ideal(str(path), field)
    rendered = _order_free(enumerate_fan(ideal))
    assert hashlib.sha256(rendered.encode()).hexdigest() == digest


def test_prime_field_point_files_read_ratios(tmp_path, capsys):
    # 1/2 is 4 in GF(7); a denominator divisible by 7 is a parse error
    half, four, bad = (tmp_path / name for name in ("half.csv", "four.csv", "bad.csv"))
    half.write_text("# field: GF(7)\n# vars: x, y\n1/2, 3\n2, 5\n0, 0\n")
    four.write_text("# field: GF(7)\n# vars: x, y\n4, 3\n2, 5\n0, 0\n")
    bad.write_text("# field: GF(7)\n# vars: x, y\n1/7, 3\n2, 5\n")
    expected = run(capsys, "points", str(four))
    assert expected[0] == 0 and expected[1]
    assert run(capsys, "points", str(half)) == expected
    code, out, err = run(capsys, "points", str(bad))
    assert (code, out) == (2, "")
    assert "zero denominator in GF(7) literal '1/7'" in err


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


# Pinned `points` text over a large prime field (the residue kernel) and
# over QQ (Fractions), degrevlex and lex.
GF_POINTS = "# field: GF(32003)\n1,2,3\n5,7,11\n-1,4,9\n13,0,2\n8,8,1\n3,1,4\n"
QQ_POINTS = "# field: QQ\n# vars: x, y, z\n1,2,3\n1/2,7,-1\n0,0,0\n2,-3,5\n4,1,1\n"

GF_POINTS_DEGREVLEX = """\
order: degrevlex
x*z + 1734*y*z + 5427*z^2 + 6704*x + 30290*y + 14355*z + 22419
y^2 + 11831*y*z + 22121*z^2 + 17286*x + 21193*y + 15454*z + 7923
x*y + 20114*y*z + 7602*z^2 + 8163*x + 192*y + 2882*z + 17724
x^2 + 26032*y*z + 5121*z^2 + 259*x + 20604*y + 4292*z + 31402
z^3 + 13967*y*z + 4451*z^2 + 16527*x + 10851*y + 6540*z + 10281
y*z^2 + 20818*y*z + 10263*z^2 + 28186*x + 29517*y + 6948*z + 26676
quotient_basis: 1, z, y, x, z^2, y*z
"""

GF_POINTS_LEX = """\
order: lex
z^6 + 31973*z^5 + 334*z^4 + 30263*z^3 + 4489*z^2 + 26573*z + 2376
y + 5064*z^5 + 15718*z^4 + 31044*z^3 + 21120*z^2 + 30652*z + 24406
x + 5883*z^5 + 4368*z^4 + 16628*z^3 + 13641*z^2 + 10822*z + 12656
quotient_basis: 1, z, z^2, z^3, z^4, z^5
"""

QQ_POINTS_DEGREVLEX = """\
order: degrevlex
y*z + 1207/581*z^2 + 848/581*x - 49/83*y - 691/83*z
x*z - 191/581*z^2 - 591/581*x + 18/83*y + 15/83*z
y^2 - 1863/581*z^2 - 712/581*x - 395/83*y + 985/83*z
x*y + 283/581*z^2 - 335/581*x - 61/83*y - 120/83*z
x^2 + 265/2324*z^2 - 4927/1162*x + 27/83*y + 173/332*z
z^3 - 3714/581*z^2 - 888/581*x + 204/83*y + 751/83*z
quotient_basis: 1, z, y, x, z^2
"""

QQ_POINTS_LEX = """\
order: lex
z^5 - 8*z^4 + 14*z^3 + 8*z^2 - 15*z
y - 37/240*z^4 + 361/240*z^3 - 923/240*z^2 + 359/240*z
x - 119/480*z^4 + 847/480*z^3 - 961/480*z^2 - 1687/480*z
quotient_basis: 1, z, z^2, z^3, z^4
"""


def test_pinned_points_output(tmp_path, capsys):
    gf, qq = tmp_path / "gf.csv", tmp_path / "qq.csv"
    gf.write_text(GF_POINTS)
    qq.write_text(QQ_POINTS)
    pinned = [
        (("points", str(gf), "--vars", "x,y,z"), GF_POINTS_DEGREVLEX),
        (("points", str(gf), "--vars", "x,y,z", "--order", "lex"), GF_POINTS_LEX),
        (("points", str(qq)), QQ_POINTS_DEGREVLEX),
        (("points", str(qq), "--order", "lex"), QQ_POINTS_LEX),
    ]
    for argv, expected in pinned:
        assert run(capsys, *argv) == (0, expected, "")
