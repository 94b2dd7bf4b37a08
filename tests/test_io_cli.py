import json
import subprocess
import sys

import pytest

from wreathkit import BasisIndexing, Field, ParseError, TruncatedAlgebra, WreathAlgebra
from wreathkit.freealg import MAX_NESTING
from wreathkit.io import (
    FileFormatError,
    gamma_to_text,
    parse_gamma,
    parse_presentation,
    parse_wreath_expression,
    presentation_to_text,
)

from helpers import random_gamma

Q = Field.rationals()

FREE2 = "field rational\nunital false\ngenerators x:1 y:1\n"
COMM2 = FREE2 + "rel x*y - y*x\n"
HULL2 = "field rational\nunital true\ngenerators x:1 y:1\n"
AX3 = "field rational\nunital false\ngenerators z:1\nrel z^3\n"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "wreathkit.cli", *args], capture_output=True, text=True
    )


# -- presentation files --------------------------------------------------------


def test_parse_presentation_basics():
    p = parse_presentation(COMM2)
    assert len(p.alphabet) == 2 and len(p.relations) == 1 and not p.unital
    assert p.field == Q
    gf = parse_presentation("field gf 5\nunital true\ngenerators a:1\n")
    assert gf.field.characteristic == 5 and gf.unital


def test_parse_presentation_comments_and_blank_lines():
    text = "# a comment\nfield rational\n\nunital false\ngenerators x:1 # inline\nrel x^2\n"
    p = parse_presentation(text)
    assert len(p.relations) == 1


def test_presentation_errors_carry_line_numbers():
    with pytest.raises(FileFormatError, match="line 4"):
        parse_presentation(FREE2 + "rel x*w\n")
    with pytest.raises(FileFormatError, match="field"):
        parse_presentation("unital false\ngenerators x:1\n")
    with pytest.raises(FileFormatError, match="line 1"):
        parse_presentation("field gf 6\ngenerators x:1\n")
    with pytest.raises(FileFormatError):
        parse_presentation(FREE2 + "rel x + x*y\n")  # inhomogeneous


def test_presentation_round_trip():
    for text in (FREE2, COMM2, HULL2, AX3, "field gf 7\nunital false\ngenerators a:2 b:1\nrel a*b - b*a\n"):
        p = parse_presentation(text)
        assert parse_presentation(presentation_to_text(p)) == p


# -- gamma files -----------------------------------------------------------------


@pytest.fixture
def gamma_env():
    b_alg = TruncatedAlgebra(parse_presentation(HULL2), 2)
    a_alg = TruncatedAlgebra(parse_presentation(AX3), 3)
    return BasisIndexing(b_alg), a_alg


def test_parse_gamma(gamma_env):
    idx, a_alg = gamma_env
    g = parse_gamma("map 1 -> 0\nmap x -> z\nmap x*y -> z^2 + z\n", idx, a_alg)
    assert g.support() == [2, 5]
    assert g.value(2) == a_alg.gen("z")


def test_gamma_errors(gamma_env):
    idx, a_alg = gamma_env
    with pytest.raises(FileFormatError, match="duplicate"):
        parse_gamma("map x -> z\nmap x -> z^2\n", idx, a_alg)
    with pytest.raises(FileFormatError, match="basis word"):
        parse_gamma("map x*y*x -> z\n", idx, a_alg)  # beyond the truncation
    with pytest.raises(FileFormatError):
        parse_gamma("map x*w -> z\n", idx, a_alg)  # unknown generator
    with pytest.raises(FileFormatError):
        parse_gamma("map x -> q\n", idx, a_alg)
    assert not parse_gamma("", idx, a_alg).values


def test_gamma_round_trip(gamma_env):
    import random

    idx, a_alg = gamma_env
    rng = random.Random(3)
    g = random_gamma(idx, a_alg, rng)
    text = gamma_to_text(g)
    back = parse_gamma(text, idx, a_alg)
    assert back.values == g.values


# -- wreath expressions ------------------------------------------------------------


def test_wreath_expression_parsing(gamma_env):
    idx, a_alg = gamma_env
    wa = WreathAlgebra(idx.host, a_alg, idx)
    gamma = parse_gamma("map x -> z\n", idx, a_alg)
    e = parse_wreath_expression("x*y + 2*e(1,1,z) - c_gamma", wa, gamma)
    assert e.b == idx.host.gen("x") * idx.host.gen("y")
    assert e.s.entry(1, 1) == a_alg.gen("z").scale(2)
    assert e.s.entry(1, 2) == -a_alg.gen("z")
    sq = parse_wreath_expression("e(1,1,z)^2", wa, None)
    assert sq.s == wa.matrix_unit(1, 1, a_alg.gen("z") * a_alg.gen("z"))


def test_wreath_expression_nesting_limit(gamma_env):
    idx, a_alg = gamma_env
    wa = WreathAlgebra(idx.host, a_alg, idx)
    ok = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_wreath_expression(ok, wa) == parse_wreath_expression("x", wa)
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_wreath_expression("(" * depth + "x" + ")" * depth, wa)


# -- CLI ---------------------------------------------------------------------------


def test_cli_growth_rows(tmp_path):
    pres = tmp_path / "free.pres"
    pres.write_text(FREE2)
    out = run_cli("growth", "-p", str(pres), "-N", "5")
    assert out.returncode == 0
    rows = [line for line in out.stdout.splitlines() if not line.startswith("#")]
    assert rows[0] == "n,dim,exact"
    assert rows[1:] == ["1,2,True", "2,6,True", "3,14,True", "4,30,True", "5,62,True"]


def test_cli_build_csv_and_json(tmp_path):
    pres = tmp_path / "comm.pres"
    pres.write_text(COMM2)
    csv_path, json_path = tmp_path / "dims.csv", tmp_path / "dims.json"
    out = run_cli(
        "build", "-p", str(pres), "-N", "4", "--emit", str(csv_path), "--json", str(json_path)
    )
    assert out.returncode == 0
    body = csv_path.read_text()
    assert "degree,dim,exact" in body
    assert "2,3,True" in body and "4,5,True" in body
    mirror = json.loads(json_path.read_text())
    assert mirror["columns"] == ["degree", "dim", "exact"]
    assert mirror["rows"][1] == [2, 3, True]
    assert mirror["meta"]["seed"] == "0"


def test_cli_byte_stable(tmp_path):
    pres = tmp_path / "free.pres"
    pres.write_text(FREE2)
    outs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        assert run_cli("growth", "-p", str(pres), "-N", "6", "--emit", str(path)).returncode == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_cli_exit_codes(tmp_path):
    pres = tmp_path / "free.pres"
    pres.write_text(FREE2)
    # inexact: growth beyond the truncation is a lower bound
    out = run_cli("growth", "-p", str(pres), "-N", "3", "-n", "5")
    assert out.returncode == 2
    # hard error: missing file
    out = run_cli("growth", "-p", str(tmp_path / "nope.pres"), "-N", "3")
    assert out.returncode == 1
    assert "error:" in out.stderr


@pytest.mark.parametrize(
    "rel",
    ["(" * 3000 + "x*y" + ")" * 3000 + " - y*x", "xy" * 2500 + " - yx"],
    ids=["deep-parentheses", "long-word"],
)
def test_cli_deep_or_long_relation_is_a_clean_error(tmp_path, rel):
    pres = tmp_path / "big.pres"
    pres.write_text(FREE2 + f"rel {rel}\n")
    out = run_cli("build", "-p", str(pres), "-N", "3")
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


def test_cli_gs_check():
    out = run_cli("gs-check", "-m", "2")
    assert out.returncode == 0
    assert "satisfiable, t0=3/5, value=-1/5" in out.stdout
    out = run_cli("gs-check", "-m", "2", "--census", "2:1")
    assert "unsatisfiable" in out.stdout
    out = run_cli("gs-check", "-m", "3", "--census", "2:1", "--t0", "1/2")
    assert "value=-1/4" in out.stdout


def test_cli_nil_check(tmp_path):
    b = tmp_path / "b.pres"
    b.write_text(HULL2)
    a = tmp_path / "a.pres"
    a.write_text("field rational\nunital false\ngenerators z:1\nrel z^2\n")
    out = run_cli(
        "nil-check", "--B", str(b), "--A", str(a), "--NB", "2", "--NA", "2",
        "--expr", "e(1,1,z)", "--max-power", "20",
    )
    assert out.returncode == 0
    assert "nilpotent, index 2" in out.stdout


def test_cli_wreath_eval(tmp_path):
    b = tmp_path / "b.pres"
    b.write_text(HULL2)
    a = tmp_path / "a.pres"
    a.write_text(AX3)
    g = tmp_path / "g.map"
    g.write_text("map 1 -> 0\nmap x -> z\n")
    out = run_cli(
        "wreath-eval", "--B", str(b), "--A", str(a), "--gamma", str(g),
        "--NB", "2", "--NA", "3", "--expr", "c_gamma * x",
    )
    assert out.returncode == 0
    assert "s-part (1,1): z" in out.stdout


def test_cli_span_bound(tmp_path):
    b = tmp_path / "b.pres"
    b.write_text(HULL2)
    a = tmp_path / "a.pres"
    a.write_text(AX3)
    g = tmp_path / "g.map"
    g.write_text("map x -> z\n")
    out = run_cli(
        "span-bound", "--B", str(b), "--A", str(a), "--gamma", str(g),
        "--NB", "3", "--NA", "3", "-n", "3",
    )
    assert out.returncode == 0
    assert "included" in out.stdout


def test_cli_sandwich(tmp_path):
    j = tmp_path / "j.pres"
    j.write_text(COMM2)
    out = run_cli("sandwich", "--kmax", "2", "--schedule", "1,2", "--J", str(j), "-N", "4")
    assert out.returncode == 0
    assert "faithful=no" in out.stdout


def test_cli_shift_witness(tmp_path):
    b = tmp_path / "b.pres"
    b.write_text(FREE2)
    out = run_cli("shift-witness", "--B", str(b), "--NB", "5", "--blist", "x;y", "--s", "1")
    assert out.returncode == 0
    assert "True,x," in out.stdout


def test_cli_density_witness(tmp_path):
    b = tmp_path / "b.pres"
    b.write_text("field rational\nunital true\ngenerators b:1\n")
    a = tmp_path / "a.pres"
    a.write_text(AX3)
    g = tmp_path / "g.map"
    g.write_text("map b^3 -> z\n")
    out = run_cli(
        "density-witness", "--B", str(b), "--A", str(a), "--gamma", str(g),
        "--NB", "4", "--NA", "3", "--blist", "b", "--a", "z", "--cap", "3",
    )
    assert out.returncode == 0
    assert "True,b^2" in out.stdout


def test_cli_gk(tmp_path):
    pres = tmp_path / "comm.pres"
    pres.write_text(COMM2)
    table = tmp_path / "growth.csv"
    assert run_cli("growth", "-p", str(pres), "-N", "12", "--emit", str(table)).returncode == 0
    out = run_cli("gk", "--table", str(table), "--window", "4:12")
    assert out.returncode == 0
    assert "window slope in" in out.stderr


def test_cli_wgamma(tmp_path):
    b = tmp_path / "b.pres"
    b.write_text("field rational\nunital true\ngenerators b:1\n")
    a = tmp_path / "a.pres"
    a.write_text("field rational\nunital false\ngenerators x:1\n")
    g = tmp_path / "g.map"
    g.write_text("map b -> x\nmap b^2 -> x\nmap b^3 -> x\nmap b^4 -> x\n")
    out = run_cli(
        "wgamma", "--B", str(b), "--A", str(a), "--gamma", str(g),
        "--NB", "4", "--NA", "4", "-n", "4",
    )
    assert out.returncode == 0
    rows = [line for line in out.stdout.splitlines() if not line.startswith("#")]
    assert rows[1:] == ["1,1,True", "2,2,True", "3,3,True", "4,4,True"]
