import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathkit import (
    BasisIndexing,
    Field,
    FreeElement,
    ParseError,
    TruncatedAlgebra,
    WreathAlgebra,
    parse_element,
)
from wreathkit.freealg import MAX_DIGITS, MAX_EXPONENT, MAX_NESTING
from wreathkit.io import (
    FileFormatError,
    gamma_to_text,
    parse_gamma,
    parse_presentation,
    parse_wreath_expression,
    presentation_to_text,
)

from helpers import make_algebra, random_gamma

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


@pytest.mark.parametrize("spaced", ["e(1 ,2,z^2 + z)", "e(1, 2 ,z^2 + z)", "e( 1 , 2 , z^2 + z )"])
def test_wreath_expression_spaces_around_commas(gamma_env, spaced):
    idx, a_alg = gamma_env
    wa = WreathAlgebra(idx.host, a_alg, idx)
    z = a_alg.gen("z")
    e = parse_wreath_expression(spaced, wa)
    assert e == parse_wreath_expression("e(1,2,z^2 + z)", wa)
    assert e.s.entry(1, 2) == z * z + z and not e.b


def test_comma_is_a_token_error_in_element_expressions(gamma_env):
    idx, a_alg = gamma_env
    wa = WreathAlgebra(idx.host, a_alg, idx)
    with pytest.raises(ParseError, match="expected a comma"):
        parse_wreath_expression("e(1 2, z)", wa)
    with pytest.raises(ParseError, match="trailing input ','"):
        parse_element("x, y", idx.host.alphabet, Q)


def test_wreath_expression_nesting_limit(gamma_env):
    idx, a_alg = gamma_env
    wa = WreathAlgebra(idx.host, a_alg, idx)
    ok = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_wreath_expression(ok, wa) == parse_wreath_expression("x", wa)
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_wreath_expression("(" * depth + "x" + ")" * depth, wa)


def test_wreath_expression_exponent_limit(gamma_env):
    idx, a_alg = gamma_env
    wa = WreathAlgebra(idx.host, a_alg, idx)
    with pytest.raises(ParseError, match="exceeds the limit"):
        parse_wreath_expression(f"x^{MAX_EXPONENT + 1}", wa)
    with pytest.raises(ParseError, match="exceeds the limit"):
        parse_wreath_expression("(x + e(1,1,z))^3000000", wa)


# -- one grammar for elements and wreath expressions -------------------------------

GF101 = Field.prime(101)
ONE_GRAMMAR_FIELDS = [Q, GF101]


def grammar_env(field):
    b_alg = make_algebra(field, ["x", "y"], ["x*y - 2*y*x"], n=4)
    a_alg = make_algebra(field, ["s", "t"], ["s*s"], n=3, unital=True)
    return WreathAlgebra(b_alg, a_alg)


GRAMMAR_ENVS = {field: grammar_env(field) for field in ONE_GRAMMAR_FIELDS}


def both_syntaxes(field):
    """(name, parse) for plain elements over B and for wreath expressions."""
    wa = GRAMMAR_ENVS[field]
    return [
        ("element", lambda text: parse_element(text, wa.b_host.alphabet, field)),
        ("wreath", lambda text: parse_wreath_expression(text, wa)),
    ]


@st.composite
def free_elements(draw, alphabet, field, min_degree):
    if field.kind == "rational":
        coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    else:
        coeff = st.integers(0, field.characteristic - 1)
    words = st.lists(st.integers(0, len(alphabet) - 1), min_size=min_degree, max_size=4)
    support = draw(st.lists(words, min_size=1, max_size=4))
    return FreeElement(alphabet, field, {alphabet.word(w): draw(coeff) for w in support})


@settings(max_examples=60)
@given(st.data())
def test_wreath_b_part_is_the_element_parse(data):
    field = data.draw(st.sampled_from(ONE_GRAMMAR_FIELDS))
    wa = GRAMMAR_ENVS[field]
    e = data.draw(free_elements(wa.b_host.alphabet, field, 1))
    text = e.format()
    if not e:
        with pytest.raises(ParseError, match="expected a wreath element"):
            parse_wreath_expression(text, wa)
        return
    # also with every `*` dropped: `x*y^2` becomes `xy^2`, still x y y
    for spelling in (text, text.replace("*", "")):
        w = parse_wreath_expression(spelling, wa)
        assert w.b == wa.b_host.from_free(parse_element(spelling, wa.b_host.alphabet, field))
        assert w.b == wa.b_host.from_free(e) and not w.s


@settings(max_examples=60)
@given(st.data())
def test_matrix_unit_entry_is_the_element_parse(data):
    field = data.draw(st.sampled_from(ONE_GRAMMAR_FIELDS))
    wa = GRAMMAR_ENVS[field]
    a = wa.a_host.from_free(data.draw(free_elements(wa.a_host.alphabet, field, 0)))
    w = parse_wreath_expression(f"e(1,1,{a.format()})", wa)
    assert w.s.entry(1, 1) == a and not w.b


@pytest.mark.parametrize("field", ONE_GRAMMAR_FIELDS, ids=repr)
def test_power_after_a_name_binds_its_last_letter(field):
    wa = GRAMMAR_ENVS[field]
    b = wa.b_host
    xyy = b.gen("x") * b.gen("y") * b.gen("y")
    assert parse_wreath_expression("xy^2", wa).b == xyy
    assert parse_wreath_expression("xy^2", wa).b == b.from_free(
        parse_element("xy^2", b.alphabet, field)
    )
    xy = b.gen("x") * b.gen("y")
    assert parse_wreath_expression("(xy)^2", wa).b == xy * xy != xyy


@pytest.mark.parametrize("field", ONE_GRAMMAR_FIELDS, ids=repr)
def test_numbers_anywhere_in_a_term(field):
    wa = GRAMMAR_ENVS[field]
    x = wa.b_host.gen("x")
    for name, parse in both_syntaxes(field):
        for text in ("2^3*x", "2*x*4", "2 x 2 2", "8x"):
            e = parse(text)
            got = e.b if name == "wreath" else wa.b_host.from_free(e)
            assert got == x.scale(8), (name, text)


@pytest.mark.parametrize("field", ONE_GRAMMAR_FIELDS, ids=repr)
@pytest.mark.parametrize("text", ["x + * y", "* x", "x**y", "x*", "x + - y"])
def test_stray_operators_are_errors_in_both_syntaxes(field, text):
    for _, parse in both_syntaxes(field):
        with pytest.raises(ParseError, match="unexpected"):
            parse(text)


def test_fraction_over_a_prime_field_names_its_column():
    for _, parse in both_syntaxes(GF101):
        with pytest.raises(ParseError, match=r"rational field \(at column 3\)"):
            parse("x+1/2*y")


@pytest.mark.parametrize(
    "text, column", [("x - 1/0*y", 7), ("2/000*x*y", 3), ("x*(y + 3/0 x)", 10), ("1/0^2*x", 3)]
)
def test_zero_denominator_names_its_column_in_both_syntaxes(text, column):
    for _, parse in both_syntaxes(Q):
        with pytest.raises(ParseError, match=rf"zero denominator \(at column {column}\)"):
            parse(text)


def test_zero_denominator_inside_a_matrix_unit():
    with pytest.raises(ParseError, match=r"zero denominator \(at column 13\)"):
        parse_wreath_expression("e(1,1,s + 2/0*t)", GRAMMAR_ENVS[Q])
    with pytest.raises(ParseError, match=r"zero denominator \(at column 9\)"):
        parse_wreath_expression("e(1,1,1/0*s)", GRAMMAR_ENVS[Q])


LONG = "7" * (MAX_DIGITS + 1)


@pytest.mark.parametrize("field", ONE_GRAMMAR_FIELDS, ids=repr)
def test_overlong_numbers_name_their_column_in_both_syntaxes(field):
    limit = rf"number has more than {MAX_DIGITS} digits \(at column 5\)"
    for _, parse in both_syntaxes(field):
        with pytest.raises(ParseError, match=limit):
            parse(f"x + {LONG}*y")
        with pytest.raises(ParseError, match=limit):
            parse(f"x + {LONG}^2*y")
        # MAX_DIGITS digits are read, and leading zeros do not count
        top = "9" * MAX_DIGITS
        assert parse(f"{top}*x") == parse(f"{int(top) % (field.characteristic or int(top) + 1)}*x")
        assert parse("0" * 5000 + "3*x") == parse("3*x")
        assert parse("x^" + "0" * 5000 + "2") == parse("x*x")
    wa = GRAMMAR_ENVS[field]
    with pytest.raises(ParseError, match=rf"more than {MAX_DIGITS} digits \(at column 7\)"):
        parse_wreath_expression(f"e(1,1,{LONG}*s)", wa)
    with pytest.raises(ParseError, match=rf"more than {MAX_DIGITS} digits \(at column 3\)"):
        parse_wreath_expression(f"e({LONG},1,s)", wa)


def test_overlong_denominator_names_its_column():
    for _, parse in both_syntaxes(Q):
        with pytest.raises(ParseError, match=rf"more than {MAX_DIGITS} digits \(at column 7\)"):
            parse(f"x + 1/{LONG}*y")
        assert parse("x + 1/" + "0" * 5000 + "4*y") == parse("x + 1/4*y")


@pytest.mark.parametrize("text, column", [("x +", 4), ("(x", 3), ("x*y^", 5), ("x + ", 4)])
def test_end_of_input_names_a_column_in_both_syntaxes(text, column):
    for _, parse in both_syntaxes(Q):
        with pytest.raises(ParseError, match=rf"unexpected end of input \(at column {column}\)"):
            parse(text)


@pytest.mark.parametrize(
    "text, column", [("e(1,1,", 7), ("e(1,1,s", 8), ("e(1", 4), ("e(1,1,s)^", 10)]
)
def test_end_of_input_inside_a_matrix_unit(text, column):
    with pytest.raises(ParseError, match=rf"unexpected end of input \(at column {column}\)"):
        parse_wreath_expression(text, GRAMMAR_ENVS[Q])


def test_nesting_limit_counts_inside_a_matrix_unit():
    wa = GRAMMAR_ENVS[Q]
    ok = "(" * MAX_NESTING + "s" + ")" * MAX_NESTING
    assert parse_wreath_expression(f"e(1,1,{ok})", wa) == parse_wreath_expression("e(1,1,s)", wa)
    deep = "(" * (MAX_NESTING + 1) + "s" + ")" * (MAX_NESTING + 1)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_wreath_expression(f"e(1,1,{deep})", wa)
    # the levels outside e(...) count too
    with pytest.raises(ParseError, match="nested deeper"):
        parse_wreath_expression("(" * 50 + f"e(1,1,{'(' * 51}s{')' * 51})" + ")" * 50, wa)


def test_a_term_of_numbers_alone_is_not_a_wreath_element():
    wa = GRAMMAR_ENVS[Q]
    for text in ("3", "x + 2", "(x)^0", "x^0"):
        with pytest.raises(ParseError, match="expected a wreath element"):
            parse_wreath_expression(text, wa)


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
    assert "seed" not in mirror["meta"] and mirror["meta"]["policy"] == "truncate"


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


def test_cli_huge_exponent_is_a_clean_error(tmp_path):
    pres = tmp_path / "power.pres"
    pres.write_text(FREE2 + "rel x^3000000\n")
    out = run_cli("build", "-p", str(pres), "-N", "3")
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "exceeds the limit" in out.stderr


@pytest.mark.parametrize(
    "rel, message",
    [
        ("x*y - 1/0*y*x", "line 4: zero denominator (at column 9)"),
        (f"x*y - {LONG}*y*x", f"line 4: number has more than {MAX_DIGITS} digits (at column 7)"),
        (f"x*y - 1/{LONG}*y*x", f"line 4: number has more than {MAX_DIGITS} digits (at column 9)"),
    ],
    ids=["zero-denominator", "long-numerator", "long-denominator"],
)
def test_cli_bad_coefficient_names_line_and_column(tmp_path, rel, message):
    pres = tmp_path / "coeff.pres"
    pres.write_text(FREE2 + f"rel {rel}\n")
    out = run_cli("build", "-p", str(pres), "-N", "3")
    assert out.returncode == 1
    assert out.stderr.splitlines()[0] == f"error: {message}"


def test_cli_long_coefficient_over_a_prime_field(tmp_path):
    pres = tmp_path / "coeff.pres"
    pres.write_text(f"field gf 101\nunital false\ngenerators x:1 y:1\nrel x*y - {LONG}*y*x\n")
    out = run_cli("build", "-p", str(pres), "-N", "3")
    assert out.returncode == 1
    first = out.stderr.splitlines()[0]
    assert first == f"error: line 4: number has more than {MAX_DIGITS} digits (at column 7)"


@pytest.mark.parametrize(
    "expr, message",
    [("e(1,1,1/0*z)", "zero denominator (at column 9)"),
     (f"x + {LONG}*e(1,1,z)", f"number has more than {MAX_DIGITS} digits (at column 5)")],
    ids=["zero-denominator", "long-number"],
)
def test_cli_wreath_eval_bad_coefficient(tmp_path, expr, message):
    b = tmp_path / "b.pres"
    b.write_text(HULL2)
    a = tmp_path / "a.pres"
    a.write_text(AX3)
    out = run_cli(
        "wreath-eval", "--B", str(b), "--A", str(a), "--NB", "2", "--NA", "3", "--expr", expr,
    )
    assert out.returncode == 1
    assert out.stderr.splitlines()[0] == f"error: {message}"


def test_cli_inhomogeneous_relation_message_is_short(tmp_path):
    pres = tmp_path / "long.pres"
    pres.write_text(FREE2 + "rel " + "xy" * 2500 + " - yx\n")
    out = run_cli("build", "-p", str(pres), "-N", "3")
    assert out.returncode == 1
    first = out.stderr.splitlines()[0]
    assert first.startswith("error: ") and "inhomogeneous relation" in first
    assert len(first) < 200


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


@pytest.mark.parametrize("expr", ["e(8,1,z)", "e(1,0,z)", "x*e(2,99,z)"])
def test_cli_wreath_eval_index_out_of_range(tmp_path, expr):
    b = tmp_path / "b.pres"
    b.write_text(HULL2)  # N=2: basis 1, x, y, x^2, x*y, y*x, y^2
    a = tmp_path / "a.pres"
    a.write_text(AX3)
    out = run_cli(
        "wreath-eval", "--B", str(b), "--A", str(a),
        "--NB", "2", "--NA", "3", "--expr", expr,
    )
    assert out.returncode == 1
    assert out.stderr.startswith("error: basis index ")
    assert "out of range 1..7" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["growth", "--bogus"],
        ["growth", "-p", "x.pres", "-N", "abc"],
        ["growth", "-p", "x.pres", "-N", "3", "--seed", "1"],
        ["no-such-command"],
        [],
    ],
    ids=["unknown-option", "bad-int", "removed-seed", "unknown-command", "no-command"],
)
def test_cli_usage_errors_exit_1(args):
    out = run_cli(*args)
    assert out.returncode == 1
    assert out.stderr.startswith("usage: wreathkit")
    assert "error:" in out.stderr and "Traceback" not in out.stderr


def test_cli_help_exits_0():
    for args in (["--help"], ["growth", "--help"]):
        out = run_cli(*args)
        assert out.returncode == 0 and out.stdout.startswith("usage: wreathkit")


def test_python_dash_m_package_runs_the_cli():
    out = subprocess.run(
        [sys.executable, "-m", "wreathkit", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert "wreath-eval" in out.stdout


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


@pytest.mark.parametrize("window", ["5", "a:b", "10:4", "0:4", "4:4"])
def test_cli_gk_bad_window_names_the_option(tmp_path, window):
    table = tmp_path / "growth.csv"
    table.write_text("n,dim,exact\n" + "".join(f"{n},{n * n},True\n" for n in range(1, 13)))
    out = run_cli("gk", "--table", str(table), "--window", window)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == f"error: --window {window!r} is not lo:hi with integers 1 <= lo < hi\n"


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


@pytest.mark.parametrize(
    "command",
    [
        ["growth", "-N", "3", "-n", "-3"],
        ["growth", "-N", "3", "-n", "0"],
        ["wgamma", "-n", "0"],
        ["span-bound", "-n", "0"],
    ],
    ids=["growth-negative", "growth-zero", "wgamma-zero", "span-bound-zero"],
)
def test_cli_factor_count_below_one_is_an_error(tmp_path, command):
    b = tmp_path / "b.pres"
    b.write_text(HULL2)
    a = tmp_path / "a.pres"
    a.write_text(AX3)
    g = tmp_path / "g.map"
    g.write_text("map x -> z\n")
    if command[0] == "growth":
        args = [command[0], "-p", str(b), *command[1:]]
    else:
        args = [command[0], "--B", str(b), "--A", str(a), "--gamma", str(g), *command[1:]]
    out = run_cli(*args)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: the factor count must be at least 1")


def test_cli_growth_n_defaults_to_N_only_when_absent(tmp_path):
    pres = tmp_path / "free.pres"
    pres.write_text(FREE2)
    out = run_cli("growth", "-p", str(pres), "-N", "4")
    assert out.returncode == 0
    assert "# n=4" in out.stdout.splitlines()


@pytest.mark.parametrize("t0", ["1/0", "abc"])
def test_cli_gs_check_bad_t0_names_the_option(t0):
    out = run_cli("gs-check", "-m", "2", "--t0", t0)
    assert out.returncode == 1
    assert out.stderr == f"error: --t0 {t0!r} is not a rational number\n"
