import argparse
import json
import os
import shutil
import subprocess
import sys
import time

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
    cli,
    parse_element,
)
from wreathkit.freealg import MAX_DIGITS, MAX_EXPONENT, MAX_NESTING, MAX_POWER_TERMS
from wreathkit.gs import MAX_DENOMINATOR_BOUND
from wreathkit.io import (
    FileFormatError,
    parse_gamma,
    parse_presentation,
    parse_wreath_expression,
)

from helpers import make_algebra, random_gamma, rationals, run_main

Q = Field.rationals()

FREE2 = "field rational\nunital false\ngenerators x:1 y:1\n"
COMM2 = FREE2 + "rel x*y - y*x\n"
HULL2 = "field rational\nunital true\ngenerators x:1 y:1\n"
AX3 = "field rational\nunital false\ngenerators z:1\nrel z^3\n"


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("field gf 7\nfield rational\ngenerators x:1\n", "line 2: `field` repeats line 1"),
        ("field gf 7\nunital true\ngenerators x:1\nunital false\n", "line 4: `unital` repeats line 2"),
        ("field gf 7\ngenerators x:1\n# y\ngenerators y:1\n", "line 4: `generators` repeats line 2"),
    ],
    ids=["field", "unital", "generators"],
)
def test_cli_repeated_presentation_directive_is_an_error(tmp_path, text, message):
    """A `field`, `unital` or `generators` line given twice is refused, naming
    both lines, instead of the last one winning."""
    with pytest.raises(FileFormatError, match=message):
        parse_presentation(text)
    pres = tmp_path / "p.pres"
    pres.write_text(text)
    out = run_main("build", "-p", str(pres), "-N", "3")
    assert out.returncode == 1
    assert out.stderr.splitlines() == [f"error: {message}"]


def test_presentation_round_trip():
    """A presentation written out with its relations' `format` reads back equal."""
    for text in (FREE2, COMM2, HULL2, AX3, "field gf 7\nunital false\ngenerators a:2 b:1\nrel a*b - b*a\n"):
        p = parse_presentation(text)
        field = "rational" if p.field.kind == "rational" else f"gf {p.field.characteristic}"
        gens = " ".join(f"{n}:{d}" for n, d in zip(p.alphabet.names, p.alphabet.degrees))
        rels = "".join(f"rel {r.format()}\n" for r in p.relations)
        written = f"field {field}\nunital {str(p.unital).lower()}\ngenerators {gens}\n{rels}"
        assert parse_presentation(written) == p


# -- gamma files -----------------------------------------------------------------


@pytest.fixture
def gamma_env():
    b_alg = TruncatedAlgebra(parse_presentation(HULL2), 2)
    a_alg = TruncatedAlgebra(parse_presentation(AX3), 3)
    return BasisIndexing(b_alg), a_alg


def test_parse_gamma(gamma_env):
    idx, a_alg = gamma_env
    g = parse_gamma("map 1 -> 0\nmap x -> z\nmap x*y -> z^2 + z\n", idx, a_alg)
    assert sorted(g.values) == [2, 5]
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
    words = idx.host.alphabet.format_word  # the unit word is written `1`
    text = "".join(f"map {words(idx.word_at(i))} -> {v.format()}\n" for i, v in g.values.items())
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
        coeff = rationals(9, 4)
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
    out = run_main("growth", "-p", str(pres), "-N", "5")
    assert out.returncode == 0
    rows = [line for line in out.stdout.splitlines() if not line.startswith("#")]
    assert rows[0] == "n,dim,exact"
    assert rows[1:] == ["1,2,True", "2,6,True", "3,14,True", "4,30,True", "5,62,True"]


def test_cli_build_csv_and_json(tmp_path):
    pres = tmp_path / "comm.pres"
    pres.write_text(COMM2)
    csv_path, json_path = tmp_path / "dims.csv", tmp_path / "dims.json"
    out = run_main(
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
    """Two fresh interpreters with different hash seeds write the same bytes:
    a repeat in one process shares its seed and could not see output that
    follows the order of a set or dict of str."""
    pres = tmp_path / "free.pres"
    pres.write_text(FREE2)
    outs = []
    for seed in ("1", "2"):
        path = tmp_path / f"seed{seed}.csv"
        argv = [sys.executable, "-m", "wreathkit.cli", "growth", "-p", str(pres), "-N", "6"]
        env = {**os.environ, "PYTHONHASHSEED": seed}
        run = subprocess.run([*argv, "--emit", str(path)], env=env, capture_output=True)
        assert run.returncode == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_cli_exit_codes(tmp_path):
    pres = tmp_path / "free.pres"
    pres.write_text(FREE2)
    # inexact: growth beyond the truncation is a lower bound
    out = run_main("growth", "-p", str(pres), "-N", "3", "-n", "5")
    assert out.returncode == 2
    # hard error: missing file
    out = run_main("growth", "-p", str(tmp_path / "nope.pres"), "-N", "3")
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
    out = run_main("build", "-p", str(pres), "-N", "3")
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


def test_cli_huge_exponent_is_a_clean_error(tmp_path):
    pres = tmp_path / "power.pres"
    pres.write_text(FREE2 + "rel x^3000000\n")
    out = run_main("build", "-p", str(pres), "-N", "3")
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "exceeds the limit" in out.stderr


@pytest.mark.parametrize(
    "rel, message",
    [
        ("x*y - 1/0*y*x", "line 4: zero denominator (at column 13)"),
        (f"x*y - {LONG}*y*x", f"line 4: number has more than {MAX_DIGITS} digits (at column 11)"),
        (f"x*y - 1/{LONG}*y*x", f"line 4: number has more than {MAX_DIGITS} digits (at column 13)"),
    ],
    ids=["zero-denominator", "long-numerator", "long-denominator"],
)
def test_cli_bad_coefficient_names_line_and_column(tmp_path, rel, message):
    pres = tmp_path / "coeff.pres"
    pres.write_text(FREE2 + f"rel {rel}\n")
    out = run_main("build", "-p", str(pres), "-N", "3")
    assert out.returncode == 1
    assert out.stderr.splitlines()[0] == f"error: {message}"


def test_cli_long_coefficient_over_a_prime_field(tmp_path):
    pres = tmp_path / "coeff.pres"
    pres.write_text(f"field gf 101\nunital false\ngenerators x:1 y:1\nrel x*y - {LONG}*y*x\n")
    out = run_main("build", "-p", str(pres), "-N", "3")
    assert out.returncode == 1
    first = out.stderr.splitlines()[0]
    assert first == f"error: line 4: number has more than {MAX_DIGITS} digits (at column 11)"


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
    out = run_main(
        "wreath-eval", "--B", str(b), "--A", str(a), "--NB", "2", "--NA", "3", "--expr", expr,
    )
    assert out.returncode == 1
    assert out.stderr.splitlines()[0] == f"error: {message}"


def test_cli_inhomogeneous_relation_message_is_short(tmp_path):
    pres = tmp_path / "long.pres"
    pres.write_text(FREE2 + "rel " + "xy" * 2500 + " - yx\n")
    out = run_main("build", "-p", str(pres), "-N", "3")
    assert out.returncode == 1
    first = out.stderr.splitlines()[0]
    assert first.startswith("error: ") and "inhomogeneous relation" in first
    assert len(first) < 200


def test_cli_gs_check():
    out = run_main("gs-check", "-m", "2")
    assert out.returncode == 0
    assert "satisfiable, t0=3/5, value=-1/5" in out.stdout
    out = run_main("gs-check", "-m", "2", "--census", "2:1")
    assert "unsatisfiable" in out.stdout
    out = run_main("gs-check", "-m", "3", "--census", "2:1", "--t0", "1/2")
    assert "value=-1/4" in out.stdout


def test_cli_nil_check(tmp_path):
    b = tmp_path / "b.pres"
    b.write_text(HULL2)
    a = tmp_path / "a.pres"
    a.write_text("field rational\nunital false\ngenerators z:1\nrel z^2\n")
    out = run_main(
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
    out = run_main(
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
    out = run_main(
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
    out = run_main(*args)
    assert out.returncode == 1
    assert out.stderr.startswith("usage: wreathkit")
    assert "error:" in out.stderr and "Traceback" not in out.stderr


def test_cli_help_exits_0():
    for args in (["--help"], ["growth", "--help"]):
        out = run_main(*args)
        assert out.returncode == 0 and out.stdout.startswith("usage: wreathkit")


def subparsers(parser):
    """The parser and each of its subcommands' parsers."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [parser, *action.choices.values()]


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_cli_parser_reads_the_terminal_size_once(monkeypatch, columns):
    """Building the parser reads the terminal size once, and every help text
    is the one a formatter reading the terminal itself gives.  The counting
    stand-in is in place only while the parser is built and read: pytest's
    own terminal writer calls `shutil.get_terminal_size` too."""
    monkeypatch.setenv("COLUMNS", columns)
    calls = []
    size = shutil.get_terminal_size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
        parser = cli.build_parser()
        assert len(calls) == 1
        helps = [p.format_help() for p in subparsers(parser)]
        assert len(calls) == 1 and len(helps) == 12
    for p in subparsers(parser):
        p.formatter_class = argparse.HelpFormatter
    assert [p.format_help() for p in subparsers(parser)] == helps


def test_cli_power_term_cap_ends_in_one_error(tmp_path):
    """`(x+y)^40` in a presentation, a gamma file or a wreath expression
    stops at the power term cap: exit 1 and one `error:` line naming it."""
    pres = tmp_path / "p.pres"
    pres.write_text(FREE2 + "rel (x+y)^40\n")
    b = tmp_path / "b.pres"
    b.write_text(HULL2)
    a = tmp_path / "a.pres"
    a.write_text("field rational\nunital false\ngenerators s:1 t:1\n")
    g = tmp_path / "g.map"
    g.write_text("map x -> (s+t)^40\n")
    hosts = ["--B", str(b), "--A", str(a), "--NB", "2", "--NA", "2"]
    for argv in (
        ["build", "-p", str(pres), "-N", "3"],
        ["wgamma", *hosts, "--gamma", str(g), "-n", "2"],
        ["wreath-eval", *hosts, "--expr", "e(1,1,(s+t)^40)"],
    ):
        out = run_main(*argv)
        assert out.returncode == 1
        err = out.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert f"limit of {MAX_POWER_TERMS} term products" in err[0]


def test_python_dash_m_package_runs_the_cli():
    out = subprocess.run(
        [sys.executable, "-m", "wreathkit", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    assert "wreath-eval" in out.stdout


def untimed(stderr):
    return [line for line in stderr.splitlines() if not line.startswith("elapsed: ")]


@pytest.mark.parametrize(
    "args, code, first",
    [
        (["growth", "-p", "{free}", "-N", "3"], 0, "elapsed: "),
        (["growth", "-p", "{missing}", "-N", "3"], 1, "error: "),
        (["growth", "-p", "{free}", "-N", "3", "-n", "5"], 2, "elapsed: "),
        (["growth", "-p", "{free}", "-N", "3", "--bogus"], 1, "usage: wreathkit"),
    ],
    ids=["exit-0", "exit-1", "exit-2", "usage-error"],
)
def test_cli_process_boundary(tmp_path, args, code, first):
    """`python -m wreathkit.cli` in a fresh interpreter exits with the code
    `run_main` returns, with the same stdout and, but for the time taken,
    the same stderr: the in-process runner sees what a process prints."""
    pres = tmp_path / "free.pres"
    pres.write_text(FREE2)
    argv = [a.format(free=pres, missing=tmp_path / "nope.pres") for a in args]
    process = subprocess.run(
        [sys.executable, "-m", "wreathkit.cli", *argv], capture_output=True, text=True
    )
    in_process = run_main(*argv)
    assert process.returncode == in_process.returncode == code
    assert process.stderr.startswith(first) and "Traceback" not in process.stderr
    assert process.stdout == in_process.stdout
    assert untimed(process.stderr) == untimed(in_process.stderr)


def test_cli_import_leaves_mpmath_out():
    """Every CLI run imports `wreathkit.cli`; mpmath is imported only by the
    log enclosures of `gk`, which need it."""
    code = "import sys, wreathkit.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout == "False\n"


def test_cli_sandwich_leaves_mpmath_out(tmp_path):
    """`sandwich` checks its schedule with `faithful`, whose logarithms are
    enclosed in exact ints: the whole run, in a fresh interpreter, loads no
    mpmath, also for a threshold as long as 2**14000000.  The second
    schedule puts every window above N, so no row is checked: exit 2."""
    j = tmp_path / "j.pres"
    j.write_text(COMM2)
    for schedule, status in (("2,4,6,2000,100000", 0), ("16,9000000", 2)):
        argv = ["sandwich", "--kmax", "2", "--schedule", schedule, "--J", str(j), "-N", "5"]
        code = (
            "import sys; from wreathkit import cli; "
            f"status = cli.main({argv!r}); "
            "print(status, 'mpmath' in sys.modules, file=sys.stderr)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0 and out.stderr.splitlines()[-1] == f"{status} False"
        assert "faithful=" in out.stdout


def test_cli_span_bound(tmp_path):
    b = tmp_path / "b.pres"
    b.write_text(HULL2)
    a = tmp_path / "a.pres"
    a.write_text(AX3)
    g = tmp_path / "g.map"
    g.write_text("map x -> z\n")
    out = run_main(
        "span-bound", "--B", str(b), "--A", str(a), "--gamma", str(g),
        "--NB", "3", "--NA", "3", "-n", "3",
    )
    assert out.returncode == 0
    assert "included" in out.stdout


def test_cli_sandwich(tmp_path):
    j = tmp_path / "j.pres"
    j.write_text(COMM2)
    out = run_main("sandwich", "--kmax", "2", "--schedule", "1,2", "--J", str(j), "-N", "4")
    assert out.returncode == 0
    assert "faithful=no" in out.stdout


def test_cli_sandwich_sweeps_only_the_x_letters(tmp_path):
    """Window indices stop at kmax however long the schedule: g_k is read
    from x_1..x_k, and the algebra has no x_3."""
    j = tmp_path / "j.pres"
    j.write_text(COMM2)
    out = run_main("sandwich", "--kmax", "2", "--schedule", "1,2,3,4", "--J", str(j), "-N", "6")
    assert out.returncode == 0
    rows = [ln for ln in out.stdout.splitlines() if ln[:1].isdigit()]
    assert rows == ["2,2,5,5,True,True,True,", "2,3,9,9,True,True,True,"]


@pytest.mark.parametrize("kmax, schedule", [("1", "1,2"), ("1", "1,2,3,4,5"), ("0", "2")])
def test_cli_sandwich_kmax_below_two_is_an_error(tmp_path, kmax, schedule):
    j = tmp_path / "j.pres"
    j.write_text(COMM2)
    out = run_main("sandwich", "--kmax", kmax, "--schedule", schedule, "--J", str(j), "-N", "6")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == f"error: --kmax {kmax} is below 2: the sandwich needs x1 and x2\n"


def test_cli_sandwich_with_no_window_row_is_not_a_verdict():
    """Every window lies above N, so no row is checked: the report says
    ok=False and exits 2, never the exit 0 of a definite verdict."""
    out = run_main("sandwich", "--kmax", "2", "--schedule", "5,9", "-N", "3")
    assert out.returncode == 2
    lines = out.stdout.splitlines()
    assert "# ok=False" in lines and lines[-1] == "k,n,f,g,lower_ok,upper_ok,exact,note"


@pytest.mark.parametrize("schedule", ["2,x", "", "3,2", "0,4"])
def test_cli_sandwich_bad_schedule_names_the_option(schedule):
    out = run_main("sandwich", "--kmax", "2", "--schedule", schedule, "-N", "4")
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr == (
        f"error: --schedule {schedule!r} is not comma-separated increasing positive integers\n"
    )


def test_cli_sandwich_without_j_is_the_free_rational_xy(tmp_path):
    """Without --J the two-letter algebra is free on x, y over Q: the report
    is the one a relation-free rational x, y file gives."""
    j = tmp_path / "j.pres"
    j.write_text(FREE2)
    args = ["sandwich", "--kmax", "3", "--schedule", "1,2,3", "-N", "5"]
    plain = run_main(*args)
    with_j = run_main(*args, "--J", str(j))
    assert plain.returncode == with_j.returncode
    assert plain.stdout == with_j.stdout
    assert plain.stdout.count("\n") > 5


def test_cli_shift_witness(tmp_path):
    b = tmp_path / "b.pres"
    b.write_text(FREE2)
    out = run_main("shift-witness", "--B", str(b), "--NB", "5", "--blist", "x;y", "--s", "1")
    assert out.returncode == 0
    assert "True,x," in out.stdout


def test_cli_shift_witness_s_below_zero_is_an_error(tmp_path):
    """A negative --s is refused before any host word is scanned."""
    b = tmp_path / "b.pres"
    b.write_text(FREE2)
    out = run_main("shift-witness", "--B", str(b), "--NB", "3", "--blist", "x;y", "--s", "-3")
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == "error: --s -3 is below 0\n"


def test_cli_density_witness(tmp_path):
    b = tmp_path / "b.pres"
    b.write_text("field rational\nunital true\ngenerators b:1\n")
    a = tmp_path / "a.pres"
    a.write_text(AX3)
    g = tmp_path / "g.map"
    g.write_text("map b^3 -> z\n")
    out = run_main(
        "density-witness", "--B", str(b), "--A", str(a), "--gamma", str(g),
        "--NB", "4", "--NA", "3", "--blist", "b", "--a", "z", "--cap", "3",
    )
    assert out.returncode == 0
    assert "True,b^2" in out.stdout


@pytest.mark.parametrize("command", ["density-witness", "shift-witness"])
def test_cli_cap_above_nb_names_both_options(tmp_path, command):
    """A scan cap above the host truncation is an error naming --cap and
    --NB, not the degree the scan first fails to read."""
    b = tmp_path / "b.pres"
    b.write_text("field rational\nunital true\ngenerators b:1\n")
    args = ["--B", str(b), "--NB", "4", "--blist", "b", "--cap", "9"]
    if command == "density-witness":
        a = tmp_path / "a.pres"
        a.write_text(AX3)
        g = tmp_path / "g.map"
        g.write_text("map b^3 -> z\n")
        args += ["--A", str(a), "--NA", "3", "--gamma", str(g), "--a", "z"]
    out = run_main(command, *args)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == "error: --cap 9 exceeds --NB 4\n"


@pytest.mark.parametrize("power", ["0", "-3"])
def test_cli_nil_check_max_power_below_one_names_the_option(tmp_path, power):
    b = tmp_path / "b.pres"
    b.write_text(HULL2)
    a = tmp_path / "a.pres"
    a.write_text("field rational\nunital false\ngenerators z:1\nrel z^2\n")
    out = run_main(
        "nil-check", "--B", str(b), "--A", str(a), "--NB", "2", "--NA", "2",
        "--expr", "e(1,1,z)", "--max-power", power,
    )
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == f"error: --max-power {power} is below 1\n"


def test_cli_gk(tmp_path):
    pres = tmp_path / "comm.pres"
    pres.write_text(COMM2)
    table = tmp_path / "growth.csv"
    assert run_main("growth", "-p", str(pres), "-N", "12", "--emit", str(table)).returncode == 0
    out = run_main("gk", "--table", str(table), "--window", "4:12")
    assert out.returncode == 0
    assert "window slope in" in out.stderr


@pytest.mark.parametrize("window", ["5", "a:b", "10:4", "0:4", "4:4"])
def test_cli_gk_bad_window_names_the_option(tmp_path, window):
    table = tmp_path / "growth.csv"
    table.write_text("n,dim,exact\n" + "".join(f"{n},{n * n},True\n" for n in range(1, 13)))
    out = run_main("gk", "--table", str(table), "--window", window)
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
    out = run_main(
        "wgamma", "--B", str(b), "--A", str(a), "--gamma", str(g),
        "--NB", "4", "--NA", "4", "-n", "4",
    )
    assert out.returncode == 0
    rows = [line for line in out.stdout.splitlines() if not line.startswith("#")]
    assert rows[1:] == ["1,1,True", "2,2,True", "3,3,True", "4,4,True"]


# A on s alone certifies no zero degree, so s^2 * s^2 and s^3 escape NA=2
ESCAPE_A = "field gf 101\nunital true\ngenerators s:1\n"
ESCAPE_B = "field gf 101\nunital true\ngenerators x:1 y:1\n"


@pytest.mark.parametrize(
    "command, gamma, expected",
    [
        (["span-bound", "-n", "2"], "map x -> s*s\nmap y -> s\n", "# exact=False"),
        (["wreath-eval", "--expr", "x + e(1,1,s^3)"], "map x -> s*s\nmap y -> s\n", "flag: truncated"),
        (["wgamma", "-n", "2"], "map x -> s*s*s\n", "1,0,False"),
        (["wreath-eval", "--expr", "e(1,1,s) * e(1,1,s*s)"], "map x -> s\n", "flag: truncated"),
    ],
    ids=["scale-row", "matrix-unit", "gamma-value", "matmul"],
)
def test_cli_flag_of_a_vanished_escape_is_kept(tmp_path, command, gamma, expected):
    """An entry or gamma value whose every term escaped is zero and flagged:
    the flag reaches the report, and the exit status is 2."""
    b = tmp_path / "b.pres"
    b.write_text(ESCAPE_B)
    a = tmp_path / "a.pres"
    a.write_text(ESCAPE_A)
    g = tmp_path / "g.map"
    g.write_text(gamma)
    out = run_main(
        command[0], "--B", str(b), "--A", str(a), "--gamma", str(g),
        "--NB", "3", "--NA", "2", *command[1:],
    )
    assert out.returncode == 2
    assert any(line.startswith(expected) for line in out.stdout.splitlines())


def assert_below_one_refused(tmp_path, command):
    """command, run on small host, coefficient and gamma files where it
    reads them, exits 1 with one line naming its last option and value."""
    b = tmp_path / "b.pres"
    b.write_text(HULL2)
    a = tmp_path / "a.pres"
    a.write_text(AX3)
    g = tmp_path / "g.map"
    g.write_text("map x -> z\n")
    if command[0] in ("build", "growth"):
        args = [command[0], "-p", str(b), *command[1:]]
    elif command[0] == "sandwich":
        args = command
    else:
        args = [command[0], "--B", str(b), "--A", str(a), "--gamma", str(g), *command[1:]]
    out = run_main(*args)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == f"error: {command[-2]} {command[-1]} is below 1\n"


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
    assert_below_one_refused(tmp_path, command)


@pytest.mark.parametrize(
    "command",
    [
        ["build", "-N", "0"],
        ["growth", "-N", "-3"],
        ["wgamma", "-n", "2", "--NB", "0"],
        ["span-bound", "-n", "2", "--NA", "0"],
        ["sandwich", "--kmax", "2", "--schedule", "2,4", "-N", "0"],
    ],
    ids=["build-zero", "growth-negative", "wgamma-NB-zero", "span-bound-NA-zero", "sandwich-zero"],
)
def test_cli_truncation_degree_below_one_is_an_error(tmp_path, command):
    """A truncation degree below 1 is refused with its option named."""
    assert_below_one_refused(tmp_path, command)


def test_cli_growth_n_defaults_to_N_only_when_absent(tmp_path):
    pres = tmp_path / "free.pres"
    pres.write_text(FREE2)
    out = run_main("growth", "-p", str(pres), "-N", "4")
    assert out.returncode == 0
    assert "# n=4" in out.stdout.splitlines()


@pytest.mark.parametrize("bound", [-3, 0, MAX_DENOMINATOR_BOUND + 1, 10**9])
def test_cli_gs_check_bound_out_of_range_exits_at_once(bound):
    """With no witness the search tests every fraction up to the bound, so
    a bound past the limit is refused before any search."""
    start = time.monotonic()
    out = run_main("gs-check", "-m", "3", "--census", "2:1", "--bound", str(bound))
    assert out.returncode == 1 and time.monotonic() - start < 1
    assert out.stderr == (
        f"error: denominator bound {bound} is not between 1 and {MAX_DENOMINATOR_BOUND}\n"
    )


GK_ROWS = "".join(f"{n},{n * n},True\n" for n in range(1, 7))


@pytest.mark.parametrize(
    "table, message",
    [
        ("n,dim,exact\n" + GK_ROWS + "1,3,True\n", "line 8: column 'n': n=1 repeats line 2"),
        ("n,dim\n1,1\n2,4\n", "line 1: the header has no column 'exact'"),
        ("n,dim,exact\n" + GK_ROWS + "7,49,yes\n", "line 8: column 'exact': 'yes' is not True or False"),
    ],
    ids=["repeated-n", "missing-column", "bad-exact"],
)
def test_cli_gk_reads_its_table_strictly(tmp_path, table, message):
    path = tmp_path / "growth.csv"
    path.write_text(table)
    out = run_main("gk", "--table", str(path), "--window", "1:6")
    assert out.returncode == 1
    assert out.stdout == "" and out.stderr == f"error: {message}\n"


@pytest.mark.parametrize("census", ["2:x", "2", "2:1,", "2:1:3"])
def test_cli_gs_check_bad_census_names_the_option(census):
    out = run_main("gs-check", "-m", "2", "--census", census)
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr == f"error: --census {census!r} is not comma-separated degree:count pairs\n"


@pytest.mark.parametrize("t0", ["1/0", "abc"])
def test_cli_gs_check_bad_t0_names_the_option(t0):
    out = run_main("gs-check", "-m", "2", "--t0", t0)
    assert out.returncode == 1
    assert out.stderr == f"error: --t0 {t0!r} is not a rational number\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("map y -> s + $s", "unexpected character '$' (at column 14)"),
        ("map y -> 2*s  ;", "unexpected character ';' (at column 15)"),
    ],
)
def test_cli_bad_character_in_a_gamma_file_names_itself(tmp_path, line, message):
    """The character after the blanks is the one reported, at its own column
    of the gamma file's line."""
    b = tmp_path / "b.pres"
    b.write_text(HULL2)
    a = tmp_path / "a.pres"
    a.write_text(AX3.replace("z", "s"))
    g = tmp_path / "g.map"
    g.write_text(f"map x -> s\n{line}\n")
    out = run_main("wgamma", "--B", str(b), "--A", str(a), "--gamma", str(g), "-n", "1")
    assert out.returncode == 1
    assert out.stderr.splitlines()[0] == f"error: line 2: {message}"


@pytest.mark.parametrize(
    "text, message",
    [
        (FREE2 + "rel x*y + $\n", "line 4: unexpected character '$' (at column 11)"),
        (FREE2 + "  rel   x*y + $\n", "line 4: unexpected character '$' (at column 15)"),
        (FREE2 + "rel x*y - 1/0*y # 1/0\n", "line 4: zero denominator (at column 13)"),
    ],
    ids=["rel", "indented", "comment"],
)
def test_cli_presentation_parse_error_names_the_column_of_its_line(tmp_path, text, message):
    """A parse error in a `rel` line names the column of the line, counted
    from its first character, not the column within the expression."""
    pres = tmp_path / "p.pres"
    pres.write_text(text)
    out = run_main("build", "-p", str(pres), "-N", "3")
    assert out.returncode == 1
    assert out.stderr.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "line, message",
    [
        ("map x -> s + $", "unexpected character '$' (at column 14)"),
        ("  map  x  ->  s + $", "unexpected character '$' (at column 19)"),
        ("map x$ -> s", "unexpected character '$' (at column 6)"),
    ],
    ids=["rhs", "indented", "lhs"],
)
def test_cli_gamma_parse_error_names_the_column_of_its_line(tmp_path, line, message):
    """A parse error on either side of a `map` line names the column of the
    line, counted from its first character."""
    b = tmp_path / "b.pres"
    b.write_text(HULL2)
    a = tmp_path / "a.pres"
    a.write_text(AX3.replace("z", "s"))
    g = tmp_path / "g.map"
    g.write_text(f"{line}\n")
    out = run_main("wgamma", "--B", str(b), "--A", str(a), "--gamma", str(g), "-n", "1")
    assert out.returncode == 1
    assert out.stderr.splitlines() == [f"error: line 1: {message}"]
