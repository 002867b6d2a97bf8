"""Text formats round-trip bit-exactly; the CLI honors its exit-code contract."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from germforge import formats
from germforge.cli import main
from germforge.coeffs import GaussianRational, ONE
from germforge.errors import ParseError, RealityError
from germforge.ideals import IdealPresentation
from germforge.pipeline import BUNDLE_HEADER
from germforge.series import FormalCurve, TruncSeries

from conftest import g, hermitian, mono, oracle_base_expansion, random_real_form, series, uni

WITNESS_FORM = """# defining form with an infinite-type direction
vars 3; N=60;
+ 1 z3 + 1 zbar3
+ 1 z1^2 zbar1^2
- 1 z1^2 zbar2^3 - 1 z2^3 zbar1^2
+ 1 z2^3 zbar2^3;
"""

WITNESS_CURVE = """vars 3; N=150;
z1 = t^3;
z2 = t^2;
z3 = 0;
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_hermitian_spec_style():
    r = formats.parse_hermitian("vars 2; N=8; + 1 z2 + 1 zbar2 + 1 z1 zbar1")
    assert r.coeff((0, 1), (0, 0)) == ONE
    assert r.coeff((1, 0), (1, 0)) == ONE


def test_parse_complex_coefficients():
    s = formats.parse_series("vars 2; N=8; (3/4+1/2i)*z1^2*z2 - i z2")
    assert s.coeff((2, 1)) == GaussianRational(Fraction(3, 4), Fraction(1, 2))
    assert s.coeff((0, 1)) == GaussianRational(0, -1)


def test_parse_error_has_location():
    with pytest.raises(ParseError) as e:
        formats.parse_hermitian("vars 2; N=8;\n+ 1 z1^^2")
    assert e.value.line == 2


def test_parse_reality_violation_reported():
    with pytest.raises(RealityError):
        formats.parse_hermitian("vars 2; N=8; + 1 z1 zbar2")


def test_parse_curve_requires_all_components():
    with pytest.raises(ParseError):
        formats.parse_curve("vars 2; N=5;\nz1 = t;")


def test_parse_base_point_translation():
    # r = |z1|^2 - 1 vanishes at the base point 1; translated germ is
    # |w|^2 + 2 Re w in the recentered coordinate w = z1 - 1
    direct = formats.parse_hermitian("vars 1; N=6; base 1;\n+ 1 z1 zbar1 - 1;")
    assert direct.coeff((1,), (1,)) == ONE
    assert direct.coeff((1,), (0,)) == ONE
    assert direct.coeff((0,), (1,)) == ONE
    assert direct.coeff((0,), (0,)) == ONE - ONE


def test_parse_complex_base_point_conjugates_it_once():
    # r = |z1|^2 - 1 vanishes at i; around it, |w + i|^2 - 1 = |w|^2 - i w + i wbar
    r = formats.parse_hermitian("vars 1; N=4; base i;\n+ z1 zbar1 - 1;")
    assert formats.format_hermitian(r) == "i*zbar1 - i*z1 + z1*zbar1"


# (loader, text, message, line, column) of malformed ASCII inputs
PARSE_ERRORS = [
    ("parse_hermitian", "vars 2; N=8;\n+ z1 @ zbar1;", "unexpected character '@'", 2, 6),
    ("parse_hermitian", "vars 2; N=8;\n+ 1 z1^^2", "expected an exponent, found '^'", 2, 8),
    ("parse_hermitian", "vars 1; N=4;\n+ 2/0 z1 zbar1;", "zero denominator", 2, 7),
    ("parse_hermitian", "vars 2; N=4;\n+ z0 zbar1;", "variable index 0 outside 1..2", 2, 3),
    ("parse_hermitian", "vars 2; N=4;\n+ z1 zbar3;", "variable index 3 outside 1..2", 2, 6),
    ("parse_hermitian", "vars 2; N=4;\n+ z3;", "variable index 3 outside 1..2", 2, 3),
    ("parse_series", "vars 2; N=4;\n+ z1 t;", "variable t only appears in univariate series", 2, 6),
    ("parse_series", "vars 1; N=4;\n+ tbzz;", "empty term", 2, 3),
    ("parse_hermitian", "vars 1; N=4;\n+ z1 zbar;", "expected end of file, found 'zbar'", 2, 6),
    ("parse_curve", "vars 1; N=4;\nzbar1 = t;", "expected a component name, found 'zbar1'", 2, 1),
    ("parse_curve", "vars 1; N=4;\nt = t;", "expected a component name, found 't'", 2, 1),
    # a comment takes no columns: the end of file is reported at its '#'
    ("parse_series", "vars 1; N=4 # precision", "expected ;, found None", 1, 13),
    ("parse_hermitian", "vars 2; N=4; base 1;\n+ z1 zbar1;", "expected a base-point coordinate", 1, 20),
    ("parse_series", "vars 1; N=4;\n+ (1+i t;", "expected ), found 't'", 2, 8),
    ("parse_series", "vars 1; N=4;\n+ (1+i", "expected ), found None", 2, 7),
]


@pytest.mark.parametrize("loader, text, message, line, column", PARSE_ERRORS)
def test_parse_errors_keep_their_text_and_location(loader, text, message, line, column):
    with pytest.raises(ParseError) as e:
        getattr(formats, loader)(text)
    assert (str(e.value), e.value.line, e.value.column) == (
        f"line {line}, column {column}: {message}", line, column)


def test_parse_ideal_with_normal_form():
    text = """vars 3; N=45;
gen z2^2 - z1^2;
gen 4*z1^2*z3 - 4*z1^2*z2;
normal_form {
  free 1;
  p = z2^2 - z1^2;
  D = 4*z1^2;
  Q 3 = 4*z1^2*z2;
}
"""
    I = formats.parse_ideal(text)
    assert len(I.generators) == 2
    assert I.normal_form is not None
    assert I.normal_form.k == 1
    back = formats.parse_ideal(formats.format_ideal(I))
    assert [g.coeffs for g in back.generators] == [g.coeffs for g in I.generators]


NF_WITH = """vars 3; N=12;
gen z2^2 - z1^2;
normal_form {{
  free 1;
  p = {p};
  D = {D};
  Q 3 = {Q};
}}
"""


@pytest.mark.parametrize("entry", ["p", "D", "Q"])
def test_parse_normal_form_rejects_zbar(entry):
    fields = {"p": "z2^2 - z1^2", "D": "4*z1^2", "Q": "4*z1^2*z2"}
    assert formats.parse_ideal(NF_WITH.format(**fields)).normal_form is not None
    fields[entry] = {"p": "z2^2 - zbar1^2", "D": "4*zbar1^2", "Q": "4*zbar1^2*z2"}[entry]
    with pytest.raises(ParseError) as e:
        formats.parse_ideal(NF_WITH.format(**fields))
    assert e.value.line == {"p": 5, "D": 6, "Q": 7}[entry]


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


@st.composite
def gauss_strategy(draw):
    return GaussianRational(
        Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 7))),
        Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 7))),
    )


@st.composite
def series_strategy(draw):
    nvars = draw(st.integers(1, 3))
    precision = draw(st.integers(1, 9))
    coeffs = {}
    for _ in range(draw(st.integers(0, 6))):
        J = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        if sum(J) <= precision:
            coeffs[J] = draw(gauss_strategy())
    return TruncSeries(nvars, precision, coeffs)


@given(series_strategy())
@settings(max_examples=80, deadline=None)
def test_series_roundtrip(s):
    text = formats.format_series_file(s)
    back = formats.parse_series(text)
    assert back == s


def test_hermitian_roundtrip_random():
    rng = random.Random(31)
    for _ in range(30):
        r = random_real_form(rng, rng.choice([1, 2, 3]), 6, 9)
        back = formats.parse_hermitian(formats.format_hermitian_file(r))
        assert back == r


def test_curve_roundtrip():
    c = FormalCurve([uni(12, {3: ONE, 5: g(-2, 1)}), uni(12, {2: g(1, -1)})])
    assert formats.parse_curve(formats.format_curve(c)) == c


def _with_base(text: str, base) -> str:
    """``text`` (a file whose first line is its header) with a base-point
    declaration added to the header."""
    return text.replace(";\n", "; base " + " ".join(c.literal() for c in base) + ";\n", 1)


@given(st.integers(0, 10**6), series_strategy(), st.lists(gauss_strategy(), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_base_point_expansion_matches_the_binomial_oracle(seed, s, point):
    rng = random.Random(seed)
    nvars = rng.choice([1, 2, 3])
    r = random_real_form(rng, nvars, 5, 7)
    got = formats.parse_hermitian(_with_base(formats.format_hermitian_file(r), point[:nvars]))
    assert got == hermitian(nvars, 7, oracle_base_expansion(r.full_map(), point[:nvars], 7))
    zero = (0,) * s.nvars
    pairs = {(J, zero): c for J, c in s.coeffs.items()}
    expanded = oracle_base_expansion(pairs, point[:s.nvars], s.precision)
    got = formats.parse_series(_with_base(formats.format_series_file(s), point[:s.nvars]))
    assert got == series(s.nvars, s.precision, {J: c for (J, _), c in expanded.items()})


def test_block_embedding_roundtrip():
    body = "vars 2; N=3;\nz1 = t;\nz2 = 0;\n"
    blob = "x\n" + formats.emit_block("curve witness", body) + "y\n"
    assert formats.extract_block(blob, "curve witness") == body


# ---------------------------------------------------------------------------
# CLI exit codes and flows
# ---------------------------------------------------------------------------


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "r.germ").write_text(WITNESS_FORM)
    (tmp_path / "curve.germ").write_text(WITNESS_CURVE)
    (tmp_path / "finite.germ").write_text(
        "vars 2; N=30;\n+ 1 z2 + 1 zbar2 + 1 z1^2 zbar1^2;\n"
    )
    return tmp_path


def test_cli_witness_certified(workdir, capsys):
    code = main(["witness", "--N", "50", str(workdir / "r.germ"), str(workdir / "curve.germ")])
    assert code == 0
    assert "certified" in capsys.readouterr().out


def test_cli_witness_failure_exit_two(workdir, capsys):
    bad = workdir / "bad.germ"
    bad.write_text("vars 3; N=150;\nz1 = t^3;\nz2 = t^2;\nz3 = t^7;\n")
    code = main(["witness", "--N", "40", str(workdir / "r.germ"), str(bad)])
    assert code == 2
    out = capsys.readouterr().out
    assert "7" in out


def test_cli_ratio(workdir, capsys):
    code = main(["ratio", str(workdir / "r.germ"), str(workdir / "curve.germ")])
    assert code == 0
    assert ">=" in capsys.readouterr().out


def test_cli_pipeline_witness_and_recheck(workdir, capsys):
    cert = workdir / "cert.txt"
    code = main([
        "pipeline", "--N", "50", "--emit-certificate", str(cert), str(workdir / "r.germ"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "witness-certified" in out
    assert cert.exists()
    code = main(["witness", str(cert)])
    assert code == 0


def test_cli_pipeline_no_witness_exit_two(workdir, capsys):
    code = main(["pipeline", "--N", "20", str(workdir / "finite.germ")])
    assert code == 2
    out = capsys.readouterr().out
    assert "no-witness-at-bounds" in out
    assert "4" in out  # best ratio reported as a lower bound


def test_cli_error_exit_one(workdir, capsys):
    empty = workdir / "empty.germ"
    empty.write_text("vars 2; N=10;\n")
    code = main(["pipeline", "--N", "5", str(empty)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_curve_with_constant_term_exit_one(workdir, capsys):
    bad = workdir / "offset.germ"
    bad.write_text("vars 3; N=20;\nz1 = 1 + t;\nz2 = t^2;\nz3 = 0;\n")
    code = main(["ratio", str(workdir / "r.germ"), str(bad)])
    assert code == 1
    assert "does not vanish at t = 0" in capsys.readouterr().err


def test_cli_ratio_rejects_form_off_the_hypersurface(workdir, capsys):
    off = workdir / "off.germ"
    off.write_text("vars 1; N=8;\n+ 1 z1 zbar1 + 1;\n")
    curve = workdir / "line.germ"
    curve.write_text("vars 1; N=8;\nz1 = t;\n")
    code = main(["ratio", str(off), str(curve)])
    assert code == 1
    captured = capsys.readouterr()
    assert "must vanish at the base point" in captured.err
    assert "ratio" not in captured.out


def test_cli_search_rejects_form_off_the_hypersurface(workdir, capsys):
    off = workdir / "off.germ"
    off.write_text("vars 2; N=10;\n+ 1 + 1 z1 zbar1;\n")
    code = main(["search", str(off)])
    assert code == 1
    captured = capsys.readouterr()
    assert "must vanish at the base point" in captured.err
    assert "ratio" not in captured.out


@pytest.mark.parametrize("term, column, char", [("z1\u00b2 zbar1^2", 5, "\u00b2"),
                                                 ("\u0663 z1 zbar1", 3, "\u0663")])
def test_cli_search_rejects_non_ascii_characters(workdir, capsys, term, column, char):
    """The grammar is ASCII: a superscript two or an Arabic-Indic three is an
    unexpected character, not a digit."""
    form = workdir / "unicode.germ"
    form.write_text(f"vars 2; N=6;\n+ {term};\n", encoding="utf-8")
    assert main(["search", str(form)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: line 2, column {column}: unexpected character {char!r}\n"
    assert captured.out == ""


def test_cli_missing_file(workdir, capsys):
    code = main(["ratio", str(workdir / "nope.germ"), str(workdir / "curve.germ")])
    assert code == 1


def test_cli_unreadable_input_exit_one(workdir, capsys):
    """A directory or a non-UTF-8 file as input is an error naming the path,
    not a traceback."""
    latin = workdir / "latin1.germ"
    latin.write_bytes(b"vars 1; N=4;\n+ 1 z1 zbar1; # \xe9\n")
    for path in (workdir, latin):
        assert main(["decompose", str(path)]) == 1
        assert f"error: cannot read {path}: " in capsys.readouterr().err


def test_cli_unwritable_certificate_exit_one(workdir, capsys):
    target = workdir / "no-such-dir" / "cert.txt"
    code = main(["decompose", "--emit-certificate", str(target), str(workdir / "r.germ")])
    assert code == 1
    captured = capsys.readouterr()
    assert "h = z3" in captured.out
    assert f"error: cannot write certificate {target}: " in captured.err


def test_cli_decompose_prints_families(workdir, capsys):
    code = main(["decompose", str(workdir / "r.germ")])
    assert code == 0
    out = capsys.readouterr().out
    assert "h = z3" in out
    assert "family" in out


def test_cli_codim(tmp_path, capsys):
    f = tmp_path / "ideal.germ"
    f.write_text("vars 2; N=14;\ngen z1^2; gen z1*z2; gen z2^2;\n")
    code = main(["codim", "--bound", "8", str(f)])
    assert code == 0
    assert "finite, D(I) = 3" in capsys.readouterr().out


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_cli_codim_rejects_bound_below_one(tmp_path, capsys, bound):
    f = tmp_path / "ideal.germ"
    f.write_text("vars 2; N=14;\ngen z1^2; gen z2^2;\n")
    code = main(["codim", "--bound", bound, str(f)])
    assert code == 1
    assert "bound must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["witness", "--N", "-1", "r.germ", "curve.germ"],
    ["pipeline", "--N", "0", "r.germ"],
    ["pipeline", "--N", "-1", "r.germ"],
    ["search", "--A", "-1", "r.germ"],
    ["search", "--A", "0", "r.germ"],
    ["search", "--d", "-1", "r.germ"],
    ["pipeline", "--bound", "-3", "r.germ"],
    ["lift", "--maxnu", "-1", "r.germ"],
    ["decompose", "--k", "-1", "r.germ"],
], ids=lambda argv: " ".join(argv[:3]))
def test_cli_rejects_bound_below_its_least(workdir, capsys, argv):
    code = main([str(workdir / a) if a.endswith(".germ") else a for a in argv])
    assert code == 1
    assert f"{argv[1]} must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("order", ["0", "-1"])
def test_cli_recheck_rejects_bundle_order_below_one(workdir, capsys, order):
    bundle = workdir / "bundle.txt"
    bundle.write_text(
        f"{BUNDLE_HEADER}\ncommand: pipeline\norder: {order}\n"
        + formats.emit_block("hermitian input", WITNESS_FORM)
        + formats.emit_block("curve witness", WITNESS_CURVE)
    )
    code = main(["witness", str(bundle)])
    assert code == 1
    assert "bundle order must be >= 1" in capsys.readouterr().err


def test_cli_recheck_rejects_bundle_order_not_an_integer(workdir, capsys):
    bundle = workdir / "bundle.txt"
    bundle.write_text(
        f"{BUNDLE_HEADER}\ncommand: pipeline\norder: x\n"
        + formats.emit_block("hermitian input", WITNESS_FORM)
        + formats.emit_block("curve witness", WITNESS_CURVE)
    )
    code = main(["witness", str(bundle)])
    assert code == 1
    assert "error: bundle order is not an integer" in capsys.readouterr().err


def test_cli_puiseux_floating_branch_missing_its_tolerance_exit_one(tmp_path, capsys):
    """The characteristic roots +-sqrt(2) are double, so no ramification-1
    floating expansion solves the equation: it is an error, not a branch."""
    f = tmp_path / "double.germ"
    f.write_text("vars 2; N=20;\nz2^4 - 4 z1^2 z2^2 + 4 z1^4 - z1^5;\n")
    code = main(["puiseux", "--N", "20", str(f)])
    captured = capsys.readouterr()
    assert code == 1
    assert "branch d=" not in captured.out
    assert "above its tolerance 1e-09" in captured.err and "leaves residual" in captured.err


def test_cli_puiseux_order_below_w_order_exit_one(tmp_path, capsys):
    f = tmp_path / "cusp.germ"
    f.write_text("vars 2; N=45;\nz2^2 - z1^3;\n")
    code = main(["puiseux", "--N", "1", str(f)])
    assert code == 1
    assert "preparation order 1 is below the w-order 2" in capsys.readouterr().err


@pytest.mark.parametrize("order", [2, 3])
def test_cli_puiseux_order_below_the_discriminant_names_the_precision(tmp_path, capsys, order):
    """z2^2 - z1^3 is reduced, but its discriminant 4 z1^3 starts beyond
    the precision order - 1 of the prepared coefficients."""
    f = tmp_path / "cusp.germ"
    f.write_text("vars 2; N=45;\nz2^2 - z1^3;\n")
    code = main(["puiseux", "--N", str(order), str(f)])
    assert code == 1
    err = capsys.readouterr().err
    assert (
        f"discriminant vanishes through its precision {order - 1} (preparation order {order})"
        in err
    )


def test_cli_puiseux_huge_coefficient_exit_one(tmp_path, capsys):
    f = tmp_path / "huge.germ"
    f.write_text(f"vars 2; N=20;\nz2^2 - {10**400}*z1^2;\n")
    code = main(["puiseux", "--N", "10", str(f)])
    assert code == 1
    assert "outside the floating range" in capsys.readouterr().err


def test_import_leaves_numpy_unloaded(tmp_path):
    """germforge never loads numpy, not even on its floating paths: a
    floating Puiseux job, a lift and a floating unitary match."""
    import os
    import subprocess
    import sys

    (tmp_path / "sqrt2.germ").write_text("vars 2; N=20;\nz2^2 - 2*z1^2;\n")
    (tmp_path / "nf.germ").write_text(LIFT_IDEAL)
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = """if True:
        import sys
        from fractions import Fraction
        from germforge.cli import main
        from germforge.typeengine import match_unitary
        assert main(["puiseux", "--N", "12", "sqrt2.germ"]) == 0
        assert main(["lift", "--N", "12", "nf.germ"]) == 0
        assert not match_unitary([[Fraction(3, 5), Fraction(4, 5)]], [[1, 0]]).is_exact
        assert 'numpy' not in sys.modules
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert "floating" in proc.stdout and "vanishes through order" in proc.stdout


def test_package_imports_no_numpy():
    import ast

    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "germforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "numpy" for n in names), f"{path.name}:{node.lineno}"


def test_only_coeffs_reads_the_coefficient_triple():
    # the (a, b, d) normal form and the integer kernel's packing rest on it
    import ast

    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "germforge").glob("*.py")):
        if path.name == "coeffs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("_a", "_b", "_d"), where
            elif isinstance(node, ast.ImportFrom):
                assert not {a.name for a in node.names} & {"_reduced", "_make"}, where


def test_cli_builds_its_parser_once(tmp_path, monkeypatch):
    import argparse

    from germforge import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "germforge":
            built.append(self)

    cli._build_argparser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    try:
        f = tmp_path / "I.germ"
        f.write_text("vars 2; N=8;\ngen z1;\ngen z2;\n")
        assert main(["codim", "--bound", "3", str(f)]) == 0
        assert main(["codim", "--bound", "4", str(f)]) == 0
        assert len(built) == 1
        with pytest.raises(SystemExit) as exc:
            main(["codim", "--no-such-flag", str(f)])
        assert exc.value.code == 2
        assert len(built) == 1
    finally:
        cli._build_argparser.cache_clear()


def test_cli_lift_builds_the_associated_span_once(tmp_path, capsys, monkeypatch):
    from germforge import ideals

    built = []
    init = ideals.JetSpan.__init__

    def counted(self, nvars, level):
        built.append(level)
        init(self, nvars, level)

    monkeypatch.setattr(ideals.JetSpan, "__init__", counted)
    nf = tmp_path / "nf.germ"
    nf.write_text(LIFT_IDEAL)
    assert main(["lift", "--N", "12", str(nf)]) == 0
    out = capsys.readouterr().out
    assert "gen 1: D^0" in out and "gen 2: D^0" in out
    assert built == [12]


def test_cli_lift_expands_only_the_member_combinations(tmp_path, capsys, monkeypatch):
    """Span rows keep their reduction steps, and a combination is expanded
    only for a member: the lift's associated memberships stay well under
    the 29,100 Gaussian products of tracking every row's combination."""
    calls = [0]
    mul = GaussianRational.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(GaussianRational, "__mul__", counted)
    monkeypatch.setattr(GaussianRational, "__rmul__", counted)
    nf = tmp_path / "nf.germ"
    nf.write_text(LIFT_IDEAL)
    assert main(["lift", "--N", "20", str(nf)]) == 0
    assert "gen 2: D^0" in capsys.readouterr().out
    assert calls[0] <= 20_000


def test_cli_lift_inserts_no_product_a_syzygy_puts_in_the_span(tmp_path, capsys, monkeypatch):
    """The associated span of lift --N 40 skips every product whose monomial
    an earlier generator's row already leads: 12,104 inserts where all
    products made 20,540, and none of them reduces to zero."""
    from germforge import ideals

    results = []
    insert = ideals.JetSpan.insert

    def counted(self, vec, combo):
        results.append(insert(self, vec, combo))
        return results[-1]

    monkeypatch.setattr(ideals.JetSpan, "insert", counted)
    nf = tmp_path / "nf.germ"
    nf.write_text(LIFT_IDEAL)
    assert main(["lift", "--N", "40", str(nf)]) == 0
    assert "vanishes through order" in capsys.readouterr().out
    assert len(results) <= 12_104
    assert all(results)


LIFT_IDEAL = """vars 3; N=45;
gen z2^2 - z1^2;
gen 4*z1^2*z3 - 4*z1^2*z2;
normal_form {
  free 1;
  p = z2^2 - z1^2;
  D = 4*z1^2;
  Q 3 = 4*z1^2*z2;
}
"""


def test_cli_puiseux_and_lift(tmp_path, capsys):
    cusp = tmp_path / "cusp.germ"
    cusp.write_text("vars 2; N=45;\nz2^2 - z1^3;\n")
    code = main(["puiseux", "--N", "40", str(cusp)])
    assert code == 0
    out = capsys.readouterr().out
    assert "branch d=2 exact" in out

    nf = tmp_path / "nf.germ"
    nf.write_text(LIFT_IDEAL)
    code = main(["lift", "--N", "40", str(nf)])
    assert code == 0
    out = capsys.readouterr().out
    assert "vanishes through order" in out


def test_cli_puiseux_computes_one_discriminant_per_job(tmp_path, capsys, monkeypatch):
    """The branch expansion reuses the discriminant the line restriction
    computed instead of taking the restricted polynomial's again."""
    from germforge import weierstrass

    calls = []
    resultant = weierstrass.discriminant
    monkeypatch.setattr(weierstrass, "discriminant", lambda P: calls.append(P) or resultant(P))
    f = tmp_path / "sqrt.germ"
    f.write_text("vars 3; N=24;\nz3^2 - z1^2 - z2^2 - z1^3;\n")
    for order in (12, 20):
        calls.clear()
        assert main(["puiseux", "--N", str(order), str(f)]) == 0
        assert "branch" in capsys.readouterr().out
        assert len(calls) == 1


def test_cli_search_reports_lower_bound_note(workdir, capsys):
    code = main(["search", "--A", "2", "--d", "1", str(workdir / "finite.germ")])
    assert code == 0
    out = capsys.readouterr().out
    assert "ratio" in out
