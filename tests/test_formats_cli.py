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

from conftest import g, hermitian, mono, random_real_form, series, uni

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


def test_cli_missing_file(workdir, capsys):
    code = main(["ratio", str(workdir / "nope.germ"), str(workdir / "curve.germ")])
    assert code == 1


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


def test_cli_search_reports_lower_bound_note(workdir, capsys):
    code = main(["search", "--A", "2", "--d", "1", str(workdir / "finite.germ")])
    assert code == 0
    out = capsys.readouterr().out
    assert "ratio" in out
