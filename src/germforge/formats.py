"""Text formats: exact, line-oriented grammars for series, coefficient
forms, curves, ideals and certificates.

Shared grammar
--------------

The grammar is ASCII-only: any other character outside a comment is an
unexpected character.  Files start with a header ``vars <n>; N=<k>;`` and
may declare a base point ``base <c_1> .. <c_n>;``, any point p of Q(i)^n,
which the loader translates to the origin: the listed terms are read as the
complete polynomial through N, re-expanded in w = z - p and re-truncated, so
a zbar factor re-expands around the conjugate of p.  ``#`` starts a
comment.  Terms look like::

    + (3/4+1/2i)*z1^2*z2 - 2 zbar1 z1 + 1/2 z2^3

with ``*`` or whitespace between factors, ``zbar<j>`` for conjugated
variables, ``t`` in univariate series, and rational literals ``a/b``,
``a/b i`` or parenthesized complex pairs.  Every rational is printed back
bit-exactly; floats never appear in these formats.

Curve files list one statement per component::

    vars 3; N=60;
    z1 = t^3;  z2 = t^2;  z3 = 0;

Ideal files list ``gen <series>;`` statements plus an optional
``normal_form { free <k>; p = ..; D = ..; Q <j> = ..; }`` block supplying
the Weierstrass data of a prime ideal in strictly regular coordinates.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .coeffs import GaussianRational, ZERO, ONE
from .errors import ParseError
from .series import FormalCurve, TruncSeries, degree_key


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _render_terms(terms: List[Tuple[GaussianRational, str]]) -> str:
    """terms: (coefficient, factor-string or '')"""
    if not terms:
        return "0"
    parts: List[str] = []
    for idx, (c, fac) in enumerate(terms):
        neg = c.is_negative_lead()
        mag = -c if neg else c
        if fac and mag == ONE:
            body = fac
        elif fac:
            body = f"{mag.literal()}*{fac}"
        else:
            body = mag.literal()
        if idx == 0:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def _var_names(nvars: int) -> List[str]:
    if nvars == 1:
        return ["t"]
    return [f"z{i + 1}" for i in range(nvars)]


def _monomial_str(J, names: Sequence[str], bar: bool = False) -> str:
    parts = []
    for e, name in zip(J, names):
        if e == 0:
            continue
        base = f"zbar{name[1:]}" if bar else name
        parts.append(base if e == 1 else f"{base}^{e}")
    return "*".join(parts)


def format_series(s: TruncSeries, names: Optional[Sequence[str]] = None) -> str:
    names = list(names) if names else _var_names(s.nvars)
    terms = [(c, _monomial_str(J, names)) for J, c in s.terms()]
    return _render_terms(terms)


def format_series_file(s: TruncSeries) -> str:
    return f"vars {s.nvars}; N={s.precision};\n{format_series(s)};\n"


def format_hermitian(r) -> str:
    keys = sorted(
        r.full_map().items(),
        key=lambda it: (sum(it[0][0]) + sum(it[0][1]), degree_key(it[0][0]), degree_key(it[0][1])),
    )
    names = _var_names(r.nvars) if r.nvars > 1 else ["z1"]
    terms = []
    for (J, K), c in keys:
        zs = _monomial_str(J, names)
        zbars = _monomial_str(K, names, bar=True)
        fac = "*".join(x for x in (zs, zbars) if x)
        terms.append((c, fac))
    return _render_terms(terms)


def format_hermitian_file(r) -> str:
    return f"vars {r.nvars}; N={r.precision};\n{format_hermitian(r)};\n"


def format_curve(curve: FormalCurve) -> str:
    lines = [f"vars {curve.dim}; N={curve.precision};"]
    for i, comp in enumerate(curve.components):
        lines.append(f"z{i + 1} = {format_series(comp, ['t'])};")
    return "\n".join(lines) + "\n"


def format_ideal(I) -> str:
    names = _var_names(I.nvars) if I.nvars > 1 else ["z1"]
    lines = [f"vars {I.nvars}; N={I.precision};"]
    for g in I.generators:
        lines.append(f"gen {format_series(g, names)};")
    nf = I.normal_form
    if nf is not None:
        lines.append("normal_form {")
        lines.append(f"  free {nf.k};")
        base_names = names[: nf.k + 1]
        p_series = nf.p.as_series()
        lines.append(f"  p = {format_series(p_series, base_names)};")
        lines.append(f"  D = {format_series(nf.discriminant, names[: nf.k])};")
        for j, Q in nf.relations:
            lines.append(f"  Q {j} = {format_series(Q, names)};")
        lines.append("}")
    return "\n".join(lines) + "\n"


def format_weierstrass(P) -> str:
    names = _var_names(P.base_vars + 1)
    return format_series(P.as_series(), names)


def format_branch(b) -> str:
    if b.is_exact:
        w = format_series(b.w, ["t"])
        head = f"branch d={b.ramification} exact"
    else:
        w = repr(b.w)
        head = f"branch d={b.ramification} floating tol={b.tolerance}"
    return (
        f"{head}\n  w(t) = {w}\n  residual through order {b.certified_order}: "
        f"{'0 (exact)' if b.residual_bound == 0.0 else b.residual_bound}"
    )


def format_unitary(U) -> str:
    lines = [f"unitary block size {U.size} mode {U.mode}"
             + (f" tol {U.tolerance}" if U.tolerance else "")]
    fmt = str if U.is_exact else "{:.6g}".format
    for row in U.entries:
        lines.append("  [" + ", ".join(fmt(c) for c in row) + "]")
    return "\n".join(lines)


def format_witness(res) -> str:
    if res.certified:
        return f"witness certified: pullback vanishes through order {res.order}"
    return (
        f"witness failed at order {res.first_nonzero}: coefficient "
        f"{res.coefficient} at (t^{res.offending_pair[0]}, tbar^{res.offending_pair[1]})"
    )


def format_decomposition(dec) -> str:
    lines = [f"h = {format_series(dec.h)}"]
    for (J, f), (_, g) in zip(dec.fs, dec.gs):
        lines += [f"family {J}:", f"  f = {format_series(f)}", f"  g = {format_series(g)}"]
    return "\n".join(lines)


def format_search(results, limit: int) -> str:
    """The first ``limit`` (curve, ratio) rows of a monomial search, one a line."""
    rows = []
    for curve, ratio in results[:limit]:
        comps = ", ".join(format_series(c, ["t"]) for c in curve.components)
        rows.append(f"ratio {ratio}  curve ({comps})")
    return "\n".join(rows)


def format_codim_report(rep) -> str:
    lines = [
        "codimension report (dim of quotient by ideal + maximal-ideal powers)",
        "  level k : " + " ".join(f"{k}:{d}" for k, d in enumerate(rep.dims, start=1)),
    ]
    if rep.verdict == "finite":
        lines.append(
            f"  verdict: finite, D(I) = {rep.value}, every degree-{rep.certificate_level} "
            "monomial certified in the ideal"
        )
        for vc in rep.variable_certificates:
            lines.append(
                f"  z{vc.variable + 1}^{vc.exponent} in ideal "
                f"({len(vc.combination)}-term combination)"
            )
    else:
        lines.append(f"  verdict: unresolved, D(I) >= {rep.lower_bound}")
    return "\n".join(lines)


def format_intersection_report(rep) -> str:
    lines = ["intersection diagnostic"]
    for name, sub in (("I1", rep.report1), ("I2", rep.report2), ("I1*I2", rep.product_report)):
        verdict = (
            f"finite D={sub.value}" if sub.verdict == "finite" else f"unresolved >= {sub.lower_bound}"
        )
        lines.append(f"  {name}: {verdict}")
    if rep.both_finite:
        lines.append(
            f"  both finite: M0^{rep.intersection_level} inside the intersection "
            f"{'verified' if rep.intersection_verified else 'NOT verified'}"
        )
    return "\n".join(lines)


def emit_block(name: str, body: str) -> str:
    body = body.rstrip("\n")
    return f"begin {name}\n{body}\nend {name}\n"


def extract_block(text: str, name: str) -> Optional[str]:
    lines = text.splitlines()
    out: List[str] = []
    inside = False
    for ln in lines:
        if ln.strip() == f"begin {name}":
            inside = True
            continue
        if ln.strip() == f"end {name}":
            return "\n".join(out) + "\n"
        if inside:
            out.append(ln)
    return None


# ---------------------------------------------------------------------------
# tokenizing
# ---------------------------------------------------------------------------


class _Tok:
    __slots__ = ("kind", "value", "line", "col", "var")

    def __init__(self, kind, value, line, col, var=None):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col
        self.var = var  # (conjugated, 0-based index) for t, z<j> and zbar<j>

    def __repr__(self):
        return f"{self.kind}({self.value})"


# One lexeme per match, ASCII only.  A comment takes no columns, and a
# character that starts no lexeme is an unexpected character.
_LEXEME = re.compile(
    r"(?P<nl>\n)|[ \t\r]+|(?P<comment>#[^\n]*)|(?P<num>[0-9]+)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)|(?P<sym>[-+*/^()=;{},])|(?P<bad>.)",
    re.S,
)
_VARIABLE = re.compile(r"z(bar)?([0-9]+)")


def _variable(word: str) -> Optional[Tuple[bool, int]]:
    if word == "t":
        return False, 0
    m = _VARIABLE.fullmatch(word)
    return (bool(m[1]), int(m[2]) - 1) if m else None


def _tokenize(text: str) -> List[_Tok]:
    toks: List[_Tok] = []
    line, line_start = 1, 0
    kind = col = None
    for m in _LEXEME.finditer(text):
        kind, lexeme, col = m.lastgroup, m[0], m.start() - line_start + 1
        if kind == "nl":
            line, line_start = line + 1, m.end()
        elif kind == "num":
            toks.append(_Tok("NUM", int(lexeme), line, col))
        elif kind == "word":
            toks.append(_Tok("IDENT", lexeme, line, col, _variable(lexeme)))
        elif kind == "sym":
            toks.append(_Tok(lexeme, lexeme, line, col))
        elif kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", line, col)
    eof_col = col if kind == "comment" else len(text) - line_start + 1
    toks.append(_Tok("EOF", None, line, eof_col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def accept(self, kind, value=None) -> Optional[_Tok]:
        t = self.peek()
        if t.kind == kind and (value is None or t.value == value):
            return self.next()
        return None

    def expect(self, kind, value=None, what="") -> _Tok:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = what or (value if value is not None else kind)
            raise ParseError(f"expected {want}, found {t.value!r}", t.line, t.col)
        return self.next()

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)


# ---------------------------------------------------------------------------
# grammar pieces
# ---------------------------------------------------------------------------


def _parse_rational(P: _Parser) -> Fraction:
    num = P.expect("NUM", what="a number").value
    if P.accept("/"):
        den = P.expect("NUM", what="a denominator").value
        if den == 0:
            P.error("zero denominator")
        return Fraction(num, den)
    return Fraction(num)


def _parse_signed_rational(P: _Parser) -> Tuple[Fraction, bool]:
    """Returns (value, saw_i): one summand of a complex literal."""
    sign = -1 if P.accept("-") else 1
    if sign == 1:
        P.accept("+")
    if P.accept("IDENT", "i"):
        return Fraction(sign), True
    val = _parse_rational(P)
    return sign * val, bool(P.accept("IDENT", "i"))


def _parse_complex_body(P: _Parser) -> GaussianRational:
    parts = [Fraction(0), Fraction(0)]  # real, imaginary
    while True:
        val, is_im = _parse_signed_rational(P)
        parts[is_im] += val
        if P.peek().kind not in ("+", "-"):
            return GaussianRational(*parts)


def _try_parse_coefficient(P: _Parser) -> Optional[GaussianRational]:
    t = P.peek()
    if t.kind == "(":
        P.next()
        c = _parse_complex_body(P)
        P.expect(")")
        return c
    if t.kind == "NUM":
        val = _parse_rational(P)
        return GaussianRational(0, val) if P.accept("IDENT", "i") else GaussianRational(val)
    return GaussianRational(0, 1) if P.accept("IDENT", "i") else None


def _parse_terms(P: _Parser, nvars: int):
    """List of (coefficient, z-exponents, zbar-exponents); stops before ';',
    '}', EOF or a statement keyword."""
    terms = []
    first = True
    while True:
        t = P.peek()
        if t.kind in (";", "}", "EOF"):
            break
        if t.kind == "IDENT" and t.var is None and t.value != "i":
            break
        sign = 1
        if P.accept("-"):
            sign = -1
        elif P.accept("+"):
            pass
        elif not first:
            P.error("expected + or - between terms")
        coeff = _try_parse_coefficient(P)
        J = [0] * nvars
        K = [0] * nvars
        saw_factor = False
        while True:
            P.accept("*")
            t = P.peek()
            if t.var is None:
                break
            P.next()
            bar, idx = t.var
            if t.value == "t" and nvars != 1:
                raise ParseError("variable t only appears in univariate series", t.line, t.col)
            if not 0 <= idx < nvars:
                raise ParseError(f"variable index {idx + 1} outside 1..{nvars}", t.line, t.col)
            exp = P.expect("NUM", what="an exponent").value if P.accept("^") else 1
            (K if bar else J)[idx] += exp
            saw_factor = True
        if coeff is None and not saw_factor:
            P.error("empty term")
        c = coeff if coeff is not None else ONE
        if sign < 0:
            c = -c
        terms.append((c, tuple(J), tuple(K)))
        first = False
    return terms


def _parse_header(P: _Parser) -> Tuple[int, int, Optional[List[GaussianRational]]]:
    P.expect("IDENT", "vars", what="'vars'")
    nvars = P.expect("NUM", what="the variable count").value
    if nvars < 1:
        P.error("need at least one variable")
    P.expect(";")
    P.expect("IDENT", "N", what="'N'")
    P.expect("=")
    precision = P.expect("NUM", what="the precision").value
    if precision < 1:
        P.error("precision must be >= 1")
    P.expect(";")
    base = None
    if P.accept("IDENT", "base"):
        base = []
        for _ in range(nvars):
            sign = -1 if P.accept("-") else 1
            c = _try_parse_coefficient(P)
            if c is None:
                P.error("expected a base-point coordinate")
            base.append(c if sign > 0 else -c)
        P.expect(";")
    return nvars, precision, base


# ---------------------------------------------------------------------------
# top-level loaders
# ---------------------------------------------------------------------------


def _shifted_monomial(
    nvars: int, precision: int, J: tuple, base: List[GaussianRational]
) -> TruncSeries:
    """(z + p)^J expanded and truncated."""
    out = TruncSeries.constant(nvars, precision, 1)
    for i, e in enumerate(J):
        if e == 0:
            continue
        zi = TruncSeries(
            nvars,
            precision,
            {
                tuple(1 if k == i else 0 for k in range(nvars)): ONE,
                (0,) * nvars: base[i],
            },
        )
        out = out * (zi**e)
    return out


def _expand_terms(terms, nvars: int, precision: int, base) -> Dict[tuple, GaussianRational]:
    """{(J, K): c}: the sum of c (z+p)^J conj((z+p)^K) over the parsed terms,
    cut at total degree ``precision``; without a base point, the terms as read."""
    out: Dict[tuple, GaussianRational] = {}
    for c, J, K in terms:
        if base is None:
            expanded = [((J, K), c)]
        else:
            zs = _shifted_monomial(nvars, precision, J, base).coeffs
            zbars = _shifted_monomial(nvars, precision, K, base).coeffs
            expanded = [((Jz, Kz), c * cz * ck.conjugate())
                        for Jz, cz in zs.items() for Kz, ck in zbars.items()
                        if sum(Jz) + sum(Kz) <= precision]
        for key, v in expanded:
            v += out.get(key, ZERO)
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def _holomorphic_series(
    terms, nvars: int, precision: int, where: _Tok, what: str, base=None
) -> TruncSeries:
    """Sum parsed terms into one series, each monomial re-expanded around
    ``base`` when one is given; a zbar factor is a ParseError at ``where``."""
    if any(any(K) for _, _, K in terms):
        raise ParseError(f"{what} are holomorphic: zbar factors are not allowed",
                         where.line, where.col)
    expanded = _expand_terms(terms, nvars, precision, base)
    return TruncSeries(nvars, precision, {J: c for (J, _), c in expanded.items()})


def parse_series(text: str) -> TruncSeries:
    """Series literal file: header plus holomorphic terms (no zbar)."""
    P = _Parser(text)
    start = P.peek()
    nvars, precision, base = _parse_header(P)
    terms = _parse_terms(P, nvars)
    P.accept(";")
    P.expect("EOF", what="end of file")
    return _holomorphic_series(terms, nvars, precision, start, "series files", base)


def parse_hermitian(text: str) -> "HermitianForm":
    """Real-valued coefficient form; reality is checked on load and a missing
    conjugate partner is reported as a reality violation."""
    from .hermitian import HermitianForm

    P = _Parser(text)
    nvars, precision, base = _parse_header(P)
    terms = _parse_terms(P, nvars)
    P.accept(";")
    P.expect("EOF", what="end of file")
    return HermitianForm(nvars, precision, _expand_terms(terms, nvars, precision, base))


def parse_curve(text: str) -> FormalCurve:
    P = _Parser(text)
    nvars, precision, base = _parse_header(P)
    if base is not None:
        raise ParseError("curves are stated at the origin; translate inputs instead", 1, 1)
    comps: Dict[int, TruncSeries] = {}
    while P.peek().kind != "EOF":
        t = P.expect("IDENT", what="a component statement like 'z1 = ...;'")
        if t.var is None or t.var[0] or t.value == "t":
            raise ParseError(f"expected a component name, found {t.value!r}", t.line, t.col)
        idx = t.var[1]
        if not 0 <= idx < nvars:
            raise ParseError(f"component index outside 1..{nvars}", t.line, t.col)
        if idx in comps:
            raise ParseError(f"component z{idx + 1} given twice", t.line, t.col)
        P.expect("=")
        terms = _parse_terms(P, 1)
        P.expect(";")
        s = _holomorphic_series(terms, 1, precision, t, "curve components")
        if s.constant_term():
            raise ParseError(f"component z{idx + 1} does not vanish at t = 0", t.line, t.col)
        comps[idx] = s
    missing = [i + 1 for i in range(nvars) if i not in comps]
    if missing:
        raise ParseError(f"missing components: z{missing}", 1, 1)
    return FormalCurve([comps[i] for i in range(nvars)])


def parse_ideal(text: str) -> "IdealPresentation":
    from .ideals import IdealPresentation
    from .weierstrass import NormalForm, WeierstrassPoly

    P = _Parser(text)
    nvars, precision, base = _parse_header(P)
    if base is not None:
        raise ParseError("ideal files are stated at the origin", 1, 1)
    gens: List[TruncSeries] = []
    nf = None
    while P.peek().kind != "EOF":
        t = P.peek()
        if t.kind == "IDENT" and t.value == "gen":
            P.next()
            terms = _parse_terms(P, nvars)
            P.expect(";")
            gens.append(_holomorphic_series(terms, nvars, precision, t, "ideal generators"))
            continue
        if t.kind == "IDENT" and t.value == "normal_form":
            P.next()
            P.expect("{")
            P.expect("IDENT", "free", what="'free'")
            k = P.expect("NUM", what="the free variable count").value
            P.expect(";")
            p_poly = None
            disc = None
            relations: List[Tuple[int, TruncSeries]] = []
            while not P.accept("}"):
                key = P.expect("IDENT", what="'p', 'D' or 'Q'")
                entry_vars = {"p": k + 1, "D": k, "Q": nvars}.get(key.value)
                if entry_vars is None:
                    raise ParseError(
                        f"unknown normal_form key {key.value!r}", key.line, key.col
                    )
                if key.value == "Q":
                    j = P.expect("NUM", what="the variable index").value
                P.expect("=")
                terms = _parse_terms(P, entry_vars)
                P.expect(";")
                s = _holomorphic_series(terms, entry_vars, precision, key, "normal_form entries")
                if key.value == "p":
                    deg = max(J[-1] for J in s.coeffs) if s.coeffs else 0
                    p_poly = WeierstrassPoly.from_series(s, deg)
                elif key.value == "D":
                    disc = s
                else:
                    relations.append((j, s))
            if p_poly is None or disc is None:
                raise ParseError("normal_form needs both p and D", t.line, t.col)
            nf = NormalForm(nvars, k, p_poly, disc, relations)
            continue
        raise ParseError(f"expected 'gen' or 'normal_form', found {t.value!r}", t.line, t.col)
    if not gens and nf is not None:
        gens = nf.generators()
    return IdealPresentation(nvars, gens, normal_form=nf)
