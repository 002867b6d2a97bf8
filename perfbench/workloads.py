"""Seeded input generation for the three benchmark workloads.

A workload is a sequence of *rounds*.  Every round has the same job classes
in the same order; the seed only draws the parameters inside each class
(exponents, coefficients, variable roles, orders).  A run always finishes the
round it is in, so every run measures the same class mix whatever its length.

Each job carries the germforge argv, the input files it reads, and the facts
the output checks need (the known answer and the exact input data).  This
module does not import germforge: the program receives only the files.

Exact coefficients are Gaussian rationals written as (re, im) pairs of
Fractions."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

WORKLOADS = ("pipeline-witness", "pipeline-finite", "algebra")

# Enough rounds for a 60 s run of a program about ten times faster than the
# current one; a run that gets through all of them starts again at round 0.
ROUNDS = 40

Gauss = Tuple[Fraction, Fraction]
ONE: Gauss = (Fraction(1), Fraction(0))


@dataclass
class Job:
    """One CLI invocation; ``argv`` names its inputs relative to the input
    directory, and ``known`` holds what the checks compare against."""

    name: str
    kind: str
    argv: List[str]
    files: Dict[str, str]
    known: dict = field(default_factory=dict)

    def describe(self) -> str:
        return f"{self.name} {' '.join(self.argv)}"


# ---------------------------------------------------------------------------
# text rendering in the germforge input grammar
# ---------------------------------------------------------------------------


def _coeff_text(c: Gauss) -> str:
    """Signed coefficient: '+ 3/4', '- 2', '+ (1/2-3i)'."""
    re, im = c
    if im == 0:
        return f"- {-re}" if re < 0 else f"+ {re}"
    sign = "-" if im < 0 else "+"
    return f"+ ({re}{sign}{abs(im)}i)"


def _mono_text(exps, prefix: str) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e:
            parts.append(f"{prefix}{i + 1}" + (f"^{e}" if e > 1 else ""))
    return " ".join(parts)


def hermitian_text(nvars: int, precision: int, form: Dict) -> str:
    """Form file for {(J, K): coefficient}."""
    terms = []
    for (J, K), c in sorted(form.items()):
        fac = " ".join(x for x in (_mono_text(J, "z"), _mono_text(K, "zbar")) if x)
        terms.append(f"{_coeff_text(c)} {fac}")
    return f"vars {nvars}; N={precision};\n" + "\n".join(terms) + ";\n"


def series_terms_text(series: Dict) -> str:
    """Holomorphic terms for {J: coefficient}, e.g. '+ 1 z2^2 - 1 z1^2'."""
    return " ".join(f"{_coeff_text(c)} {_mono_text(J, 'z')}" for J, c in sorted(series.items()))


# ---------------------------------------------------------------------------
# small exact helpers
# ---------------------------------------------------------------------------


def _unit(nvars: int, i: int, e: int = 1) -> Tuple[int, ...]:
    return tuple(e if k == i else 0 for k in range(nvars))


def _add(J, K):
    return tuple(a + b for a, b in zip(J, K))


def _conj(c: Gauss) -> Gauss:
    return (c[0], -c[1])


def _neg(c: Gauss) -> Gauss:
    return (-c[0], -c[1])


def _bump(form: Dict, key, c: Gauss):
    old = form.get(key, (Fraction(0), Fraction(0)))
    v = (old[0] + c[0], old[1] + c[1])
    if v[0] or v[1]:
        form[key] = v
    else:
        form.pop(key, None)


def _rat(rng: random.Random, choices) -> Fraction:
    return Fraction(rng.choice(choices))


# ---------------------------------------------------------------------------
# pipeline-witness: infinite-type forms 2 Re z_k + |z_i^p - c z_j^q|^2
# ---------------------------------------------------------------------------

WITNESS_PAIRS = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
# c != 1: the greedy search seeds unit coefficients and misses these exact
# witnesses (for example (8t^3, 2t^2, 0) and (i t^3, -i t^2, 0)); the misses
# are a known defect and stay in the mix so that decided_frac shows them.
WITNESS_MISS_C = [(Fraction(8), Fraction(0)), (Fraction(0), Fraction(1))]


def _witness_job(name: str, pair, roles, N: int, c: Gauss, extras: str) -> Job:
    p, q = pair
    i, j, k = roles
    prec = N + 10
    zi_p, zj_q = _unit(3, i, p), _unit(3, j, q)
    zero = (0, 0, 0)
    form: Dict = {}
    _bump(form, (_unit(3, k), zero), ONE)
    _bump(form, (zero, _unit(3, k)), ONE)
    _bump(form, (zi_p, zi_p), ONE)
    _bump(form, (zi_p, zj_q), _neg(_conj(c)))
    _bump(form, (zj_q, zi_p), _neg(c))
    _bump(form, (zj_q, zj_q), (c[0] * c[0] + c[1] * c[1], Fraction(0)))
    # terms that vanish on the witness curve, where z_k = 0
    if extras in ("norm", "both"):
        _bump(form, (_unit(3, k), _unit(3, k)), ONE)
    if extras in ("mixed", "both"):
        zik = _add(_unit(3, i), _unit(3, k))
        _bump(form, (zik, zero), ONE)
        _bump(form, (zero, zik), ONE)
    return Job(
        name=name,
        kind="witness",
        argv=["pipeline", "--N", str(N), "--A", "3", "--d", "2", "--bound", "6", f"{name}.germ"],
        files={f"{name}.germ": hermitian_text(3, prec, form)},
        known={
            "form": form,
            "N": N,
            "label": f"p={p} q={q} c={_gauss_str(c)} roles=z{i + 1},z{j + 1},z{k + 1} "
            f"N={N} extra={extras}",
        },
    )


def _gauss_str(c: Gauss) -> str:
    re, im = c
    if im == 0:
        return str(re)
    if re == 0:
        return "i" if im == 1 else f"{im}i"
    return f"{re}{'+' if im > 0 else ''}{im}i"


def _witness_round(rng: random.Random, r: int) -> List[Job]:
    """Six jobs: every pair once, every role permutation once, N spread over
    30..50, four with c = 1 and one each with c = 8 and c = i, and a fixed
    multiset of vanishing extra terms.  The seed decides which goes with
    which; job cost depends strongly on pair and roles, so each round holds
    the same cost classes."""
    pairs = rng.sample(WITNESS_PAIRS, 6)
    roles = rng.sample(list(itertools.permutations(range(3))), 6)
    Ns = [30 + int(20 * (k + rng.random()) / 6) for k in range(6)]
    cs = [ONE] * 4 + WITNESS_MISS_C
    extras = ["none", "none", "none", "norm", "mixed", "both"]
    for xs in (Ns, cs, extras):
        rng.shuffle(xs)
    return [
        _witness_job(f"r{r:02d}j{n}", pairs[n], roles[n], Ns[n], cs[n], extras[n])
        for n in range(6)
    ]


# ---------------------------------------------------------------------------
# pipeline-finite: 2 Re z_n + sum c_i |z_i|^(2 m_i), type 2 max m_i
# ---------------------------------------------------------------------------

FINITE_C = [1, 2, 3, Fraction(1, 2), Fraction(2, 3), Fraction(5, 4)]


def _finite_job(rng: random.Random, name: str, ms: List[int]) -> Job:
    n = len(ms) + 1
    top = max(ms)
    P = 8 * top + 4  # criterion 03's sizing
    zero = (0,) * n
    form: Dict = {}
    _bump(form, (_unit(n, n - 1), zero), ONE)
    _bump(form, (zero, _unit(n, n - 1)), ONE)
    for i, m in enumerate(ms):
        c = (_rat(rng, FINITE_C), Fraction(0))
        _bump(form, (_unit(n, i, m), _unit(n, i, m)), c)
    return Job(
        name=name,
        kind="finite",
        argv=["pipeline", "--N", str(P), "--A", "3", "--d", "2", "--bound", "6", f"{name}.germ"],
        files={f"{name}.germ": hermitian_text(n, P, form)},
        known={"form": form, "type": 2 * top, "label": f"n={n} m={ms}"},
    )


def _finite_round(rng: random.Random, r: int) -> List[Job]:
    """Two cheap two-variable jobs, then three-variable jobs with exponents
    (1, 1) three times, (2, 1) and (3, 2).  The (1, 1) jobs hold the median,
    so the median is taken inside one cost class; the seed draws the
    coefficients, the order of the exponents and the two-variable m."""
    jobs = [_finite_job(rng, f"r{r:02d}j{n}", [m]) for n, m in enumerate(rng.sample([1, 2, 3], 2))]
    for n, ms in enumerate(([1, 1], [1, 1], [1, 1], [2, 1], [3, 2]), start=2):
        jobs.append(_finite_job(rng, f"r{r:02d}j{n}", rng.sample(ms, 2)))
    return jobs


# ---------------------------------------------------------------------------
# algebra: codim, puiseux and lift jobs
# ---------------------------------------------------------------------------


def _ideal_text(nvars: int, precision: int, gens: List[Dict]) -> str:
    lines = [f"vars {nvars}; N={precision};"]
    lines += [f"gen {series_terms_text(g)};" for g in gens]
    return "\n".join(lines) + "\n"


def _codim_monomial_job(rng: random.Random, name: str) -> Job:
    B = rng.randint(12, 16)
    powers = [rng.randint(2, 4) for _ in range(3)]
    exps = [_unit(3, i, e) for i, e in enumerate(powers)]
    for _ in range(rng.randint(0, 2)):
        mixed = tuple(rng.randint(0, 1) for _ in range(3))
        if sum(mixed) >= 2 and mixed not in exps:
            exps.append(mixed)
    gens = [{J: ONE} for J in exps]
    return Job(
        name=name,
        kind="codim",
        argv=["codim", "--bound", str(B), f"{name}.germ"],
        files={f"{name}.germ": _ideal_text(3, B + 2, gens)},
        known={"bound": B, "reduced_nvars": 3, "reduced": exps,
               "label": f"monomial {exps} B={B}"},
    )


def _codim_binomial_job(rng: random.Random, name: str) -> Job:
    """(z_a - c z_b^2, z_b^beta, z_d^delta[, z_b z_d]): eliminating z_a leaves a
    monomial ideal in (z_b, z_d) with the same level dimensions."""
    B = rng.randint(12, 16)
    a, b, d = rng.sample(range(3), 3)
    c = (_rat(rng, [1, -1, 2, Fraction(1, 2), -3]), Fraction(0))
    beta, delta = rng.randint(2, 4), rng.randint(2, 3)
    gens = [{_unit(3, a): ONE, _unit(3, b, 2): _neg(c)}, {_unit(3, b, beta): ONE},
            {_unit(3, d, delta): ONE}]
    reduced = [(beta, 0), (0, delta)]
    if rng.random() < 0.5:
        gens.append({_add(_unit(3, b), _unit(3, d)): ONE})
        reduced.append((1, 1))
    return Job(
        name=name,
        kind="codim",
        argv=["codim", "--bound", str(B), f"{name}.germ"],
        files={f"{name}.germ": _ideal_text(3, B + 2, gens)},
        known={"bound": B, "reduced_nvars": 2, "reduced": reduced,
               "label": f"binomial z{a + 1}-({_gauss_str(c)})z{b + 1}^2 reduced={reduced} B={B}"},
    )


def _puiseux_job(rng: random.Random, name: str, family: str) -> Job:
    """Bivariate series, regular in z2, whose branches all have Gaussian-rational
    coefficients, so every branch should come out exact."""
    if family == "sqrt":
        # z2^2 - z1^2 (1 + a z1): w = +-t sqrt(1 + a t)
        a = _rat(rng, [1, 2, 3, -1, -2, Fraction(1, 2), Fraction(-3, 2)])
        s = {(0, 2): ONE, (2, 0): (Fraction(-1), Fraction(0)), (3, 0): (-a, Fraction(0))}
        degree, label = 2, f"z2^2 - z1^2(1 + {a} z1)"
    else:
        # (z2^2 - b^2 z1^2)^2 - z1^5: two ramified branches of degree 2
        b = _rat(rng, [1, 2, Fraction(1, 2), 3])
        b2 = b * b
        s = {(0, 4): ONE, (2, 2): (-2 * b2, Fraction(0)), (4, 0): (b2 * b2, Fraction(0)),
             (5, 0): (Fraction(-1), Fraction(0))}
        degree, label = 4, f"(z2^2 - {b2} z1^2)^2 - z1^5"
    text = f"vars 2; N=44;\n{series_terms_text(s)};\n"
    return Job(
        name=name,
        kind="puiseux",
        argv=["puiseux", "--N", "40", f"{name}.germ"],
        files={f"{name}.germ": text},
        known={"series": s, "degree": degree, "label": label},
    )


def _lift_job(rng: random.Random, name: str, L: int) -> Job:
    """Normal-form family of the CLI lift test: p = z2^2 - a^2 z1^2,
    D = 4 a^2 z1^2, Q3 = D (alpha z2 + beta z1), so z3 = alpha z2 + beta z1
    on the lifted curve and both generators lie in the associated ideal."""
    a = _rat(rng, [1, 2, 3, Fraction(1, 2)])
    alpha = _rat(rng, [1, -1, 2])
    beta = _rat(rng, [0, 1, -1, 2])
    a2 = a * a
    D = 4 * a2
    z1, z2, z3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    p = {(0, 2, 0): ONE, (2, 0, 0): (-a2, Fraction(0))}
    Q = {_add((2, 0, 0), z2): (D * alpha, Fraction(0))}
    if beta:
        Q[_add((2, 0, 0), z1)] = (D * beta, Fraction(0))
    q = {_add((2, 0, 0), z3): (D, Fraction(0))}
    q.update({J: _neg(c) for J, c in Q.items()})
    text = (
        f"vars 3; N=45;\ngen {series_terms_text(p)};\ngen {series_terms_text(q)};\n"
        "normal_form {\n  free 1;\n"
        f"  p = {series_terms_text({J[:2]: c for J, c in p.items()})};\n"
        f"  D = {series_terms_text({(2,): (D, Fraction(0))})};\n"
        f"  Q 3 = {series_terms_text(Q)};\n}}\n"
    )
    return Job(
        name=name,
        kind="lift",
        argv=["lift", "--N", str(L), f"{name}.germ"],
        files={f"{name}.germ": text},
        known={"gens": [p, q], "D": {(2, 0, 0): (D, Fraction(0))},
               "label": f"a={a} z3={alpha}z2+{beta}z1 L={L}"},
    )


def _algebra_round(rng: random.Random, r: int) -> List[Job]:
    # the three square-root Puiseux jobs (about 0.8 s each) hold the median;
    # codim jobs are cheaper, the ramified Puiseux and lift jobs dearer.  Lift
    # time grows about 1.6x per two orders, so L stays within 18..22: an L of
    # 24 against one of 16 would decide a run's throughput on its own.
    families = ["sqrt", "sqrt", "sqrt", "ramified"]
    return (
        [_codim_monomial_job(rng, f"r{r:02d}j0"), _codim_binomial_job(rng, f"r{r:02d}j1")]
        + [_puiseux_job(rng, f"r{r:02d}j{n}", f) for n, f in enumerate(families, start=2)]
        + [_lift_job(rng, f"r{r:02d}j6", rng.randint(18, 22))]
    )


# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, rounds: int = ROUNDS) -> List[List[Job]]:
    """The workload's rounds for this seed; equal seeds give equal jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"germforge-bench:{workload}:{seed}")
    if workload == "pipeline-witness":
        return [_witness_round(rng, r) for r in range(rounds)]
    if workload == "pipeline-finite":
        return [_finite_round(rng, r) for r in range(rounds)]
    return [_algebra_round(rng, r) for r in range(rounds)]


def write_inputs(rounds: List[List[Job]], directory: Path) -> None:
    """Write every job's input files."""
    directory.mkdir(parents=True, exist_ok=True)
    for jobs in rounds:
        for job in jobs:
            for fname, text in job.files.items():
                (directory / fname).write_text(text)
