"""Seeded inputs for the benchmark workloads.

Every function here turns a workload seed into plain data: generator
arrays of element encodings, messages, elements to decompose and CLI
problem documents.  Nothing here is timed.  The program under test
receives only these inputs.

The structured ideals are sums of two tensor products,
``I = <a1(x) b1(y), a2(x) b2(y)>`` with ``a2 | a1 | x^s - 1`` and
``b1 | b2 | y^ell - 1``.  Because ``<a1> <= <a2>`` and ``<b2> <= <b1>``,
the dimension depends only on the degrees:

    k = (s - A1)(ell - B1) + (s - A2)(ell - B2) - (s - A1)(ell - B2)

so a case keeps its k, and with it its cost, for every seed.  The seed
picks which divisors of each degree are used (among the factors of
x^s - 1 over the prime field), hides the structure behind a ring
automorphism, monomial shifts and scalars, and for ``dense`` cases
rewrites the pair by elementary ring operations with dense random
multipliers.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass

import numpy as np

# -- polynomials over GF(p) as ascending int lists (generation only) ---------


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _pdivmod(a, b, p):
    r = _trim([c % p for c in a])
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        shift = len(r) - len(b)
        f = (r[-1] * inv) % p
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] = (r[shift + i] - f * c) % p
        _trim(r)
    return q, r


@functools.lru_cache(maxsize=None)
def _cyclotomic(d):
    """Integer coefficients of the d-th cyclotomic polynomial."""
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num = _zdiv(num, _cyclotomic(e))
    return tuple(num)


def _zdiv(a, b):
    """Exact division of integer polynomials by a monic divisor."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for shift in range(len(q) - 1, -1, -1):
        f = r[shift + len(b) - 1]
        q[shift] = f
        for i, c in enumerate(b):
            r[shift + i] -= f * c
    return q


def _monic_polys(p, d):
    for n in range(p**d):
        c = []
        for _ in range(d):
            c.append(n % p)
            n //= p
        yield c + [1]


MAX_SPLIT_DEGREE = 6


def atoms(p, s):
    """Monic factors of x^s - 1 over GF(p), with multiplicity, sorted by
    (degree, coefficients).  Each cyclotomic factor is split by trial
    division by factors of degree up to MAX_SPLIT_DEGREE; a part that is
    not split further stays one atom.  The product of all atoms is x^s - 1."""
    out = []
    for d in range(1, s + 1):
        if s % d:
            continue
        rest = _trim([c % p for c in _cyclotomic(d)])
        deg = 1
        while len(rest) - 1 >= 2 * deg and deg <= MAX_SPLIT_DEGREE:
            for cand in _monic_polys(p, deg):
                while len(rest) - 1 >= deg:
                    q, r = _pdivmod(rest, cand, p)
                    if r:
                        break
                    out.append(cand)
                    rest = q
            deg += 1
        if len(rest) > 1:
            out.append(rest)
    out.sort(key=lambda a: (len(a), a))
    return out


# -- ring arithmetic on s x ell arrays (generation and checks) ---------------


def scale(fld, c, arr):
    if fld.m == 1:
        return (c * np.asarray(arr, dtype=np.int64)) % fld.p
    return fld.scale_array(c, arr)


def add(fld, a, b):
    if fld.m == 1:
        return (np.asarray(a) + np.asarray(b)) % fld.p
    return fld.add_arrays(a, b)


def ring_mul(fld, r, g):
    """Product r * g in F[x,y]/(x^s - 1, y^ell - 1) by shifted scalings."""
    r = np.asarray(r, dtype=np.int64)
    g = np.asarray(g, dtype=np.int64)
    out = np.zeros_like(g)
    for (a, b), c in np.ndenumerate(r):
        if c:
            out = add(fld, out, scale(fld, int(c), np.roll(g, (a, b), axis=(0, 1))))
    return out


def _coeff_vector(poly, n):
    v = np.zeros(n, dtype=np.int64)
    v[:len(poly)] = poly
    return v


def _units(n):
    return [u for u in range(1, n + 1) if math.gcd(u, n) == 1]


# -- structured ideals ---------------------------------------------------------


@dataclass(frozen=True)
class IdealSpec:
    """One structured case.  ``a2``/``c`` list the degrees of the x-atoms in
    a2 and in a1 / a2; ``b1``/``e`` those of the y-atoms in b1 and b2 / b1."""

    name: str
    p: int
    m: int
    s: int
    ell: int
    a2: tuple = ()
    c: tuple = ()
    b1: tuple = ()
    e: tuple = ()
    dense: bool = False

    @property
    def q(self):
        return self.p**self.m

    @property
    def k(self):
        s, ell = self.s, self.ell
        a2, b1 = sum(self.a2), sum(self.b1)
        a1, b2 = a2 + sum(self.c), b1 + sum(self.e)
        return (s - a1) * (ell - b1) + (s - a2) * (ell - b2) - (s - a1) * (ell - b2)


def _pick(pool, p, degrees, rng, used):
    """Product of one unused atom per requested degree, chosen by rng."""
    prod = [1]
    for d in degrees:
        cands = [i for i, a in enumerate(pool) if len(a) - 1 == d and i not in used]
        if not cands:
            raise ValueError(f"no unused atom of degree {d}")
        i = rng.choice(cands)
        used.add(i)
        prod = _pmul(prod, pool[i], p)
    return prod


def structured_generators(spec: IdealSpec, fld, rng: random.Random):
    """Two generator arrays presenting the ideal described by ``spec``."""
    s, ell, p = spec.s, spec.ell, spec.p
    xs, ys = atoms(p, s), atoms(p, ell)
    used = set()
    a2 = _pick(xs, p, spec.a2, rng, used)
    a1 = _pmul(a2, _pick(xs, p, spec.c, rng, used), p)
    used = set()
    b1 = _pick(ys, p, spec.b1, rng, used)
    b2 = _pmul(b1, _pick(ys, p, spec.e, rng, used), p)
    gens = [np.outer(_coeff_vector(a1, s), _coeff_vector(b1, ell)) % p,
            np.outer(_coeff_vector(a2, s), _coeff_vector(b2, ell)) % p]

    # x -> x^u, y -> y^v (u, v units) is a ring automorphism that permutes
    # the cells, so the image is an ideal of the same dimension
    u, v = rng.choice(_units(s)), rng.choice(_units(ell))
    rows = (u * np.arange(s)) % s
    cols = (v * np.arange(ell)) % ell
    out = []
    for g in gens:
        h = np.zeros_like(g)
        h[np.ix_(rows, cols)] = g
        h = np.roll(h, (rng.randrange(s), rng.randrange(ell)), axis=(0, 1))
        out.append(scale(fld, rng.randrange(1, fld.q), h))
    if spec.dense:
        g1, g2 = out
        g1 = add(fld, g1, ring_mul(fld, random_array(rng, fld.q, s, ell), g2))
        g2 = add(fld, g2, ring_mul(fld, random_array(rng, fld.q, s, ell), g1))
        out = [g1, g2]
    return [g.astype(np.int64) for g in out]


def random_array(rng, q, s, ell):
    return np.array([[rng.randrange(q) for _ in range(ell)] for _ in range(s)],
                    dtype=np.int64)


def random_member(fld, gens, rng):
    """A member of the ideal: a random ring combination of the generators."""
    s, ell = gens[0].shape
    out = np.zeros((s, ell), dtype=np.int64)
    for g in gens:
        out = add(fld, out, ring_mul(fld, random_array(rng, fld.q, s, ell), g))
    return out


# -- the workloads ---------------------------------------------------------------

SURVEY_FIELDS = ((2, 1), (3, 1), (2, 2))
SURVEY_DISTANCE_LIMIT = 1 << 12
# every (field, s, ell) of the acceptance corpus; survey ideal i uses
# configuration i mod 75, so each pass holds the same mix of sizes
SURVEY_CONFIGS = tuple((p, m, s, ell) for p, m in SURVEY_FIELDS
                       for s in range(1, 6) for ell in range(1, 6))


@dataclass
class SurveyCase:
    index: int
    p: int
    m: int
    s: int
    ell: int
    gens: list
    message: np.ndarray      # first k entries are used
    probe: np.ndarray        # random array, member or not


def survey_case(seed: int, index: int, fields) -> SurveyCase:
    """Ideal number ``index`` of the survey: the acceptance-corpus
    distribution (GF(2), GF(3), GF(4); 1 <= s, ell <= 5; one or two
    sparse, rank-one or dense generators)."""
    rng = random.Random(f"survey:{seed}:{index}")
    p, m, s, ell = SURVEY_CONFIGS[index % len(SURVEY_CONFIGS)]
    fld = fields[(p, m)]
    q = fld.q
    gens = []
    for _ in range(rng.randint(1, 2)):
        style = rng.random()
        if style < 0.45:
            arr = [[rng.randrange(q) if rng.random() < 0.5 else 0 for _ in range(ell)]
                   for _ in range(s)]
        elif style < 0.85:
            a = [rng.randrange(q) for _ in range(s)]
            b = [rng.randrange(q) for _ in range(ell)]
            arr = [[fld.mul(ai, bj) for bj in b] for ai in a]
        else:
            arr = [[rng.randrange(q) for _ in range(ell)] for _ in range(s)]
        gens.append(np.array(arr, dtype=np.int64))
    message = np.array([rng.randrange(q) for _ in range(s * ell)], dtype=np.int64)
    return SurveyCase(index, p, m, s, ell, gens, message, random_array(rng, q, s, ell))


LARGE_SPECS = (
    IdealSpec("gf2-15x15", 2, 1, 15, 15, a2=(2,), c=(4,), b1=(1,), e=(4,), dense=True),
    IdealSpec("gf2-16x16", 2, 1, 16, 16, a2=(1,) * 4, c=(1,) * 4, b1=(1,) * 4, e=(1,) * 4),
    IdealSpec("gf2-20x20", 2, 1, 20, 20, a2=(1, 4), c=(4,), b1=(4,), e=(1, 4), dense=True),
    IdealSpec("gf2-21x21", 2, 1, 21, 21, a2=(3,), c=(6,), b1=(1, 2), e=(6,)),
    IdealSpec("gf2-12x12", 2, 1, 12, 12, a2=(1, 2), c=(1,), b1=(2,), e=(1, 1)),
    IdealSpec("gf3-12x12", 3, 1, 12, 12, a2=(1, 2), c=(2,), b1=(1,), e=(2, 1), dense=True),
    IdealSpec("gf3-13x13", 3, 1, 13, 13, a2=(3,), c=(3,), b1=(3,), e=(3,)),
    IdealSpec("gf256-8x8", 2, 8, 8, 8, a2=(1,), c=(1, 1), b1=(1, 1), e=(1,), dense=True),
    IdealSpec("gf512-6x6", 2, 9, 6, 6, a2=(1,), c=(2,), b1=(1,), e=(2,), dense=True),
    IdealSpec("gf512-7x7", 2, 9, 7, 7, a2=(1,), c=(), b1=(), e=(3,), dense=True),
    IdealSpec("gf65536-5x5", 2, 16, 5, 5, a2=(1,), c=(), b1=(), e=(1,), dense=True),
)

DISTANCE_SPECS = (
    IdealSpec("gf2-4x4-k14", 2, 1, 4, 4, c=(1,), e=(1, 1), dense=True),
    IdealSpec("gf2-6x6-k17", 2, 1, 6, 6, a2=(1,), c=(1,), b1=(2,), e=(1, 2), dense=True),
    IdealSpec("gf4-6x6-k9", 2, 2, 6, 6, a2=(1, 2), b1=(1, 2), dense=True),
    IdealSpec("gf3-4x4-k10", 3, 1, 4, 4, a2=(1,), c=(1,), e=(2,), dense=True),
    IdealSpec("gf2-5x7-k16", 2, 1, 5, 7, a2=(1,), b1=(3,), dense=True),
    IdealSpec("gf2-5x5-k20-cap", 2, 1, 5, 5, a2=(1,), dense=True),
)


@dataclass
class StructuredCase:
    spec: IdealSpec
    gens: list
    message: np.ndarray


def structured_cases(specs, seed: int, tag: str, fields):
    out = []
    for i, spec in enumerate(specs):
        rng = random.Random(f"{tag}:{seed}:{i}")
        fld = fields[(spec.p, spec.m)]
        gens = structured_generators(spec, fld, rng)
        message = np.array([rng.randrange(fld.q) for _ in range(spec.k)], dtype=np.int64)
        out.append(StructuredCase(spec, gens, message))
    return out


CLI_SPECS = (
    IdealSpec("cli-gf2-4x4", 2, 1, 4, 4, a2=(1,), c=(1,), b1=(1,), e=(1,), dense=True),
    IdealSpec("cli-gf3-3x4", 3, 1, 3, 4, a2=(1,), b1=(1,), e=(2,)),
    IdealSpec("cli-gf4-3x3", 2, 2, 3, 3, c=(1,), e=(2,), dense=True),
)
CLI_ENUM_RANDOM = (3, 3, 3)       # (p, s, ell) for enumerate --mode random
CLI_ENUM_EXHAUSTIVE = (2, 3, 3)   # (p, s, ell) for enumerate --mode exhaustive


@dataclass
class CliCall:
    index: int
    sub: str
    args: tuple
    doc: dict
    case: int | None = None        # index into the problem list, if any
    element: list | None = None


def problem_doc(p, m, s, ell, gens):
    return {"field": {"p": p, "m": m}, "s": s, "ell": ell,
            "generators": [np.asarray(g).tolist() for g in gens]}


def cli_calls(seed: int, fields):
    """The problems and the sequence of CLI calls of one cli pass."""
    cases = structured_cases(CLI_SPECS, seed, "cli", fields)
    docs = [problem_doc(c.spec.p, c.spec.m, c.spec.s, c.spec.ell, c.gens) for c in cases]
    rng = random.Random(f"cli:{seed}:elements")
    members, nonmembers = [], []
    for c in cases:
        fld = fields[(c.spec.p, c.spec.m)]
        mem = random_member(fld, c.gens, rng)
        members.append(mem.tolist())
        # a proper ideal holds no unit, so member + unit monomial is outside it
        unit = np.zeros_like(mem)
        unit[rng.randrange(c.spec.s), rng.randrange(c.spec.ell)] = rng.randrange(1, fld.q)
        nonmembers.append(add(fld, mem, unit).tolist())
    rp, rs, rl = CLI_ENUM_RANDOM
    ep, es, el = CLI_ENUM_EXHAUSTIVE
    plan = [
        ("construct", (), 0), ("construct", (), 1), ("construct", (), 2),
        ("matrix", ("--format", "json"), 0), ("matrix", ("--format", "text"), 1),
        ("matrix", ("--format", "csv"), 2), ("matrix", ("--format", "json"), 1),
        ("params", ("--with-distance",), 0), ("params", ("--with-distance",), 1),
        ("params", ("--with-distance",), 2),
        ("member", ("--trace",), 0, members[0]), ("member", ("--trace",), 0, nonmembers[0]),
        ("member", ("--trace",), 1, members[1]), ("member", ("--trace",), 2, nonmembers[2]),
        ("verify", (), 0), ("verify", (), 1), ("verify", (), 2),
        ("enumerate", ("--mode", "random", "--count", "200", "--seed", str(seed)),
         problem_doc(rp, 1, rs, rl, [])),
        ("enumerate", ("--mode", "exhaustive"), problem_doc(ep, 1, es, el, [])),
        ("construct", (), problem_doc(2, 1, 2, 2, [[[1, 0], [1, 0]]])),
    ]
    calls = []
    for i, (sub, args, target, *element) in enumerate(plan):
        if isinstance(target, int):
            doc, case = docs[target], target
        else:
            doc, case = target, None
        if element:
            args = args + ("--element", json.dumps(element[0]))
        calls.append(CliCall(i, sub, args, doc, case, element[0] if element else None))
    return cases, calls


def workload_fields(name):
    """(p, m) of every field a workload builds during set-up."""
    specs = {"large": LARGE_SPECS, "distance": DISTANCE_SPECS, "cli": CLI_SPECS}.get(name)
    if specs is None:
        return sorted(SURVEY_FIELDS)
    return sorted({(s.p, s.m) for s in specs} | {(2, 1)})
