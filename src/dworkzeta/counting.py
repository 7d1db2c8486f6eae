"""Point counting for the Dwork pencil and its toric mirror.

The pencil (projective, in P^n) is cut out by

    f = x_1^{n+1} + ... + x_{n+1}^{n+1} + lam * x_1...x_{n+1},

its mirror is the projective closure Y of the torus hypersurface

    g = x_1 + ... + x_n + 1/(x_1...x_n) + lam = 0.

Each is described once, by an exponent matrix of x_0*f (`DworkInstance.M`)
or x_0*g (`DworkInstance.Nmat`): a row of ones for x_0, then one row per
variable, and one column per monomial.  Every coefficient is 1 except the
last column's, which is lam.  Both counting routes read the variety from
its matrix and nothing else: `count_brute` evaluates the polynomial at
every point, `charsum_count` sums the Gauss-sum character formula, and
`count_record` runs one route or both and compares them.  For the affine
count the formula is

    q N_f = sum over M k = 0 mod (q-1), k in [0, q-1]^m, of
            (q-1)^{s(k)-m} q^{v-s(k)} (prod_j G(k_j)) chi(lam)^{k_m},

with v = number of rows (ambient variables including x_0), m = number of
columns (monomials), and s(k) = number of nonzero entries of the integer
vector M k.  Both boundary lifts of a zero residue (0 and q-1) are distinct
terms.  For the torus count the x_0 = 0 stratum contributes (q-1)^{v-1} and
every solution carries the flat coefficient (q-1)^{v} / (q-1)^m.

When lam = 0 the last monomial is absent: the last exponent k_m is pinned
to 0 and the character factor is dropped.

Only chi(lam)^{k_m} depends on lam, through k_m mod (q-1), as lam lies in
GF(q).  The family part sums prod_j G(k_j), a value of Z_p[zeta_p], per
class c = k_m mod (q-1), the pencil's per (s(k), c) for its affine count;
the fiber part, in `charsum_count`, weights each key by its coefficient
times chi(lam)^c, a value of W, on the tower over the base field GF(q),
and `TowerCtx.zp_integer` certifies the weighted sum a rational integer.

The family part walks no solution (module `family`): over GF(Q) the
pencil's solutions fall into residue classes, each summed as one packed
power in Z_p[zeta_p][z]/(z^g - 1), g = gcd(n+1, Q-1), and the mirror's
solutions are the pencil's diagonal ones, so one pass sums both: the
mirror's part at once and the pencil's on its first request.
`oracles.enumerate_solutions`, the walk over the solutions one per class
of block reorderings and orbit of k -> q k, is the tests' oracle.  The
pass runs on the tower over GF(q^f), f = `gauss_field_degree`, and reads
each Gauss sum over GF(q^k) by its index (`TowerCtx.gauss_sums`): a
proper subfield only at lam = 0, f = k otherwise.
"""
from __future__ import annotations

from collections import namedtuple
from math import gcd

from .config import Caps, DEFAULT_CAPS
from .errors import (
    DivisibilityViolation,
    EnumerationTooLarge,
    NonIntegralResult,
    PrecisionInsufficient,
)
from .ff import FieldCtx, build_field, embed
from .family import _family_sums
from .padic import build_tower


def dwork_matrix_M(n: int) -> tuple:
    """(n+2) x (n+2) exponent matrix of x_0*f: row 0 all ones, then n+1 on
    the diagonal with a final column of ones.  The columns are the
    monomials x_i^{n+1} and, last, lam * x_1...x_{n+1}; `count_brute` and
    `charsum_count` both read f from them."""
    rows = [tuple([1] * (n + 2))]
    for i in range(n + 1):
        row = [0] * (n + 2)
        row[i] = n + 1
        row[n + 1] = 1
        rows.append(tuple(row))
    return tuple(rows)


def dwork_matrix_N(n: int) -> tuple:
    """(n+1) x (n+2) exponent matrix of x_0*g: row 0 all ones, then the
    identity block against a column of -1 and a zero column for lam.  The
    columns are the monomials x_i, 1/(x_1...x_n) and, last, the constant
    lam; `count_brute` and `charsum_count` both read g from them."""
    rows = [tuple([1] * (n + 2))]
    for i in range(n):
        row = [0] * (n + 2)
        row[i] = 1
        row[n] = -1
        rows.append(tuple(row))
    return tuple(rows)


class DworkInstance:
    """The pair (f, g) for parameters (n, lam) over a base field model, with
    their exponent matrices M and Nmat."""

    def __init__(self, n: int, field: FieldCtx, lam: int):
        if n < 2:
            raise ValueError("n must be >= 2")
        if not 0 <= lam < field.pp.q:
            raise ValueError("lam is not an element code of the base field")
        self.n, self.field, self.lam = n, field, lam  # lam: a code in field
        self.M = dwork_matrix_M(n)
        self.Nmat = dwork_matrix_N(n)

    def extension(self, k: int, cap: int = DEFAULT_CAPS.field_table_max_q):
        """(the shared model of GF(q^k), the image of lam under `embed`)."""
        if k == 1:
            return self.field, self.lam
        F = self.field
        ext = build_field(F.pp.p, F.pp.r * k, F.seed, cap=cap)
        return ext, embed(F, ext, self.lam)

    @property
    def lam_dlog(self) -> int | None:
        """The discrete log of lam in the base field; None for lam = 0."""
        return None if self.lam == 0 else self.field.dlog(self.lam)

    def __repr__(self):
        return (f"DworkInstance(n={self.n}, q={self.field.pp.q}, "
                f"lam={self.lam})")


# ---------------------------------------------------------------------------
# brute-force counts
# ---------------------------------------------------------------------------

def _check_domain(matrix, torus: bool) -> None:
    """A negative exponent, N's 1/(x_1...x_n), has no value at x = 0."""
    if not torus and min(map(min, matrix)) < 0:
        raise ValueError("a negative exponent has no affine count")


def count_brute(inst: DworkInstance, matrix, k: int = 1, torus: bool = True,
                caps: Caps = DEFAULT_CAPS) -> int:
    """Zeros over GF(q^k), on the torus or (torus=False) in affine space, of
    the polynomial whose monomials are the columns of `matrix` below its row
    of ones, every coefficient 1 but lam on the last column.

    A column with one nonzero entry is a term of that variable, kept in a
    per-variable value table; an all-zero column is a constant; the one
    remaining column is the product of the variables, carried through the
    depth-first walk by its discrete log until a coordinate is 0."""
    _check_domain(matrix, torus)
    F, lam = inst.extension(k, cap=caps.field_table_max_q)
    q, nvars = F.pp.q, len(matrix) - 1
    size, cap = ((q - 1, caps.torus_enum_max) if torus
                 else (q, caps.affine_enum_max))
    if size ** nvars > cap:
        raise EnumerationTooLarge(size ** nvars, cap)
    q1, add, log, last = q - 1, F.add, F.log_table, len(matrix[0]) - 1
    # terms[i][x - 1]: the terms of variable i at x != 0
    const, terms = 0, [[0] * q1 for _ in range(nvars)]
    prod_exps, prod_values = (0,) * nvars, None
    for j, col in enumerate(zip(*matrix[1:])):
        c = lam if j == last else 1
        support = [i for i, e in enumerate(col) if e]
        if not support:
            const = add(const, c)
        elif len(support) == 1:
            i = support[0]
            terms[i] = [add(t, F.mul(c, F.pow(x, col[i])))
                        for x, t in enumerate(terms[i], 1)]
        elif c:
            prod_exps = col
            prod_values = [F.mul(c, F.gen_pow(t)) for t in range(q1)]
    # per variable: (term value, product log) at every nonzero x
    steps = [[(terms[i][x - 1], prod_exps[i] * log[x]) for x in range(1, q)]
             for i in range(nvars)]
    count, stack = 0, [(0, const, 0, prod_values is not None)]
    while stack:
        depth, s, lsum, live = stack.pop()
        if depth < nvars - 1:
            for t, l in steps[depth]:
                stack.append((depth + 1, add(s, t), lsum + l, live))
            if not torus:  # x = 0: every term of x is 0, and so is the product
                stack.append((depth + 1, s, lsum, False))
            continue
        # the last variable: evaluate each point rather than push it
        for t, l in steps[depth]:
            v = add(s, t)
            if live:
                v = add(v, prod_values[(lsum + l) % q1])
            if v == 0:
                count += 1
        if not torus and s == 0:
            count += 1
    return count


def count_X(n_f: int, q: int) -> int:
    """Projective count (N_f - 1)/(q - 1); exact by construction."""
    if (n_f - 1) % (q - 1):
        raise DivisibilityViolation(
            f"(N_f - 1) = {n_f - 1} not divisible by q - 1 = {q - 1}")
    return (n_f - 1) // (q - 1)


def count_Y(n_g_star: int, n: int, q: int) -> int:
    """#Y = N_g* - ((q-1)^n + (-1)^{n+1})/q + (q^n - 1)/(q - 1)."""
    t1 = (q - 1) ** n + (-1) ** (n + 1)
    if t1 % q:
        raise DivisibilityViolation(f"(q-1)^n + (-1)^(n+1) = {t1} not divisible by {q}")
    t2 = q ** n - 1
    if t2 % (q - 1):
        raise DivisibilityViolation(f"q^n - 1 not divisible by q - 1")
    return n_g_star - t1 // q + t2 // (q - 1)


# ---------------------------------------------------------------------------
# the character-sum engine
# ---------------------------------------------------------------------------

def required_precision(p: int, q: int, n: int, override: int = 0) -> int:
    """The p-adic precision N that pins q*N_f as an integer, p^N > 2 q^{n+2}:
    a nonzero `override` if it clears the bound (PrecisionInsufficient if
    not), else the smallest such N."""
    bound = 2 * q ** (n + 2)
    if override:
        if p ** override <= bound:
            raise PrecisionInsufficient(bound, p ** override)
        return override
    N, pN = 1, p
    while pN <= bound:
        pN *= p
        N += 1
    return N


class CountRecord(namedtuple("CountRecord", (
        "n", "p", "r", "k", "lam_dlog", "Nf", "Nfstar", "Ngstar", "X", "Y",
        "method", "precision"), defaults=(None,))):
    """The counts of one instance over GF(q^k); lam_dlog None encodes
    lam = 0, Nfstar None a count not made, precision None a brute count."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "p": self.p,
            "r": self.r,
            "k": self.k,
            "lambda_dlog": self.lam_dlog,
            "Nf": str(self.Nf),
            "Nfstar": None if self.Nfstar is None else str(self.Nfstar),
            "Ngstar": str(self.Ngstar),
            "X": str(self.X),
            "Y": str(self.Y),
            "method": self.method,
            "precision": self.precision,
        }


def _certified_count(v: int, q: int, bound: int, what: str) -> int:
    """De-truncate v, certified to be q * (a count) mod p^N."""
    if v > bound:
        raise NonIntegralResult(
            f"{what} = {v} exceeds its a-priori bound {bound}; precision bug")
    if v % q:
        raise NonIntegralResult(f"{what} = {v} is not divisible by q = {q}")
    return v // q


def gauss_field_degree(inst: DworkInstance, k: int) -> int:
    """The degree f | k of the field GF(q^f) whose Gauss sums give the count
    over GF(q^k): f = ord_g(q) for g = gcd(n+1, q^k-1) at lam = 0, where
    every Gauss index is 0 or a multiple of (q^k-1)/g, and g = q^k-1, so
    f = k, otherwise."""
    q = inst.field.pp.q
    g = gcd(inst.n + 1, q ** k - 1) if inst.lam == 0 else q ** k - 1
    return next(f for f in range(1, k + 1) if (q ** f - 1) % g == 0)


def charsum_count(inst: DworkInstance, matrix, k: int = 1, torus: bool = True,
                  caps: Caps = DEFAULT_CAPS) -> int:
    """The count `count_brute` makes, from the Gauss-sum formula over the
    family part of `matrix`, the instance's M or N, with v rows and m
    columns (`_family_sums`, one pass for both).  Each class c of the part
    is weighted by (q-1)^{v-m} on the torus, by (q-1)^{s-m} q^{v-s} for
    M's key (s, c) in affine space, times chi(lam)^c, the fiber twist;
    c = k_last mod (q-1) is pinned to 0 at lam = 0, where nothing is
    twisted and no Teichmuller table is built.  `TowerCtx.zp_integer`
    certifies that the weighted sum, plus (q-1)^{v-1} on the torus, is a
    rational integer q N mod p^N, and it is certified against the bound
    q^v.  The family part runs on the tower over GF(q^f),
    f = `gauss_field_degree`: at lam = 0, GF(q^k) itself is built only
    if f = k.  lam is read in the base field, and never embedded."""
    if matrix not in (inst.M, inst.Nmat):
        raise ValueError("the character sum counts the matrices M and N")
    _check_domain(matrix, torus)
    v, m, n = len(matrix), len(matrix[0]), inst.n
    p, q = inst.field.pp.p, inst.field.pp.q ** k
    f = gauss_field_degree(inst, k)
    F = inst.field if f == 1 else build_field(
        p, inst.field.pp.r * f, inst.field.seed, caps.field_table_max_q)
    tower = build_tower(inst.field, required_precision(
        p, q, n, caps.precision_override))
    family = _family_sums(build_tower(F, tower.N), tower.q, inst.M,
                          inst.Nmat, inst.lam == 0, k // f)
    sums = family.pencil() if matrix == inst.M else family.mirror
    pN, q1 = tower.pN, tower.q - 1
    one = (1,) + (0,) * (tower.r - 1)
    terms = []
    for key, x in sums.items():  # M's key (s, c), N's class c
        s, c = key if matrix == inst.M else (None, key)
        if not 0 <= c < q1:
            raise ValueError(f"class {c} is not a residue mod {q1}")
        w = (pow(q - 1, v - m, pN) if torus
             else pow(q - 1, s - m, pN) * q ** (v - s) % pN)
        chi = tower.teich_pows()[inst.lam_dlog * c % q1] if c else one
        terms.append((x, tuple(w * t for t in chi)))
    qN = tower.zp_integer(terms)
    if torus:
        qN = (qN + (q - 1) ** (v - 1)) % pN
    return _certified_count(qN, q, q ** v, "q * count")


def count_record(inst: DworkInstance, k: int = 1, method: str = "charsum",
                 caps: Caps = DEFAULT_CAPS,
                 with_nfstar: bool = False) -> CountRecord:
    """One CountRecord over GF(q^k): N_f counts (M, affine space), N_g*
    (Nmat, torus) and, with_nfstar, N_f* (M, torus), each by every route
    the method names; `both` asserts charsum == brute.  The record's
    lambda_dlog is the discrete log of lam in the base field."""
    routes = {"charsum": (charsum_count,), "brute": (count_brute,),
              "both": (charsum_count, count_brute)}.get(method)
    if routes is None:
        raise ValueError(f"unknown method {method!r}")
    domains = ((inst.M, False), (inst.Nmat, True)) + (
        ((inst.M, True),) if with_nfstar else ())
    counts = [tuple(route(inst, matrix, k, torus, caps)
                    for matrix, torus in domains) for route in routes]
    if counts[0] != counts[-1]:
        raise NonIntegralResult(f"charsum {counts[0]} != brute {counts[-1]}")
    (nf, ngstar, *nfstar), pp = counts[0], inst.field.pp
    q = pp.q ** k
    return CountRecord(
        n=inst.n, p=pp.p, r=pp.r, k=k, lam_dlog=inst.lam_dlog,
        Nf=nf, Nfstar=nfstar[0] if nfstar else None, Ngstar=ngstar,
        X=count_X(nf, q), Y=count_Y(ngstar, inst.n, q), method=method,
        precision=None if method == "brute" else required_precision(
            pp.p, q, inst.n, caps.precision_override))


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

def is_singular(inst: DworkInstance) -> bool:
    """Whether X_lam: f = sum x_i^{n+1} + lam prod x_i = 0 in P^n is singular
    over the algebraic closure of GF(q), p = char GF(q).

    Write d = n+1, P = prod_j x_j and P_i = prod_{j != i} x_j, so that
    df/dx_i = d x_i^n + lam P_i.

    p does not divide d: X_lam is singular iff lam^d = (-d)^d.  By Euler's
    identity sum_i x_i df/dx_i = d f, so f vanishes wherever every partial
    does.  At a common zero of the partials, d x_i^d = -lam P for every i.
    If lam = 0 this forces x = 0, so the Fermat fiber is smooth.  If lam != 0
    and some x_i = 0, then P = 0 and every x_i^d = 0, again x = 0.  So every
    x_i != 0 and every x_i^d equals c = -lam P / d != 0.  Multiplying the d
    equations x_i^d = c gives P^d = c^d = (-lam/d)^d P^d, hence
    (-lam/d)^d = 1, i.e. lam^d = (-d)^d.  Conversely, if lam^d = (-d)^d then
    lam != 0 and z = -d/lam in GF(q) has z^d = 1, and the GF(q)-rational
    point (1, ..., 1, z) has x_i df/dx_i = d x_i^d + lam P = d + lam z = 0
    for every i: it is singular.

    p divides d: X_lam is singular iff lam = 0 or n >= 3.  Here
    df/dx_i = lam P_i.  If lam = 0 every partial vanishes identically and
    X_0 (nonempty over the closure) is singular everywhere.  If lam != 0 the
    partials vanish exactly where at least two coordinates are 0, and then
    f = 0 reduces to the Fermat equation in the other n-1 coordinates.  For
    n >= 3 that is one equation in at least two variables, which has a
    nonzero solution over the closure; for n = 2 it reads x^3 = 0, so the
    n = 2, lam != 0 fiber is smooth.
    """
    F, n, lam = inst.field, inst.n, inst.lam
    d = n + 1
    if d % F.pp.p == 0:
        return lam == 0 or n >= 3
    return F.pow(lam, d) == F.pow(F.from_int(-d), d)
