"""Point counting for the Dwork pencil and its toric mirror.

The pencil (projective, in P^n) is cut out by

    f = x_1^{n+1} + ... + x_{n+1}^{n+1} + lam * x_1...x_{n+1},

its mirror is the projective closure Y of the torus hypersurface

    g = x_1 + ... + x_n + 1/(x_1...x_n) + lam = 0.

Counts come two ways: exhaustive evaluation, and the Gauss-sum character
formula.  Writing the monomial exponents of x_0*f (resp. x_0*g) as the
columns of an integer matrix, the character formula for the affine count is

    q N_f = sum over M k = 0 mod (q-1), k in [0, q-1]^m, of
            (q-1)^{s(k)-m} q^{v-s(k)} (prod_j G(k_j)) chi(lam)^{k_m},

with v = number of ambient variables including x_0, m = number of
monomials, and s(k) = number of nonzero entries of the integer vector M k.
Both boundary lifts of a zero residue (0 and q-1) are distinct terms.  For
the torus count the x_0 = 0 stratum contributes (q-1)^{v-1} and every
solution carries the flat coefficient (q-1)^{v} / (q-1)^m.

When lam = 0 the product monomial is absent: the last exponent k_m is
pinned to 0 and the character factor is dropped.

Only chi(lam)^{k_m} depends on lam.  The family part, cached per tower,
matrix, lam = 0 or not and lift degree, sums prod_j G(k_j) per
(s(k), k_m mod (q-1)); the fiber part twists each class by chi(lam)^{k_m},
one multiply per class.  Every Gauss sum over GF(q^k) is read as the
Hasse-Davenport lift of a sum over GF(q^f), f = `gauss_field_degree`: a
proper subfield only at lam = 0, f = k (the identity lift) otherwise.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field
from math import gcd
from typing import Iterator, Optional

from .config import Caps, DEFAULT_CAPS
from .errors import (
    DivisibilityViolation,
    EnumerationTooLarge,
    NonIntegralResult,
    PrecisionInsufficient,
)
from .ff import FieldCtx, build_field, extend
from .padic import TowerCtx, build_tower


def dwork_matrix_M(n: int) -> tuple:
    """(n+2) x (n+2) exponent matrix of x_0*f: row 0 all ones, then n+1 on
    the diagonal with a final column of ones."""
    rows = [tuple([1] * (n + 2))]
    for i in range(n + 1):
        row = [0] * (n + 2)
        row[i] = n + 1
        row[n + 1] = 1
        rows.append(tuple(row))
    return tuple(rows)


def dwork_matrix_N(n: int) -> tuple:
    """(n+1) x (n+2) exponent matrix of x_0*g: row 0 all ones, then the
    identity block against a column of -1 and a zero column for lam."""
    rows = [tuple([1] * (n + 2))]
    for i in range(n):
        row = [0] * (n + 2)
        row[i] = 1
        row[n] = -1
        rows.append(tuple(row))
    return tuple(rows)


@dataclass
class DworkInstance:
    """The pair (f, g) for parameters (n, lam) over a base field model."""

    n: int
    field: FieldCtx
    lam: int  # element code in `field`
    M: tuple = dc_field(init=False)
    Nmat: tuple = dc_field(init=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not 0 <= self.lam < self.field.pp.q:
            raise ValueError("lam is not an element code of the base field")
        self.M = dwork_matrix_M(self.n)
        self.Nmat = dwork_matrix_N(self.n)

    def extension(self, k: int, cap: int = DEFAULT_CAPS.field_table_max_q):
        """(field of GF(q^k), image of lam) under the canonical embedding."""
        if k == 1:
            return self.field, self.lam
        ext = extend(self.field, k, cap=cap)
        return ext.ext, ext.embed(self.lam)

    @property
    def lam_dlog(self) -> Optional[int]:
        """The discrete log of lam in the base field; None for lam = 0."""
        return None if self.lam == 0 else self.field.dlog(self.lam)

    def __repr__(self):
        return (f"DworkInstance(n={self.n}, q={self.field.pp.q}, "
                f"lam={self.lam})")


# ---------------------------------------------------------------------------
# brute-force counts
# ---------------------------------------------------------------------------

def count_affine_brute(inst: DworkInstance, k: int = 1,
                       caps: Caps = DEFAULT_CAPS) -> int:
    """N_f over GF(q^k): zeros of f in affine (n+1)-space."""
    F, lam = inst.extension(k, cap=caps.field_table_max_q)
    n = inst.n
    q = F.pp.q
    if q ** (n + 1) > caps.affine_enum_max:
        raise EnumerationTooLarge(q ** (n + 1), caps.affine_enum_max)
    q1 = q - 1
    powd = [0] + [F.gen_pow((F.dlog(x) * (n + 1)) % q1) for x in range(1, q)]
    lam_pow = None
    if lam:
        lam_pow = [F.mul(lam, F.gen_pow(e)) for e in range(q1)]
    add = F.add
    log = F.log_table
    count = 0
    # depth-first walk keeping the running diagonal sum and product dlog
    stack = [(0, 0, 0, False)]  # (depth, diag_sum, prod_dlog, has_zero)
    nvars = n + 1
    while stack:
        depth, s, lsum, zero = stack.pop()
        if depth == nvars:
            if lam and not zero:
                s = add(s, lam_pow[lsum % q1])
            if s == 0:
                count += 1
            continue
        for x in range(q):
            if x == 0:
                stack.append((depth + 1, s, lsum, True))
            else:
                stack.append((depth + 1, add(s, powd[x]), lsum + log[x], zero))
    return count


def count_torus_brute(inst: DworkInstance, k: int = 1,
                      caps: Caps = DEFAULT_CAPS) -> int:
    """N_g* over GF(q^k): zeros of g with all coordinates nonzero."""
    F, lam = inst.extension(k, cap=caps.field_table_max_q)
    n = inst.n
    q = F.pp.q
    q1 = q - 1
    if q1 ** n > caps.torus_enum_max:
        raise EnumerationTooLarge(q1 ** n, caps.torus_enum_max)
    add = F.add
    log = F.log_table
    exp = F.exp_table
    units = exp
    count = 0
    stack = [(0, 0, 0)]
    while stack:
        depth, s, lsum = stack.pop()
        if depth == n:
            v = add(add(s, exp[(-lsum) % q1]), lam)
            if v == 0:
                count += 1
            continue
        for x in units:
            stack.append((depth + 1, add(s, x), lsum + log[x]))
    return count


def count_torus_f_brute(inst: DworkInstance, k: int = 1,
                        caps: Caps = DEFAULT_CAPS) -> int:
    """N_f*: zeros of f with all n+1 coordinates nonzero."""
    F, lam = inst.extension(k, cap=caps.field_table_max_q)
    n = inst.n
    q = F.pp.q
    q1 = q - 1
    if q1 ** (n + 1) > caps.torus_enum_max:
        raise EnumerationTooLarge(q1 ** (n + 1), caps.torus_enum_max)
    powd = [0] + [F.gen_pow((F.dlog(x) * (n + 1)) % q1) for x in range(1, q)]
    lam_pow = [F.mul(lam, F.gen_pow(e)) for e in range(q1)] if lam else None
    add = F.add
    log = F.log_table
    count = 0
    stack = [(0, 0, 0)]
    while stack:
        depth, s, lsum = stack.pop()
        if depth == n + 1:
            if lam:
                s = add(s, lam_pow[lsum % q1])
            if s == 0:
                count += 1
            continue
        for x in range(1, q):
            stack.append((depth + 1, add(s, powd[x]), lsum + log[x]))
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


def count_Y_strata_brute(inst: DworkInstance, k: int = 1,
                         caps: Caps = DEFAULT_CAPS) -> int:
    """Independent #Y oracle: sum the counts of the torus hypersurface over
    every face of the simplex.  Proper faces of dimension d are cut out by
    1 + x_1 + ... + x_d = 0 in a d-torus and there are C(n+1, d+1) of them;
    vertices contribute nothing; the big cell contributes N_g*."""
    from math import comb

    F, _lam = inst.extension(k, cap=caps.field_table_max_q)
    n = inst.n
    q = F.pp.q
    total = count_torus_brute(inst, k, caps)
    add = F.add
    for d in range(1, n):
        cnt = 0
        for xs in itertools.product(range(1, q), repeat=d):
            s = 1
            for x in xs:
                s = add(s, x)
            if s == 0:
                cnt += 1
        total += comb(n + 1, d + 1) * cnt
    return total


# ---------------------------------------------------------------------------
# structural enumeration of character-sum solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionVector:
    k: tuple
    s_of_k: int
    cls: str  # zero | trivial | diagonal | admissible | other


def _matvec(matrix, k):
    return tuple(sum(mij * kj for mij, kj in zip(row, k)) for row in matrix)


def _classify(k, s, n, q) -> str:
    # admissibility (s(k) = n+2, head coordinates not all equal) takes
    # precedence over the boundary label: the ord_q >= 2 bound must cover
    # boundary-mixed vectors like (0, q-1, ..., q-1)
    if all(ki == 0 for ki in k):
        return "zero"
    head = k[: n + 1]
    if 0 < head[0] < q - 1 and all(ki == head[0] for ki in head):
        return "diagonal"
    if s == n + 2 and any(ki != head[0] for ki in head):
        return "admissible"
    if all(ki in (0, q - 1) for ki in k):
        return "trivial"
    return "other"


def _lift_zero_residues(res, q, fixed_last: bool):
    """All lifts of a residue tuple into [0, q-1]: coordinates with residue 0
    may be 0 or q-1; the last coordinate stays 0 when pinned (lam = 0)."""
    options = []
    for idx, r in enumerate(res):
        if r == 0:
            if fixed_last and idx == len(res) - 1:
                options.append((0,))
            else:
                options.append((0, q - 1))
        else:
            options.append((r,))
    return itertools.product(*options)


def enumerate_solutions(matrix, q: int, lam_zero: bool = False) -> Iterator[SolutionVector]:
    """Solutions k in [0, q-1]^{n+2} of matrix*k = 0 mod (q-1), classified.

    Uses the structure of the two Dwork matrices instead of scanning q^{n+2}
    tuples: for M the first n+1 coordinates agree mod (q-1)/gcd(n+1, q-1)
    and the last is determined; for N the first n+1 residues are equal.
    Every yielded vector is re-verified against the matrix.
    """
    nrows = len(matrix)
    ncols = len(matrix[0])
    n = ncols - 2
    q1 = q - 1
    is_m = nrows == ncols

    def emit(res):
        for k in _lift_zero_residues(res, q, lam_zero):
            v = _matvec(matrix, k)
            if any(x % q1 for x in v):
                raise RuntimeError(f"enumerated non-solution {k} (bug)")
            s = sum(1 for x in v if x != 0)
            yield SolutionVector(k, s, _classify(k, s, n, q))

    if is_m:
        g = gcd(n + 1, q1)
        d = q1 // g
        a_values = (0,) if lam_zero else range(d)
        for a in a_values:
            k_last = (-(n + 1) * a) % q1
            for ms in itertools.product(range(g), repeat=n):
                m_last = (-sum(ms)) % g
                res = tuple(a + d * m for m in ms) + (a + d * m_last, k_last)
                yield from emit(res)
    else:
        # lam = 0 pins k_last = 0, i.e. (n+1) a = 0 mod (q-1)
        step = q1 // gcd(n + 1, q1) if lam_zero else 1
        for a in range(0, q1, step):
            k_last = (-(n + 1) * a) % q1
            res = (a,) * (n + 1) + (k_last,)
            yield from emit(res)


# ---------------------------------------------------------------------------
# the character-sum engine
# ---------------------------------------------------------------------------

def required_precision(p: int, q: int, n: int) -> int:
    """Smallest N with p^N > 2 q^{n+2}; enough to pin q*N_f as an integer."""
    bound = 2 * q ** (n + 2)
    N, pN = 1, p
    while pN <= bound:
        pN *= p
        N += 1
    return N


@dataclass
class CountRecord:
    n: int
    p: int
    r: int
    k: int
    lam_dlog: Optional[int]  # None encodes lam = 0
    Nf: int
    Nfstar: Optional[int]
    Ngstar: int
    X: int
    Y: int
    method: str
    precision: Optional[int] = None

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


def _certified_count(elem, q: int, bound: int, what: str) -> int:
    """De-truncate a tower element certified to be q * (a count)."""
    v = elem.as_integer()
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


@functools.lru_cache(maxsize=64)  # one instance needs a few dozen at most
def _gauss_product_sums(tower: TowerCtx, matrix, lam_zero: bool,
                        m: int = 1) -> dict:
    """The family part over GF(Q), Q = q^m for the tower's q:
    {(s(k), k_last mod (Q-1)): sum of prod_j G_Q(k_j)} over the solutions k
    of matrix * k = 0 mod (Q-1).

    Only the indices that occur are read, through the Hasse-Davenport lift
    G_Q(t (Q-1)/(q-1)) = (-1)^{m-1} G_q(t)^m, the identity at m = 1; the
    caller picks q so that every index but 0 (G_Q(0) = Q-1 by convention)
    is such a multiple, and t = q-1 gives -Q as the convention asks."""
    Q1 = tower.q ** m - 1
    sols = list(enumerate_solutions(matrix, Q1 + 1, lam_zero))
    step = Q1 // (tower.q - 1)
    idx = sorted({kj for sol in sols for kj in sol.k} - {0})
    if any(kj % step for kj in idx):
        raise RuntimeError(f"Gauss index not a multiple of {step} (bug)")
    gauss = {0: tower.from_int(Q1)}
    for kj, G in zip(idx, tower.gauss_sums([kj // step for kj in idx])):
        gauss[kj] = G if m == 1 else (G ** m).scale((-1) ** (m - 1))
    sums: dict = {}
    for sol in sols:
        prod = gauss[sol.k[0]]
        for kj in sol.k[1:]:
            prod = prod * gauss[kj]
        key = (sol.s_of_k, sol.k[-1] % Q1)
        sums[key] = sums[key] + prod if key in sums else prod
    return sums


def _fiber_sums(tower: TowerCtx, matrix, lam_dlog: Optional[int],
                m: int = 1) -> dict:
    """The fiber part: {s: sum over the solutions k with s(k) = s of
    prod_j G(k_j) chi(lam)^{k_last}}; lam_dlog None encodes lam = 0, the
    only case with m > 1."""
    tp = tower.teich_pows()
    q1 = tower.q - 1
    out: dict = {}
    for (s, c), total in _gauss_product_sums(
            tower, matrix, lam_dlog is None, m).items():
        if c:  # never for lam = 0, whose k_last is pinned to 0
            total = total * tp[(lam_dlog * c) % q1]
        out[s] = out[s] + total if s in out else total
    return out


def charsum_qcounts(inst: DworkInstance, k: int = 1,
                    caps: Caps = DEFAULT_CAPS):
    """(N_f, N_f*, N_g*, N) over GF(q^k) from the Gauss-sum formulas, N the
    p-adic precision used.

    The Gauss sums are read over GF(q^f), f = `gauss_field_degree`, through
    the Hasse-Davenport lift, on the tower over GF(q^f) at the precision
    GF(q^k) needs; at lam = 0 GF(q^k) itself is not built unless f = k."""
    n = inst.n
    p, q = inst.field.pp.p, inst.field.pp.q ** k
    q1 = q - 1
    f = gauss_field_degree(inst, k)
    F, lam = inst.extension(f, cap=caps.field_table_max_q)
    lam_dlog = F.dlog(lam) if lam else None
    tower = build_tower(F, caps.precision_override
                        or required_precision(p, q, n))
    if tower.pN <= 2 * q ** (n + 2):
        raise PrecisionInsufficient(2 * q ** (n + 2), tower.pN)
    pN = tower.pN

    inv_q1 = pow(q1 % pN, -1, pN)
    # coefficient (q-1)^{s-(n+2)} q^{(n+2)-s} = (q * inv(q-1))^{(n+2)-s}
    co = [pow((q * inv_q1) % pN, (n + 2) - s, pN) for s in range(n + 3)]

    by_s = _fiber_sums(tower, inst.M, lam_dlog, k // f)
    qNf = sum((t.scale(co[s]) for s, t in by_s.items()), tower.zero())
    nf = _certified_count(qNf, q, q ** (n + 2), "q*N_f")
    qNfstar = sum(by_s.values(), tower.from_int(q1 ** (n + 1)))
    nfstar = _certified_count(qNfstar, q, q ** (n + 2), "q*N_f*")

    acc_g = sum(_fiber_sums(tower, inst.Nmat, lam_dlog, k // f).values(),
                tower.zero())
    qNgstar = acc_g.scale(inv_q1) + tower.from_int(q1 ** n)
    ngstar = _certified_count(qNgstar, q, q ** (n + 1), "q*N_g*")

    return nf, nfstar, ngstar, tower.N


def count_record(inst: DworkInstance, k: int = 1, method: str = "charsum",
                 caps: Caps = DEFAULT_CAPS,
                 with_nfstar: bool = False) -> CountRecord:
    """One CountRecord over GF(q^k); `both` asserts charsum == brute.  The
    record's lambda_dlog is the discrete log of lam in the base field; it
    reports N_f* (and `both` checks it) only with_nfstar."""
    q = inst.field.pp.q ** k
    precision = None
    if method in ("charsum", "both"):
        nf, nfstar, ngstar, precision = charsum_qcounts(inst, k, caps=caps)
        if method == "both":
            nf_b = count_affine_brute(inst, k, caps)
            ngstar_b = count_torus_brute(inst, k, caps)
            if (nf, ngstar) != (nf_b, ngstar_b):
                raise NonIntegralResult(
                    f"charsum ({nf}, {ngstar}) != brute ({nf_b}, {ngstar_b})")
            if with_nfstar and nfstar != count_torus_f_brute(inst, k, caps):
                raise NonIntegralResult("charsum N_f* disagrees with brute force")
    elif method == "brute":
        nf = count_affine_brute(inst, k, caps)
        ngstar = count_torus_brute(inst, k, caps)
        nfstar = count_torus_f_brute(inst, k, caps) if with_nfstar else None
    else:
        raise ValueError(f"unknown method {method!r}")
    pp = inst.field.pp
    return CountRecord(
        n=inst.n, p=pp.p, r=pp.r, k=k, lam_dlog=inst.lam_dlog,
        Nf=nf, Nfstar=nfstar if with_nfstar else None, Ngstar=ngstar,
        X=count_X(nf, q), Y=count_Y(ngstar, inst.n, q),
        method=method, precision=precision)


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
