"""Zeta-function assembly: numerators from point counts.

For the varieties handled here the zeta function has the shape

    Z(V, T) = numerator(T)^{num_exp} * prod_i (1 - q^i T)^{e_i},

so counts and numerator power sums determine each other linearly:

    #V(F_{q^k}) = -num_exp * s_k - sum_i e_i q^{ik},      s_k = sum_j alpha_j^k.

The projective pencil X and its mirror Y share trivial factors
(1-T)...(1-q^{n-1}T) in the denominator with numerator exponent (-1)^n; the
affine torus hypersurface g has binomial-weighted trivial factors.  The
numerator is recovered from power sums by Newton's identities, optionally
completed by the Weil functional equation a_{D-i} = sign * q^{w(D-2i)/2} a_i
with the sign pinned by integrality, Weil bounds, and archimedean purity.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, isqrt
from typing import Optional, Sequence

import mpmath as mp

from . import counting
from .config import DEFAULT_CAPS
from .errors import (
    InsufficientData,
    NoConsistentSign,
    NonIntegralCoefficient,
    NotDivisible,
    RootFindingFailure,
    SubstitutionNotIntegral,
)


class IntPoly:
    """Integer polynomial with constant term 1, kept as a coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        cs = list(int(c) for c in coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs or cs[0] != 1:
            raise ValueError("IntPoly must have constant term exactly 1")
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def scale_variable(self, c: int) -> "IntPoly":
        """P(cT)."""
        return IntPoly([a * c ** i for i, a in enumerate(self.coeffs)])

    def power_sums(self, m: int) -> list:
        """s_k = sum of k-th powers of the reciprocal roots, k = 1..m."""
        a = self.coeffs
        d = self.degree
        s = []
        for k in range(1, m + 1):
            acc = -k * a[k] if k <= d else 0
            for i in range(1, min(k, d + 1)):
                if k - i >= 1 and k - i <= len(s):
                    acc -= a[i] * s[k - i - 1]
            s.append(acc)
        return s

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"


ONE = IntPoly([1])


# ---------------------------------------------------------------------------
# zeta shapes
# ---------------------------------------------------------------------------

def expected_degree_P(n: int) -> int:
    """n(n^n - (-1)^n)/(n+1), the degree of the pencil's middle numerator."""
    if n < 2:
        raise ValueError("n must be >= 2")
    num = n * (n ** n - (-1) ** n)
    if num % (n + 1):
        raise ArithmeticError("degree formula is not integral (impossible)")
    return num // (n + 1)


def trivial_factors(variety: str, n: int) -> tuple:
    """[(i, e_i)] meaning a factor (1 - q^i T)^{e_i} of the zeta function."""
    if variety in ("X", "Y"):
        return tuple((i, -1) for i in range(n))
    if variety == "affine_g":
        return tuple((i, (-1) ** (n - i) * comb(n, i + 1)) for i in range(n))
    raise ValueError(f"unknown variety tag {variety!r}")


def numerator_exponent(n: int) -> int:
    return (-1) ** n


@dataclass
class ZetaData:
    """A factored zeta function with integer numerator and trivial factors."""

    variety: str  # X | Y | affine_g
    n: int
    p: int
    r: int
    q: int
    lam_dlog: Optional[int]
    numerator: IntPoly
    numerator_exponent: int
    trivial: tuple  # ((i, e_i), ...)

    def count(self, k: int) -> int:
        s = self.numerator.power_sums(k)
        sk = s[k - 1] if k >= 1 else 0
        return -self.numerator_exponent * sk - sum(
            e * self.q ** (i * k) for i, e in self.trivial)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "variety": self.variety,
            "n": self.n,
            "p": self.p,
            "r": self.r,
            "lambda_dlog": self.lam_dlog,
            "numerator_coeffs": [str(c) for c in self.numerator.coeffs],
            "numerator_exponent": self.numerator_exponent,
            "trivial_factors": [[i, e] for i, e in self.trivial],
        }


def power_sums_from_counts(counts: Sequence[int], variety: str, n: int,
                           q: int) -> list:
    """c_k = sum_j alpha_j^k from #V(F_{q^k}), k = 1..len(counts)."""
    triv = trivial_factors(variety, n)
    num_exp = numerator_exponent(n)
    out = []
    for k, ct in enumerate(counts, start=1):
        tk = sum(e * q ** (i * k) for i, e in triv)
        out.append(-num_exp * (ct + tk))
    return out


# ---------------------------------------------------------------------------
# Newton's identities and functional-equation completion
# ---------------------------------------------------------------------------

def coeffs_from_power_sums(psums: Sequence[int], degree: int) -> list:
    """a_0..a_degree of prod (1 - alpha_j T) from s_1..s_degree."""
    if len(psums) < degree:
        raise InsufficientData(
            f"need {degree} power sums, got {len(psums)}")
    a = [1] + [0] * degree
    for k in range(1, degree + 1):
        acc = psums[k - 1]
        for i in range(1, k):
            acc += a[i] * psums[k - i - 1]
        if acc % k:
            raise NonIntegralCoefficient(
                f"Newton's identity gives non-integer a_{k} = -{acc}/{k}")
        a[k] = -acc // k
    return a


def weil_bound_ok(coeffs: Sequence[int], q: int, w: int) -> bool:
    """|a_i| <= C(D, i) q^{w i / 2}, compared exactly via squares."""
    d = len(coeffs) - 1
    for i, ai in enumerate(coeffs):
        if ai * ai > comb(d, i) ** 2 * q ** (w * i):
            return False
    return True


# the archimedean purity tolerance: the only floating-point check
PURITY_TOL = 1e-8


@dataclass(frozen=True)
class PurityReport:
    max_deviation: float
    passed: bool


def _primitive(a: list) -> list:
    g = gcd(*a)
    return [c // g for c in a]


def _pseudo_remainder(a: list, b: list) -> list:
    """lc(b)^e * a mod b in Z[T], ascending coefficients, trailing zeros
    trimmed; [] for zero."""
    a = list(a)
    while len(a) >= len(b):
        lead, shift = a[-1], len(a) - len(b)
        a = [b[-1] * c for c in a]
        for i, bi in enumerate(b):
            a[shift + i] -= lead * bi
        while a and a[-1] == 0:
            a.pop()
    return a


def square_free_part(P: IntPoly) -> IntPoly:
    """P / gcd(P, P'), the product of the distinct irreducible factors.

    The gcd comes from the primitive pseudo-remainder sequence in Z[T].  It
    is primitive and divides P, so by Gauss's lemma it divides P in Z[T] and
    its constant term divides P(0) = 1: the division is exact."""
    if P.degree == 0:
        return P
    a = list(P.coeffs)
    b = [i * c for i, c in enumerate(a)][1:]
    while b:
        b = _primitive(b)
        a, b = b, _pseudo_remainder(a, b)
    if a[0] == -1:
        a = [-c for c in a]
    return divide_check(P, IntPoly(a))


def weight_purity_check(P: IntPoly, q: int, w: int) -> PurityReport:
    """All complex roots of P have |root| = q^{-w/2} within PURITY_TOL,
    checked with 256-bit arithmetic.  Root finding runs on the square-free
    part, which has the same root set and keeps multiple roots from
    wrecking convergence.  Constant polynomials pass vacuously."""
    if P.degree == 0:
        return PurityReport(0.0, True)
    sqf = square_free_part(P)
    with mp.workprec(256):
        cs = [mp.mpf(c) for c in reversed(sqf.coeffs)]
        try:
            roots = mp.polyroots(cs, maxsteps=600, extraprec=300)
        except (mp.libmp.NoConvergence, ZeroDivisionError) as exc:
            raise RootFindingFailure(str(exc)) from exc
        scale = mp.power(mp.mpf(q), mp.mpf(w) / 2)
        dev = float(max(abs(abs(rt) * scale - 1) for rt in roots))
    return PurityReport(dev, dev <= PURITY_TOL)


def _fe_partner(ai: int, q: int, w: int, e2: int):
    """ai * q^{e2/2} with e2 = w(D - 2i), or None when not an integer."""
    if ai == 0:
        return 0
    if e2 % 2 == 0:
        return ai * q ** (e2 // 2)
    s = isqrt(q)
    if s * s != q:
        return None
    return ai * q ** ((e2 - 1) // 2) * s


def recover_numerator(power_sums: Sequence[int], degree: int, weight: int,
                      q: int, use_functional_equation: bool = False):
    """The unique integer polynomial (constant term 1) with the given power
    sums; with the flag, missing upper coefficients are completed by the Weil
    functional equation and the sign is pinned by integrality, Weil bounds,
    and purity.  Returns (IntPoly, fe_sign or None).
    """
    if degree == 0:
        return ONE, None
    m = len(power_sums)
    if m >= degree:
        a = coeffs_from_power_sums(power_sums[:degree], degree)
        poly = IntPoly(a)
        got = poly.power_sums(m)
        if list(got) != list(power_sums):
            raise NonIntegralCoefficient(
                "extra power sums are inconsistent with the recovered numerator")
        if not weil_bound_ok(poly.coeffs, q, weight):
            raise NoConsistentSign("recovered numerator violates the Weil bounds")
        return poly, None
    if not use_functional_equation:
        raise InsufficientData(
            f"need {degree} power sums without the functional equation, got {m}")
    half = degree // 2
    if m < half:
        raise InsufficientData(
            f"need at least {half} power sums with the functional equation, got {m}")
    lower = coeffs_from_power_sums(power_sums[:half], half)
    candidates = []
    for sign in (1, -1):
        full = list(lower) + [None] * (degree - half)
        ok = True
        for i in range(0, half + 1):
            j = degree - i
            if j <= half:
                # overlap: functional equation must be consistent with data
                partner = _fe_partner(lower[i], q, weight, weight * (degree - 2 * i))
                if partner is None or sign * partner != lower[j]:
                    ok = False
                    break
                continue
            partner = _fe_partner(lower[i], q, weight, weight * (degree - 2 * i))
            if partner is None:
                ok = False
                break
            full[j] = sign * partner
        if not ok or any(c is None for c in full):
            continue
        try:
            poly = IntPoly(full)
        except ValueError:
            continue
        if poly.degree != degree:
            continue
        if not weil_bound_ok(poly.coeffs, q, weight):
            continue
        if poly.power_sums(m) != list(power_sums):
            continue
        if not weight_purity_check(poly, q, weight).passed:
            continue
        candidates.append((sign, poly))
    if not candidates:
        raise NoConsistentSign(
            "no functional-equation sign yields an integral, pure numerator")
    if len(candidates) == 2 and candidates[0][1] != candidates[1][1]:
        raise NoConsistentSign(
            "both functional-equation signs yield valid numerators; ambiguous")
    sign, poly = candidates[0]
    return poly, sign


# ---------------------------------------------------------------------------
# divisibility and the weight-(n-3) quotient
# ---------------------------------------------------------------------------

def divide_check(P: IntPoly, Q: IntPoly) -> IntPoly:
    """Exact quotient P/Q over Z (both have constant term 1)."""
    dp, dq = P.degree, Q.degree
    if dp < dq:
        raise NotDivisible(f"deg P = {dp} < deg Q = {dq}")
    du = dp - dq
    qc, pc = Q.coeffs, P.coeffs
    u = [0] * (du + 1)
    for k in range(du + 1):
        acc = pc[k] if k < len(pc) else 0
        for i in range(1, min(k, dq) + 1):
            acc -= qc[i] * u[k - i]
        u[k] = acc  # exact because Q(0) = 1
    quotient = IntPoly(u)
    if (Q * quotient).coeffs != P.coeffs:
        raise NotDivisible("Q does not divide P")
    return quotient


def r_poly(P: IntPoly, Q: IntPoly, q: int, n: int) -> IntPoly:
    """R_n with P/Q = R_n(qT): substitute T -> T/q and certify integrality."""
    quotient = divide_check(P, Q)
    coeffs = []
    for i, c in enumerate(quotient.coeffs):
        if c % q ** i:
            raise SubstitutionNotIntegral(
                f"coefficient {c} of T^{i} in P/Q is not divisible by q^{i}")
        coeffs.append(c // q ** i)
    R = IntPoly(coeffs)
    want = expected_degree_P(n) - n
    if R.degree not in (want, 0):
        raise SubstitutionNotIntegral(
            f"deg R_n = {R.degree}, expected {want} (or 0 for trivial quotients)")
    return R


# ---------------------------------------------------------------------------
# recovery drivers working from instances
# ---------------------------------------------------------------------------

def counts_budget(degree: int, use_fe: bool, extra: int = 1) -> int:
    """Extension degrees to request: ceil(deg/2) with the functional
    equation, plus validation rows."""
    base = (degree + 1) // 2 if use_fe else degree
    return base + extra


def zeta_from_counts(variety: str, counts: Sequence[int], n: int, p: int,
                     r: int, q: int, lam_dlog, degree: int, weight: int,
                     use_fe: bool = True) -> ZetaData:
    """Recover a ZetaData for one variety from its counts over GF(q^k)."""
    psums = power_sums_from_counts(counts, variety, n, q)
    poly, _sign = recover_numerator(psums, degree, weight, q,
                                    use_functional_equation=use_fe)
    zd = ZetaData(variety=variety, n=n, p=p, r=r, q=q, lam_dlog=lam_dlog,
                  numerator=poly, numerator_exponent=numerator_exponent(n),
                  trivial=trivial_factors(variety, n))
    for k, ct in enumerate(counts, start=1):
        if zd.count(k) != ct:
            raise NonIntegralCoefficient(
                f"recovered zeta does not reproduce the k={k} count")
    return zd


def _instance_counts(inst, variety: str, m: int, caps):
    """#X or #Y (variety "X" or "Y") over GF(q^k) for k = 1..m."""
    return [getattr(counting.count_record(inst, k, caps=caps), variety)
            for k in range(1, m + 1)]


def recover_pencil_zeta(inst, caps=None,
                        k_budget: Optional[int] = None) -> ZetaData:
    """Z(X_lam): numerator of degree n(n^n - (-1)^n)/(n+1), weight n-1,
    completed by the functional equation."""
    caps = caps or DEFAULT_CAPS
    n = inst.n
    degree = expected_degree_P(n)
    m = k_budget or counts_budget(degree, True)
    counts = _instance_counts(inst, "X", m, caps)
    q = inst.field.pp.q
    return zeta_from_counts("X", counts, n, inst.field.pp.p, inst.field.pp.r,
                            q, inst.lam_dlog, degree, n - 1)


def recover_mirror_zeta(inst, caps=None, use_fe: bool = True,
                        k_budget: Optional[int] = None) -> ZetaData:
    """Z(Y_lam): numerator of degree n, weight n-1."""
    caps = caps or DEFAULT_CAPS
    n = inst.n
    m = k_budget or counts_budget(n, use_fe)
    counts = _instance_counts(inst, "Y", m, caps)
    q = inst.field.pp.q
    return zeta_from_counts("Y", counts, n, inst.field.pp.p, inst.field.pp.r,
                            q, inst.lam_dlog, n, n - 1, use_fe)
