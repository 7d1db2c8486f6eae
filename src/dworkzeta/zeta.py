"""Zeta-function assembly: numerators from point counts.

For the varieties handled here the zeta function has the shape

    Z(V, T) = numerator(T)^{num_exp} * prod_i (1 - q^i T)^{e_i},

so counts and numerator power sums determine each other linearly:

    #V(F_{q^k}) = -num_exp * s_k - sum_i e_i q^{ik},      s_k = sum_j alpha_j^k.

The projective pencil X and its mirror Y share trivial factors
(1-T)...(1-q^{n-1}T) in the denominator with numerator exponent (-1)^n.  The
numerator is recovered from power sums by Newton's identities: on a singular
fiber alone, on a smooth one for the lower half, the Weil functional
equation a_{D-i} = sign * q^{w(D-2i)/2} a_i completing it with the sign
pinned by integrality, Weil bounds, and Weil purity.  Purity is decided
exactly, by a Sturm count on a trace polynomial; nothing here uses floating
point.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import comb, gcd, isqrt

from . import counting
from .config import DEFAULT_CAPS
from .errors import (
    InsufficientData,
    NoConsistentSign,
    NonIntegralCoefficient,
    NotDivisible,
    RecoveryFailure,
    SubstitutionNotIntegral,
)


def _mul(a: Sequence[int], b: Sequence[int]) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _add(*polys: Sequence[int]) -> list:
    out = [0] * max(map(len, polys))
    for a in polys:
        for i, c in enumerate(a):
            out[i] += c
    return out


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

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(_mul(self.coeffs, other.coeffs))

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
        """s_k = sum of k-th powers of the reciprocal roots, k = 1..m, by
        Newton's identities s_k = -k a_k - sum_{0<i<k} a_i s_{k-i}, where
        a_i = 0 above the degree."""
        a = self.coeffs + (0,) * max(0, m - self.degree)
        s = []
        for k in range(1, m + 1):
            s.append(-k * a[k] - sum(a[i] * s[k - i - 1] for i in range(1, k)))
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
    raise ValueError(f"unknown variety tag {variety!r}")


def numerator_exponent(n: int) -> int:
    return (-1) ** n


class ZetaData(namedtuple("ZetaData", (
        "variety", "n", "p", "r", "q", "lam_dlog", "numerator",
        "numerator_exponent", "trivial"))):
    """A factored zeta function with integer numerator and trivial factors:
    variety X or Y, the IntPoly numerator with its exponent, and trivial
    ((i, e_i), ...)."""

    __slots__ = ()

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


def _primitive(a: list) -> list:
    g = gcd(*a)
    return [c // g for c in a]


def _value(a: list, u: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * u + c
    return v


def _pseudo_remainder(a: list, b: list) -> list:
    """|lc(b)|^e * a mod b in Z[T], ascending coefficients, trailing zeros
    trimmed; [] for zero.  b is first negated if need be, so that the
    multiplier is positive and the remainder keeps the sign Sturm needs."""
    a, b = list(a), b if b[-1] > 0 else [-c for c in b]
    while len(a) >= len(b):
        lead, shift = a[-1], len(a) - len(b)
        a = [b[-1] * c for c in a]
        for i, bi in enumerate(b):
            a[shift + i] -= lead * bi
        while a and a[-1] == 0:
            a.pop()
    return a


def _sturm_sequence(a: list) -> list:
    """a, a' and the negated pseudo-remainders by primitive divisors: a Sturm
    sequence up to positive factors, ending in gcd(a, a') times an integer."""
    seq = [a, [i * c for i, c in enumerate(a)][1:]]
    while seq[-1]:
        seq[-1] = _primitive(seq[-1])
        seq.append([-c for c in _pseudo_remainder(seq[-2], seq[-1])])
    return seq[:-1]


def _sign_changes(seq: list, u: int) -> int:
    signs = [v > 0 for v in (_value(a, u) for a in seq) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def is_weil_pure(P: IntPoly, q: int, w: int) -> bool:
    """Every reciprocal root alpha of P has |alpha| = q^{w/2}, decided
    exactly (Kedlaya's trace-polynomial reduction, then Sturm).

    R(x) = x^D P(1/x) = A(y) x + B(y) mod x^2 - yx + c, c = q^w, so
    h = cA^2 + yAB + B^2 = Res_x(x^2 - yx + c, R) has the roots
    t = alpha + c/alpha, and alpha is pure iff t is real with t^2 <= 4c.
    From h(y) = E(y^2) + yO(y^2), H(u) = E(u)^2 - uO(u)^2 = h(y)h(-y) has
    the roots t^2.  With u and u - 4c divided out, P is pure iff the Sturm
    count of H on (0, 4c) is its number of distinct roots."""
    c = q ** w
    A, B = [], []
    for a in P.coeffs:  # Horner from the top coefficient of R, a_0
        A, B = _add([0] + A, B), _add([-c * x for x in A], [a])
    h = _add(_mul([c], _mul(A, A)), [0] + _mul(A, B), _mul(B, B))
    E, O = h[0::2], h[1::2]
    H = _add(_mul(E, E), [0] + [-x for x in _mul(O, O)])
    while H[-1] == 0:
        H.pop()
    while H[0] == 0:
        H.pop(0)
    while _value(H, 4 * c) == 0:  # H / (u - 4c), by synthetic division
        H = [_value(H[i:], 4 * c) for i in range(1, len(H))]
    seq = _sturm_sequence(H)
    distinct = len(H) - len(seq[-1])  # deg H - deg gcd(H, H')
    return _sign_changes(seq, 0) - _sign_changes(seq, 4 * c) == distinct


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
                      q: int):
    """The unique integer polynomial of full degree, constant term 1, with
    the given power sums that satisfies the Weil functional equation: the
    first degree//2 power sums give the lower half, the equation the rest,
    and its sign is pinned by integrality, Weil bounds, purity and the
    further power sums.  Returns (IntPoly, fe_sign)."""
    if degree == 0:
        return ONE, None
    m = len(power_sums)
    half = degree // 2
    if m < half:
        raise InsufficientData(
            f"need at least {half} power sums with the functional equation, got {m}")
    lower = coeffs_from_power_sums(power_sums[:half], half)  # a_0..a_half
    upper = [_fe_partner(a, q, weight, weight * (degree - 2 * i))
             for i, a in enumerate(lower[:degree - half])]
    candidates = []
    for sign in ((1, -1) if None not in upper else ()):
        if degree % 2 == 0 and sign * lower[half] != lower[half]:
            continue  # at even degree the middle coefficient is its own partner
        # a_D = sign * q^{wD/2} != 0, so poly has the full degree
        poly = IntPoly(lower + [sign * a for a in reversed(upper)])
        if (weil_bound_ok(poly.coeffs, q, weight)
                and poly.power_sums(m) == list(power_sums)
                and is_weil_pure(poly, q, weight)):
            candidates.append((sign, poly))
    if not candidates:
        raise NoConsistentSign(
            "no functional-equation sign yields an integral, pure numerator")
    if len(candidates) == 2:  # the two signs differ at a_D
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

def counts_budget(degree: int) -> int:
    """Extension degrees to request: ceil(deg/2), the functional equation
    completing the rest, plus one validation row."""
    return (degree + 1) // 2 + 1


def _recover(inst, variety: str, caps, k_budget: int | None,
             records: Sequence) -> ZetaData:
    """Count `variety` over GF(q^k), k = 1..budget, past the CountRecords
    for k = 1, 2, ... in `records`, and recover its zeta: X from M in affine
    space, Y from N on the torus, both of weight n-1.  A smooth fiber is
    counted to `counts_budget(degree)` and completed by `recover_numerator`;
    a singular one to the degree, its numerator, which may drop degree, from
    Newton's identities alone; when p does not divide n+1 a singular
    fiber is a conifold one, whose Q must have degree n-1.  `k_budget`
    overrides either budget."""
    caps = caps or DEFAULT_CAPS
    n, pp = inst.n, inst.field.pp
    if variety == "X":
        matrix, torus, degree = inst.M, False, expected_degree_P(n)
    else:
        matrix, torus, degree = inst.Nmat, True, n
    singular = counting.is_singular(inst)
    budget = k_budget or (degree if singular else counts_budget(degree))
    counts = [getattr(rec, variety) for rec in records[:budget]]
    for k in range(len(counts) + 1, budget + 1):
        points = counting.charsum_count(inst, matrix, k, torus, caps)
        counts.append(counting.count_Y(points, n, pp.q ** k) if torus
                      else counting.count_X(points, pp.q ** k))
    psums = power_sums_from_counts(counts, variety, n, pp.q)
    if singular:
        poly = IntPoly(coeffs_from_power_sums(psums, degree))
        if poly.power_sums(len(psums)) != psums:
            raise NonIntegralCoefficient(
                "extra power sums are inconsistent with the recovered numerator")
        if not weil_bound_ok(poly.coeffs, pp.q, n - 1):
            raise NoConsistentSign("recovered numerator violates the Weil bounds")
        if variety == "Y" and (n + 1) % pp.p and poly.degree != n - 1:
            raise RecoveryFailure(
                f"conifold fiber's Q has degree {poly.degree}, not n-1 = {n - 1}")
    else:
        poly = recover_numerator(psums, degree, n - 1, pp.q)[0]
    return ZetaData(variety=variety, n=n, p=pp.p, r=pp.r, q=pp.q,
                    lam_dlog=inst.lam_dlog, numerator=poly,
                    numerator_exponent=numerator_exponent(n),
                    trivial=trivial_factors(variety, n))


def recover_pencil_zeta(inst, caps=None, k_budget: int | None = None,
                        records: Sequence = ()) -> ZetaData:
    """Z(X_lam): numerator of degree n(n^n - (-1)^n)/(n+1), weight n-1."""
    return _recover(inst, "X", caps, k_budget, records)


def recover_mirror_zeta(inst, caps=None, k_budget: int | None = None,
                        records: Sequence = ()) -> ZetaData:
    """Z(Y_lam): numerator of degree n, weight n-1."""
    return _recover(inst, "Y", caps, k_budget, records)
