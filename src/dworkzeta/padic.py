"""Truncated p-adic arithmetic in the tower Z_p -> W -> W[pi].

W is the unramified extension of degree r (lifting the chosen GF(q) model),
and the ramified layer adjoins pi = zeta_p - 1, a root of the Eisenstein
polynomial ((1+pi)^p - 1)/pi of degree p-1.  Everything is computed modulo
p^N.  An element is a (p-1) x r array of residues: coordinates with respect
to the basis pi^i * y^j, pi-degree major.

This ring contains the Teichmuller character values chi(a), the additive
character values zeta_p^m = (1+pi)^m, and hence all Gauss sums
G(k) = sum_{a != 0} chi(a)^{-k} zeta_p^{Tr(a)}, with the two boundary
conventions G(0) = q-1 and G(q-1) = -q.

For p = 2 the ramified layer is trivial (zeta_2 = -1, pi = -2) and the
general code degenerates to shape 1 x r arrays on its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import NonIntegralResult
from .ff import FieldCtx, PrimePower


@dataclass(frozen=True)
class Valuation:
    """A pi-adic valuation in units of 1/(r(p-1)) of ord_q.

    numerator/(r(p-1)) is ord_q; numerator/(p-1) is ord_p.  When exact is
    False the element was indistinguishable from 0 at the working precision
    and numerator is only a lower bound.
    """

    numerator: int
    r: int
    p: int
    exact: bool = True

    @property
    def ord_q(self) -> Fraction:
        return Fraction(self.numerator, self.r * (self.p - 1))

    @property
    def ord_p(self) -> Fraction:
        return Fraction(self.numerator, self.p - 1)


class TowerElem:
    """Element of the truncated tower ring; immutable."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx: "TowerCtx", rows):
        self.ctx = ctx
        self.rows = rows  # tuple of (p-1) tuples of r ints, reduced mod p^N

    def __add__(self, other):
        other = self.ctx.coerce(other)
        pN = self.ctx.pN
        return TowerElem(self.ctx, tuple(
            tuple((x + y) % pN for x, y in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        other = self.ctx.coerce(other)
        pN = self.ctx.pN
        return TowerElem(self.ctx, tuple(
            tuple((x - y) % pN for x, y in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self):
        pN = self.ctx.pN
        return TowerElem(self.ctx, tuple(
            tuple((-x) % pN for x in ra) for ra in self.rows))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        other = self.ctx.coerce(other)
        return self.ctx._mul(self, other)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined in the tower")
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, n: int) -> "TowerElem":
        pN = self.ctx.pN
        n %= pN
        return TowerElem(self.ctx, tuple(
            tuple((x * n) % pN for x in ra) for ra in self.rows))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        if not isinstance(other, TowerElem):
            return NotImplemented
        return self.ctx is other.ctx and self.rows == other.rows

    def __hash__(self):
        return hash((id(self.ctx), self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def as_integer(self, centered: bool = False) -> int:
        """The value as a rational integer mod p^N; raises if coordinates
        outside the Z_p slot are nonzero."""
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if (i, j) != (0, 0) and x != 0:
                    raise NonIntegralResult(
                        f"nonzero coordinate at pi^{i} y^{j}: {x}")
        v = self.rows[0][0]
        if centered and v > self.ctx.pN // 2:
            v -= self.ctx.pN
        return v

    def truncate(self, other_ctx: "TowerCtx") -> "TowerElem":
        """Reduce into a lower-precision context over the same field."""
        pN = other_ctx.pN
        return TowerElem(other_ctx, tuple(
            tuple(x % pN for x in row) for row in self.rows))

    def __repr__(self):
        return f"TowerElem({self.rows} mod {self.ctx.p}^{self.ctx.N})"


class TowerCtx:
    """The truncated tower ring attached to one FieldCtx model and precision N.

    Character and Gauss-sum tables are materialized lazily and cached on the
    context; the fills are idempotent, so sharing a context between threads
    is safe under the GIL, and process pools each build their own."""

    def __init__(self, field: FieldCtx, N: int):
        if N < 1:
            raise ValueError("precision N must be >= 1")
        self.field = field
        self.pp: PrimePower = field.pp
        self.p = field.pp.p
        self.r = field.pp.r
        self.q = field.pp.q
        self.N = N
        self.pN = self.p ** N
        self.unramified_modulus = tuple(int(c) for c in field.modulus)
        # ((1+pi)^p - 1)/pi, monic of degree p-1, constant term exactly p
        self.eisenstein = tuple(comb(self.p, i + 1) for i in range(self.p))
        self.pi_units_per_ordq = self.r * (self.p - 1)
        self._teich_pows = None
        self._zeta_pows = None
        self._gauss = None

    # -- W-layer arithmetic on r-tuples of ints mod p^N ---------------------

    def w_zero(self):
        return (0,) * self.r

    def w_one(self):
        return (1,) + (0,) * (self.r - 1)

    def w_add(self, a, b):
        pN = self.pN
        return tuple((x + y) % pN for x, y in zip(a, b))

    def w_scale(self, a, n):
        pN = self.pN
        n %= pN
        return tuple((x * n) % pN for x in a)

    def w_mul(self, a, b):
        pN, r, mod = self.pN, self.r, self.unramified_modulus
        if r == 1:
            return ((a[0] * b[0]) % pN,)
        out = [0] * (2 * r - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % pN
        for i in range(2 * r - 2, r - 1, -1):
            c = out[i]
            if c:
                out[i] = 0
                for j in range(r):
                    out[i - r + j] = (out[i - r + j] - c * mod[j]) % pN
        return tuple(out[:r])

    def w_pow(self, a, e):
        result = self.w_one()
        base = a
        while e:
            if e & 1:
                result = self.w_mul(result, base)
            base = self.w_mul(base, base)
            e >>= 1
        return result

    # -- element constructors ------------------------------------------------

    def zero(self) -> TowerElem:
        row = (0,) * self.r
        return TowerElem(self, (row,) * (self.p - 1))

    def one(self) -> TowerElem:
        return self.from_int(1)

    def from_int(self, n: int) -> TowerElem:
        rows = [[0] * self.r for _ in range(self.p - 1)]
        rows[0][0] = n % self.pN
        return TowerElem(self, tuple(tuple(r) for r in rows))

    def from_w(self, w) -> TowerElem:
        rows = [tuple(w)] + [(0,) * self.r] * (self.p - 2)
        return TowerElem(self, tuple(rows))

    def from_pi_poly(self, coeffs) -> TowerElem:
        """Element from integer coefficients in pi (length <= p-1)."""
        rows = []
        for i in range(self.p - 1):
            c = coeffs[i] % self.pN if i < len(coeffs) else 0
            rows.append((c,) + (0,) * (self.r - 1))
        return TowerElem(self, tuple(rows))

    def pi(self) -> TowerElem:
        if self.p == 2:
            return self.from_int(-2)
        return self.from_pi_poly((0, 1))

    def zeta_p(self) -> TowerElem:
        return self.one() + self.pi()

    def coerce(self, x) -> TowerElem:
        if isinstance(x, TowerElem):
            if x.ctx is not self:
                raise ValueError("mixing elements of different towers")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise TypeError(f"cannot coerce {type(x)} into the tower")

    # -- ring multiplication --------------------------------------------------

    def _mul(self, a: TowerElem, b: TowerElem) -> TowerElem:
        d = self.p - 1
        wz = self.w_zero()
        out = [wz] * (2 * d - 1) if d > 1 else [wz]
        for i, ra in enumerate(a.rows):
            if any(ra):
                for j, rb in enumerate(b.rows):
                    if any(rb):
                        out[i + j] = self.w_add(out[i + j], self.w_mul(ra, rb))
        # reduce pi-degrees >= p-1 via pi^{p-1} = -sum_{j<p-1} E_j pi^j
        eis = self.eisenstein
        for i in range(len(out) - 1, d - 1, -1):
            c = out[i]
            if any(c):
                out[i] = wz
                for j in range(d):
                    if eis[j]:
                        out[i - d + j] = self.w_add(
                            out[i - d + j], self.w_scale(c, -eis[j]))
        return TowerElem(self, tuple(out[:d]))

    # -- Teichmuller lifts and character tables -------------------------------

    def teich_w(self, a: int) -> tuple:
        """Teichmuller lift of a field element code into W (as an r-tuple)."""
        if a == 0:
            return self.w_zero()
        t = tuple(self.field.coeffs(a))  # integer lift of the coefficients
        for _ in range(self.N + 1):
            nxt = self.w_pow(t, self.q)
            if nxt == t:
                break
            t = nxt
        else:
            raise RuntimeError("Teichmuller iteration failed to stabilize")
        return t

    def teich(self, a) -> TowerElem:
        return self.from_w(self.teich_w(a))

    def teich_pows(self):
        """TP[j] = teich(g)^j for j in [0, q-1), as W-tuples."""
        if self._teich_pows is None:
            tg = self.teich_w(self.field.generator)
            tp = [self.w_one()] * (self.q - 1)
            for j in range(1, self.q - 1):
                tp[j] = self.w_mul(tp[j - 1], tg)
            self._teich_pows = tp
        return self._teich_pows

    def zeta_pows(self):
        """ZP[m] = (1+pi)^m for m in [0, p), as TowerElems."""
        if self._zeta_pows is None:
            z = self.zeta_p()
            zp = [self.one()]
            for _ in range(self.p - 1):
                zp.append(zp[-1] * z)
            self._zeta_pows = zp[: self.p]
        return self._zeta_pows

    # -- Gauss sums ------------------------------------------------------------

    def gauss_sum(self, k: int) -> TowerElem:
        if not 0 <= k <= self.q - 1:
            raise ValueError(f"k must lie in [0, q-1], got {k}")
        if self._gauss is not None:
            return self._gauss[k]
        if k == 0:
            return self.from_int(self.q - 1)
        if k == self.q - 1:
            return self.from_int(-self.q)
        q1 = self.q - 1
        tp = self.teich_pows()
        zp = self.zeta_pows()
        field = self.field
        acc = [self.w_zero()] * self.p
        for j in range(q1):
            m = field.trace(field.exp_table[j])
            acc[m] = self.w_add(acc[m], tp[(-k * j) % q1])
        out = self.zero()
        for m in range(self.p):
            if any(acc[m]):
                out = out + zp[m] * self.from_w(acc[m])
        return out

    def gauss_table(self):
        """All G(k), 0 <= k <= q-1, with the boundary conventions."""
        if self._gauss is None:
            q1 = self.q - 1
            tp = self.teich_pows()
            zp = self.zeta_pows()
            field = self.field
            traces = [field.trace(field.exp_table[j]) for j in range(q1)]
            w_add, w_zero = self.w_add, self.w_zero()
            table = [None] * (self.q)
            table[0] = self.from_int(q1)
            table[q1] = self.from_int(-self.q)
            for k in range(1, q1):
                acc = [w_zero] * self.p
                kj = 0
                for j in range(q1):
                    m = traces[j]
                    acc[m] = w_add(acc[m], tp[kj])
                    kj -= k
                    if kj < 0:
                        kj += q1
                out = self.zero()
                for m in range(self.p):
                    if any(acc[m]):
                        out = out + zp[m] * self.from_w(acc[m])
                table[k] = out
            self._gauss = table
        return self._gauss

    def __repr__(self):
        return f"TowerCtx(GF({self.p}^{self.r}), N={self.N})"


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

_TOWER_CACHE: dict = {}


def build_tower(field: FieldCtx, N: int) -> TowerCtx:
    key = (field.pp.p, field.pp.r, field.seed, N)
    tower = _TOWER_CACHE.get(key)
    if tower is None:
        tower = TowerCtx(field, N)
        _TOWER_CACHE[key] = tower
    return tower


def teich(tower: TowerCtx, a) -> TowerElem:
    return tower.teich(a)


def gauss_sum(tower: TowerCtx, k: int) -> TowerElem:
    return tower.gauss_sum(k)


def pi_valuation(x: TowerElem) -> Valuation:
    ctx = x.ctx
    p, r, N = ctx.p, ctx.r, ctx.N
    best = None
    for i, row in enumerate(x.rows):
        for c in row:
            if c % ctx.pN == 0:
                continue
            v = 0
            cc = c
            while cc % p == 0:
                cc //= p
                v += 1
            cand = i + (p - 1) * v
            if best is None or cand < best:
                best = cand
    if best is None:
        # indistinguishable from zero; (p-1)*N is the precision horizon
        return Valuation((p - 1) * N, r, p, exact=False)
    return Valuation(best, r, p, exact=True)


def digit_sum(k: int, pp: PrimePower) -> int:
    """Sum of base-p digits of k, for 0 <= k <= q-1."""
    if not 0 <= k <= pp.q - 1:
        raise ValueError(f"k must lie in [0, q-1], got {k}")
    s = 0
    while k:
        k, d = divmod(k, pp.p)
        s += d
    return s
