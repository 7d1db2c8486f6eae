"""Truncated p-adic arithmetic in Z_p[zeta_p] (x) W, modulo p^N.

W/p^N = (Z/p^N)[y]/(m(y)) is the unramified extension of degree r, with m
the integer lift of the GF(q) model's modulus.  The ring is computed as
R = (W/p^N)[x]/(x^p - 1) with x = zeta_p; its quotient by
Phi_p(x) = 1 + x + ... + x^{p-1} is Z_p[zeta_p] (x) W mod p^N.  An element
is a flat tuple of p*r residues, entry i*r + j the coefficient of x^i y^j,
and a product is one big-int product of Kronecker-packed operands.

Teichmuller values chi(a) lie on x^0 and zeta_p^m = x^m, so a Gauss sum
G(k) = sum_{a != 0} chi(a)^{-k} zeta_p^{Tr(a)} is sum_m x^m acc[m], with
the boundary conventions G(0) = q-1 and G(q-1) = -q.  `TowerCtx.gauss_sums`
is the one entry point: a context computes each G(k) on its first request
and keeps it, so the full table (`gauss_table`) is only built on demand.

Since x^p - 1 = (x - 1) Phi_p, a value has many representatives in R.
Every read-out (equality, hashing, `as_integer`, `pi_valuation`, the `gauss`
dump) goes through `rows`: the canonical coordinates in the basis pi^i y^j
(i < p-1, j < r), pi-degree major, where pi = zeta_p - 1 is a root of the
Eisenstein polynomial ((1+pi)^p - 1)/pi (pi = -2 for p = 2).
"""
from __future__ import annotations

import functools
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

    __slots__ = ("ctx", "c")

    def __init__(self, ctx: "TowerCtx", c):
        self.ctx = ctx
        self.c = c  # p*r ints mod p^N; c[i*r + j] multiplies x^i y^j

    @property
    def rows(self) -> tuple:
        """The pi-coordinates: (p-1) tuples of r residues, rows[i][j] the
        coefficient of pi^i y^j."""
        ctx = self.ctx
        p, r, pN, c = ctx.p, ctx.r, ctx.pN, self.c
        top = c[(p - 1) * r:]
        # x^{p-1} = -(1 + x + ... + x^{p-2}) mod Phi_p, then x^i = (1 + pi)^i
        a = [[c[i * r + j] - top[j] for j in range(r)] for i in range(p - 1)]
        return tuple(
            tuple(sum(comb(i, k) * a[i][j] for i in range(k, p - 1)) % pN
                  for j in range(r))
            for k in range(p - 1))

    def __add__(self, other):
        other = self.ctx.coerce(other)
        pN = self.ctx.pN
        return TowerElem(self.ctx, tuple(
            (x + y) % pN for x, y in zip(self.c, other.c)))

    def __sub__(self, other):
        other = self.ctx.coerce(other)
        pN = self.ctx.pN
        return TowerElem(self.ctx, tuple(
            (x - y) % pN for x, y in zip(self.c, other.c)))

    def __neg__(self):
        pN = self.ctx.pN
        return TowerElem(self.ctx, tuple((-x) % pN for x in self.c))

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
        return TowerElem(self.ctx, tuple((x * n) % pN for x in self.c))

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
        rows = self.rows
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if (i, j) != (0, 0) and x != 0:
                    raise NonIntegralResult(
                        f"nonzero coordinate at pi^{i} y^{j}: {x}")
        v = rows[0][0]
        if centered and v > self.ctx.pN // 2:
            v -= self.ctx.pN
        return v

    def __repr__(self):
        return f"TowerElem({self.rows} mod {self.ctx.p}^{self.ctx.N})"


class TowerCtx:
    """The truncated tower ring attached to one FieldCtx model and precision N.

    The Teichmuller powers and each Gauss sum are computed lazily, once, and
    kept on the context; the fills are idempotent, so sharing a context
    between threads is safe under the GIL, and process pools each build
    their own."""

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
        # Kronecker slots: x^i y^j sits at bit B*(i*(2r-1) + j); a slot of a
        # product folded by x^p = 1 sums p*r products of residues < p^N
        p, r = self.p, self.r
        self._slot_bits = (p * r * self.pN ** 2).bit_length() + 1
        self._offsets = [self._slot_bits * (i * (2 * r - 1) + j)
                         for i in range(p) for j in range(r)]
        self._teich_pows = None
        self._gauss_memo: dict = {}

    # -- element constructors ------------------------------------------------

    def zero(self) -> TowerElem:
        return TowerElem(self, (0,) * (self.p * self.r))

    def one(self) -> TowerElem:
        return self.from_int(1)

    def from_int(self, n: int) -> TowerElem:
        return self.from_w((n,))

    def from_w(self, w) -> TowerElem:
        """A value of W (coefficients of y^0, y^1, ...) placed on x^0."""
        c = tuple(v % self.pN for v in w)
        return TowerElem(self, c + (0,) * (self.p * self.r - len(c)))

    def zeta_p(self) -> TowerElem:
        c = [0] * (self.p * self.r)
        c[self.r] = 1  # x^1 y^0
        return TowerElem(self, tuple(c))

    def pi(self) -> TowerElem:
        return self.zeta_p() - 1

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
        p, r, pN, B = self.p, self.r, self.pN, self._slot_bits
        offsets = self._offsets
        prod = (sum(v << o for v, o in zip(a.c, offsets) if v)
                * sum(v << o for v, o in zip(b.c, offsets) if v))
        w = 2 * r - 1
        span = B * p * w
        prod = (prod & ((1 << span) - 1)) + (prod >> span)  # x^p = 1
        mask = (1 << B) - 1
        d = [(prod >> (B * s)) & mask for s in range(p * w)]
        mod = self.unramified_modulus
        out = []
        for i in range(0, p * w, w):
            # y^r = -sum_{j<r} m_j y^j, from the top degree down
            for top in range(i + w - 1, i + r - 1, -1):
                t = d[top] % pN
                if t:
                    for j in range(r):
                        d[top - r + j] -= t * mod[j]
            out.extend(v % pN for v in d[i:i + r])
        return TowerElem(self, tuple(out))

    # -- Teichmuller lifts and character tables -------------------------------

    def teich(self, a) -> TowerElem:
        """Teichmuller lift of a field element code, a value of W."""
        if a == 0:
            return self.zero()
        t = self.from_w(self.field.coeffs(a))  # lift of the coefficients
        for _ in range(self.N + 1):
            nxt = t ** self.q
            if nxt == t:
                return t
            t = nxt
        raise RuntimeError("Teichmuller iteration failed to stabilize")

    def teich_pows(self):
        """TP[j] = teich(g)^j for j in [0, q-1)."""
        if self._teich_pows is None:
            tg = self.teich(self.field.generator)
            tp = [self.one()]
            for _ in range(self.q - 2):
                tp.append(tp[-1] * tg)
            self._teich_pows = tp
        return self._teich_pows

    # -- Gauss sums ------------------------------------------------------------

    def gauss_sums(self, ks) -> list:
        """G(k) for each k in ks; each missing G(k) is computed once and
        kept on the context."""
        ks, memo = list(ks), self._gauss_memo
        missing = [k for k in dict.fromkeys(ks) if k not in memo]
        for k in missing:
            if not 0 <= k <= self.q - 1:
                raise ValueError(f"k must lie in [0, q-1], got {k}")
        if missing:
            memo.update(zip(missing, self._gauss_sums(missing)))
        return [memo[k] for k in ks]

    def gauss_table(self) -> list:
        """All G(k), 0 <= k <= q-1, with the boundary conventions."""
        return self.gauss_sums(range(self.q))

    def _gauss_sums(self, ks) -> list:
        """G(k) for each k in ks.  acc[m] sums chi(a)^{-k} over Tr(a) = m, as
        packed W values, so each term is one int add and G(k) is
        sum_m x^m acc[m]."""
        p, r, q, pN = self.p, self.r, self.q, self.pN
        q1 = q - 1
        field = self.field
        traces = [field.trace(field.exp_table[j]) for j in range(q1)]
        width = (q1 * pN).bit_length() + 1
        mask = (1 << width) - 1
        packed = [sum(v << (width * j) for j, v in enumerate(t.c[:r]))
                  for t in self.teich_pows()]
        out = []
        for k in ks:
            if k in (0, q1):  # the boundary conventions
                out.append(self.from_int(q1 if k == 0 else -q))
                continue
            acc = [0] * p
            kj = 0
            for m in traces:
                acc[m] += packed[kj]
                kj -= k
                if kj < 0:
                    kj += q1
            out.append(TowerElem(self, tuple(
                ((s >> (width * j)) & mask) % pN
                for s in acc for j in range(r))))
        return out

    def __repr__(self):
        return f"TowerCtx(GF({self.p}^{self.r}), N={self.N})"


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)  # towers keep the Gauss sums they computed
def build_tower(field: FieldCtx, N: int) -> TowerCtx:
    """The tower over this field model at precision N; cached per (model
    object, N), so build_tower(F, N).field is F."""
    return TowerCtx(field, N)


def pi_valuation(x: TowerElem) -> Valuation:
    p, r = x.ctx.p, x.ctx.r
    best = None
    for i, row in enumerate(x.rows):
        for c in filter(None, row):
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            if best is None or i + (p - 1) * v < best:
                best = i + (p - 1) * v
    if best is None:
        # indistinguishable from zero; (p-1)*N is the precision horizon
        return Valuation((p - 1) * x.ctx.N, r, p, exact=False)
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
