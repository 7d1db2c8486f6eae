"""Independent oracles for the tests: code that no command runs.

Each recomputes a quantity the package computes another way, or walks what
the package's fast paths only sum: the mirror count stratum by stratum
(`count_Y_strata_brute`), the character-sum solutions one per class
(`enumerate_solutions`), which the family pass of module `family` sums
without walking, the Gauss sums over every unit (`gauss_sums_direct`),
which `padic` folds by Frobenius orbits, and the pi-adic valuation of a
tower element (`pi_valuation`), which Stickelberger's theorem predicts for
a Gauss sum from a digit sum (`digit_sum`), in the ring of `TowerElem`s,
where the tests check the tuples and packed integers of `padic`.  Neither
the package nor its CLI imports this module.
"""
from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from math import comb, factorial, gcd

from .config import DEFAULT_CAPS, Caps
from .counting import DworkInstance, count_brute
from .errors import NonIntegralResult
from .family import _matvec, _orbit_leaders
from .ff import PrimePower, _digits, _power
from .padic import TowerCtx, vp


# ---------------------------------------------------------------------------
# brute-force mirror count
# ---------------------------------------------------------------------------

def count_Y_strata_brute(inst: DworkInstance, k: int = 1,
                         caps: Caps = DEFAULT_CAPS) -> int:
    """Independent #Y oracle: sum the counts of the torus hypersurface over
    every face of the simplex.  Proper faces of dimension d are cut out by
    1 + x_1 + ... + x_d = 0 in a d-torus and there are C(n+1, d+1) of them;
    vertices contribute nothing; the big cell contributes N_g*."""
    F, _lam = inst.extension(k, cap=caps.field_table_max_q)
    n = inst.n
    q = F.pp.q
    total = count_brute(inst, inst.Nmat, k, caps=caps)
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
# the character-sum solutions, one per class
# ---------------------------------------------------------------------------

def _reorderings(block) -> int:
    """The number of distinct reorderings of a sorted tuple."""
    out = factorial(len(block))
    for _, run in itertools.groupby(block):
        out //= factorial(sum(1 for _ in run))
    return out


def enumerate_solutions(matrix, q: int, lam_zero: bool = False,
                        base_q: int | None = None) -> Iterator[tuple]:
    """Solutions k in [0, q-1]^m of matrix*k = 0 mod (q-1), one per class of
    block reorderings and orbit of base_q-Frobenius, as triples
    (k, s(k), count) with s(k) the number of nonzero entries of matrix*k.

    The block is the first len(matrix) - 1 coordinates: the exponents of
    x_i^{n+1} for M, of x_i for N.  Reordering the block's columns only
    permutes the rows below the row of ones, so it keeps both the solution
    set and s(k).  The representative has its block sorted.

    Uses the structure of the two Dwork matrices instead of scanning q^m
    tuples: for M the block residues are a + d m_i, d = (q-1)/gcd(n+1, q-1),
    with sum m_i = 0 mod gcd(n+1, q-1), walked as sorted multisets, and the
    last residue is determined; for N every residue but the last is a.  A
    zero residue lifts to 0 or q-1; in the block, lifting j of z zeros gives
    one class, with the q-1's last.  lam = 0 pins k_last to 0.

    For GF(base_q) a subfield of GF(q), k -> base_q k (residue-wise, each
    lift of 0 kept) maps the solutions of class a onto those of class
    base_q a (mod d for M, mod q-1 for N) one to one, and keeps s(k),
    k_last mod (base_q - 1), each Gauss product G(k_j) and each class size.
    So only the least a of each orbit is walked, and count is the number of
    distinct reorderings times the orbit length; base_q = q (the default)
    walks every a.  Each representative is re-verified against the matrix.
    """
    nrows, ncols, q1 = len(matrix), len(matrix[0]), q - 1
    n = ncols - 2
    base_q = q if base_q is None else base_q
    residue = q1.__rmod__  # x -> x % q1

    def emit(block, tail, weight):
        # weight: the block's reorderings times the orbit length; lifting j
        # of its z zeros to q-1 multiplies the reorderings by C(z, j)
        options = [(t,) if t else (0, q1) for t in tail]
        if lam_zero:  # the last residue is 0, and its lift stays 0
            options[-1] = (0,)
        rests = list(itertools.product(*options))
        z = block.count(0)
        for j in range(z + 1):
            head = block[j:] + (q1,) * j
            count = weight * comb(z, j)
            for rest in rests:
                k = head + rest
                v = _matvec(matrix, k)
                if any(map(residue, v)):
                    raise RuntimeError(f"enumerated non-solution {k} (bug)")
                yield k, nrows - v.count(0), count

    if nrows == ncols:  # M
        g = gcd(n + 1, q1)
        d = q1 // g
        # m -> a + d m is one to one, so a block has the reorderings of ms
        multisets = [([d * m for m in ms], _reorderings(ms)) for ms in
                     itertools.combinations_with_replacement(range(g), n + 1)
                     if sum(ms) % g == 0]
        for a, size in _orbit_leaders((0,) if lam_zero else range(d),
                                      base_q, d):
            tail = ((-(n + 1) * a) % q1,)
            for dms, ways in multisets:
                yield from emit(tuple(map(a.__add__, dms)), tail,
                                ways * size)
    else:
        # lam = 0 pins k_last = 0, i.e. (n+1) a = 0 mod (q-1)
        step = q1 // gcd(n + 1, q1) if lam_zero else 1
        for a, size in _orbit_leaders(range(0, q1, step), base_q, q1):
            yield from emit((a,) * n, (a, (-(n + 1) * a) % q1), size)


# ---------------------------------------------------------------------------
# the tower ring
# ---------------------------------------------------------------------------

class TowerElem:
    """An element of (W/p^N)[x]/(x^p - 1), x = zeta_p, on a `TowerCtx`: p*r
    residues c, c[i*r + j] the coefficient of x^i y^j; immutable.  Products
    are `TowerCtx._mul_coeffs` at p x-blocks; equality compares `rows`."""

    __slots__ = ("ctx", "c")

    def __init__(self, ctx: TowerCtx, c):
        self.ctx = ctx
        self.c = c

    @classmethod
    def from_w(cls, ctx: TowerCtx, w) -> "TowerElem":
        """A value of W, as `teich` returns it, placed on x^0."""
        c = tuple(v % ctx.pN for v in w)
        return cls(ctx, c + (0,) * (ctx.p * ctx.r - len(c)))

    @classmethod
    def from_zp(cls, ctx: TowerCtx, xs) -> "TowerElem":
        """A value of Z_p[zeta_p], as `gauss_sums` returns it, on y^0."""
        c = [0] * (ctx.p * ctx.r)
        c[::ctx.r] = [v % ctx.pN for v in xs]
        return cls(ctx, tuple(c))

    @classmethod
    def from_int(cls, ctx: TowerCtx, n: int) -> "TowerElem":
        return cls.from_w(ctx, (n,))

    @classmethod
    def zero(cls, ctx: TowerCtx) -> "TowerElem":
        return cls.from_int(ctx, 0)

    @classmethod
    def one(cls, ctx: TowerCtx) -> "TowerElem":
        return cls.from_int(ctx, 1)

    @classmethod
    def zeta_p(cls, ctx: TowerCtx) -> "TowerElem":
        return cls.from_zp(ctx, (0, 1) + (0,) * (ctx.p - 2))

    @classmethod
    def pi(cls, ctx: TowerCtx) -> "TowerElem":
        return cls.zeta_p(ctx) + -1

    @property
    def rows(self) -> tuple:
        """The pi-coordinates, (p-1) rows of r (`TowerCtx.pi_rows`)."""
        return self.ctx.pi_rows(self.c)

    def _coerce(self, x) -> "TowerElem":
        if isinstance(x, TowerElem):
            if x.ctx is not self.ctx:
                raise ValueError("mixing elements of different towers")
            return x
        if isinstance(x, int):
            return TowerElem.from_int(self.ctx, x)
        raise TypeError(f"cannot coerce {type(x)} into the tower")

    def __add__(self, other):
        pN = self.ctx.pN
        return TowerElem(self.ctx, tuple(
            (x + y) % pN for x, y in zip(self.c, self._coerce(other).c)))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        ctx = self.ctx
        return TowerElem(ctx, ctx._mul_coeffs(self.c, self._coerce(other).c,
                                              ctx.p))

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined in the tower")
        return _power(self, e, operator.mul) if e else TowerElem.one(self.ctx)

    def scale(self, n: int) -> "TowerElem":
        pN = self.ctx.pN
        return TowerElem(self.ctx, tuple(x * n % pN for x in self.c))

    def __eq__(self, other):
        if not isinstance(other, TowerElem):
            return NotImplemented
        return self.ctx is other.ctx and self.rows == other.rows

    def as_integer(self) -> int:
        """The value as a rational integer mod p^N; raises if coordinates
        outside the Z_p slot are nonzero."""
        rows = self.rows
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if (i, j) != (0, 0) and x != 0:
                    raise NonIntegralResult(
                        f"nonzero coordinate at pi^{i} y^{j}: {x}")
        return rows[0][0]

    def __repr__(self):
        return f"TowerElem({self.rows} mod {self.ctx.p}^{self.ctx.N})"


def zp_coords(x: TowerElem) -> tuple:
    """The p x-coordinates of x, as `ZpCyclic.pack` reads them; ValueError
    if x has a nonzero y^j part, j > 0, so is not in Z_p[zeta_p]."""
    xs = x.c[::x.ctx.r]
    if x.c.count(0) - xs.count(0) != len(x.c) - x.ctx.p:
        raise ValueError(f"{x} is not in Z_p[zeta_p]")
    return xs


# ---------------------------------------------------------------------------
# the direct Gauss sum
# ---------------------------------------------------------------------------

def gauss_sums_direct(tower: TowerCtx, ks=None) -> list:
    """G(k) for each index k in ks, every 0 < k < q-1 by default, p
    x-coordinates mod p^N, by the direct sum over all q-1 units: acc[m]
    sums chi(g^j)^{-k} = teich(g)^{-kj} over the j with Tr(g^j) = m.
    Frobenius permutes that set and acts on the Teichmuller values, so
    acc[m] lies in Z_p and sums the y^0 coordinates of `teich_pows`, one
    int add per unit; the traces are the field model's.  The oracle of
    `padic.GaussSource`'s fold and of its closed form."""
    F, p, pN, q1 = tower.field, tower.p, tower.pN, tower.q - 1
    traces = [F.trace(F.gen_pow(j)) for j in range(q1)]
    tp = tower.teich_pows()
    out = []
    for k in range(1, q1) if ks is None else ks:
        acc = [0] * p
        for j, m in enumerate(traces):
            acc[m] += tp[-k * j % q1][0]
        out.append(tuple(v % pN for v in acc))
    return out


# ---------------------------------------------------------------------------
# pi-adic valuations
# ---------------------------------------------------------------------------

class Valuation(namedtuple("Valuation", ("numerator", "r", "p", "exact"),
                           defaults=(True,))):
    """A pi-adic valuation in units of 1/(r(p-1)) of ord_q.

    numerator/(r(p-1)) is ord_q; numerator/(p-1) is ord_p.  When exact is
    False the element was indistinguishable from 0 at the working precision
    and numerator is only a lower bound.
    """

    __slots__ = ()

    @property
    def ord_q(self) -> Fraction:
        return Fraction(self.numerator, self.r * (self.p - 1))


def pi_valuation(x: TowerElem) -> Valuation:
    p, r = x.ctx.p, x.ctx.r
    vals = [i + (p - 1) * vp(c, p)
            for i, row in enumerate(x.rows) for c in row if c]
    if not vals:
        # indistinguishable from zero; (p-1)*N is the precision horizon
        return Valuation((p - 1) * x.ctx.N, r, p, exact=False)
    return Valuation(min(vals), r, p, exact=True)


def digit_sum(k: int, pp: PrimePower) -> int:
    """Sum of base-p digits of k, for 0 <= k <= q-1."""
    if not 0 <= k <= pp.q - 1:
        raise ValueError(f"k must lie in [0, q-1], got {k}")
    return sum(_digits(k, pp.p, pp.r))
