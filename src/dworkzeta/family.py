"""The family part of the character-sum count of the Dwork pencil X and
its mirror Y, for `counting.charsum_count`.

Over GF(Q) the part is the sum of prod_j G(k_j) over the solutions k of
M k = 0 (X) or N k = 0 (Y) mod Q-1, per class c = k_last mod (q-1) for
the base field GF(q), each sum p x-coordinates of Z_p[zeta_p]; the fiber
part (`counting.charsum_count`) twists it by chi(lam)^c.  X's affine
count weighs a solution by s(k), the number of nonzero entries of M k, so
X's part is keyed by (s(k), c); Y is counted on the torus, where every
solution has the same weight, so Y's part is keyed by c alone.  Each
G(k_j), G(0) and G(Q-1) included, is read by its index over GF(Q) from
`padic.TowerCtx.gauss_sums` on the one tower the pass runs on.  No
solution is walked.  The pencil's solutions fall into residue classes a,
each summed as one packed power in Z_p[zeta_p][z]/(z^g - 1),
g = gcd(n+1, Q-1) (`padic.ZpCyclic`); the mirror's solutions are the
pencil's diagonal ones (Weil 1949; Koblitz, Compositio Math. 1983), so
one pass (`_FamilyPass`) serves both: Y's part at once, with X's terms
at g = 1, where they are Y's, and X's other terms on first request.  The
walk over the solutions, `oracles.enumerate_solutions`, is the tests'
oracle and shares `_matvec` and `_orbit_leaders` with this module.
"""
from __future__ import annotations

import collections
import functools
import operator
from collections.abc import Iterator
from math import comb, gcd

from .padic import TowerCtx, ZpCyclic


def _matvec(matrix, k) -> list:
    return [sum(map(operator.mul, row, k)) for row in matrix]


def _orbit_leaders(residues, base_q: int, mod: int) -> Iterator[tuple]:
    """(a, orbit length) for each a of `residues`, a set closed under
    a -> base_q a mod `mod`, that is the least member of its orbit."""
    for a in residues:
        b, size = a * base_q % mod, 1
        while b > a:
            b, size = b * base_q % mod, size + 1
        if b == a:
            yield a, size


@functools.lru_cache(maxsize=16)  # one entry per (n, lam mode)
def _solution_shapes(M: tuple, Nm: tuple, lam_zero: bool) -> tuple:
    """What the family pass reads off the Dwork matrices M and N, both
    with e = n+1 block columns and a last one:

    - diagonal: (u, v, rows of M) for each pair (u, v) of the sum of a
      row's first e entries and its last entry, in either matrix, so that
      the row reads u x + v y on the diagonal vector (x, ..., x, y);
    - the lifts of M's all-zero residues, a vector b of 0s and 1s standing
      for (Q-1) b, whose product with M is (Q-1) times that of b, with the
      same zero entries, so s((Q-1) b) = s(b): (j, b_last, s) for the
      block of j zeros and e-j ones.  lam = 0 pins b_last to 0."""
    e = len(Nm[0]) - 1
    rows_of_M = collections.Counter((sum(row[:e]), row[e]) for row in M)
    forms = dict.fromkeys((sum(row[:e]), row[e]) for row in M + Nm)
    diagonal = tuple((u, v, rows_of_M[u, v]) for u, v in forms)
    x_lifts = tuple(
        (j, t, len(M) - _matvec(M, (0,) * j + (1,) * (e - j) + (t,)).count(0))
        for j in range(e + 1) for t in ((0,) if lam_zero else (0, 1)))
    return diagonal, x_lifts


class _FamilyPass:
    """The family parts of X (matrix M), `pencil()`, and of Y (matrix N),
    `mirror`, over GF(Q), Q = q_f^m for the field GF(q_f) of `tower`,
    keyed for the base field GF(q), GF(q_f) an extension of it, as the
    module says, so s is read off M only; each value is p x-coordinates,
    read out by `ZpCyclic.coords`.  Y's part is summed on construction and
    X's on its first request: a caller that counts only Y does not pay for
    X's powers mod z^g - 1.  At g = 1 X's terms are Y's, added to X's key
    sums in Y's loop, so a cached pass holds `mirror`, those key sums and,
    once asked for, X's part: no per-leader value and no Gauss sum.

    With Q1 = Q-1, e = n+1, g = gcd(e, Q1) and d = Q1/g, the M solutions
    have block residues a + d m_i, a < d, with sum m_i = 0 mod g, and
    k_last = -e a; the N solutions are their diagonal, every m_i equal, so
    the two parts share the classes, the Gauss sums and, at g = 1, where
    every block is diagonal, the terms.  k -> q k keeps s(k),
    k_last mod (q-1) and each Gauss product, and maps the residue class
    a + dZ onto q a + dZ: only the least a of each orbit of a -> q a mod d
    is summed, weighted by the orbit length.  For a != 0 no residue is 0,
    so every entry of M k is positive and s(k) is the same for every
    block; with P = sum_{c<g} G(a + dc) z^c

        X gets G(k_last) [z^0] P^e mod z^g - 1,
        Y gets G(k_last) sum_c G(a + dc)^e.

    At a = 0 a residue 0 lifts to 0 or to Q-1, k_last to 0 only at
    lam = 0, so k_last's lifts contribute L = G(0) + G(Q-1), or G(0) at
    lam = 0.  A block coordinate not lifted to 0 then contributes
    K = G(Q-1) + sum_{c>=1} G(dc) z^c, so the blocks with j coordinates
    lifted to 0 give C(e, j) G(0)^j [z^0] K^{e-j} times G(k_last) to X,
    each s read off M (`_solution_shapes`).  Each of Y's e block
    coordinates lifts on its own, so Y gets
    L ((G(0) + G(Q-1))^e + sum_{c>=1} G(dc)^e).  Each diagonal vector is
    checked against both matrices.  The products are formed on `ZpCyclic`
    packed integers.

    Each part reads its Gauss sums, by their indices over GF(Q), from
    `tower.gauss_sums(..., m)` where it uses them, G(0) and G(Q-1)
    included; the caller picks q_f so that every index 0 < k_j < Q-1 is a
    multiple of Q1/(q_f-1)."""

    def __init__(self, tower: TowerCtx, q: int, M: tuple, Nm: tuple,
                 lam_zero: bool, m: int = 1):
        e, Q1 = len(Nm[0]) - 1, tower.q ** m - 1  # e = n+1
        g = gcd(e, Q1)
        self.Q1, self.e, self.g, self.d = Q1, e, g, Q1 // g
        self.q, self.pN, self.lam_zero = q, tower.pN, lam_zero
        self._tower = tower
        self._gauss = functools.partial(tower.gauss_sums, m=m)
        self._diagonal, self._x_lifts = _solution_shapes(M, Nm, lam_zero)
        self._x_sums: dict = {}  # X's key sums of the leaders, at g = 1
        self.mirror = self._mirror()
        self._pencil = None

    def _ring(self, g: int) -> ZpCyclic:
        # Q1 + 4 (n+2)^2 bounds the terms of a key's sum
        return ZpCyclic(self._tower, g, self.Q1 + 4 * (self.e + 1) ** 2)

    def _leaders(self) -> Iterator[tuple]:
        """(a, orbit length, k_last) for each orbit leader a != 0."""
        d = self.d
        for a, size in _orbit_leaders((0,) if self.lam_zero else range(d),
                                      self.q, d):
            if a:
                yield a, size, -self.e * a % self.Q1

    def _s(self, x: int, y: int) -> int:
        """s for M at (x, ..., x, y), checked to solve both M and N."""
        s = 0
        for u, v, count in self._diagonal:
            t = u * x + v * y
            if t % self.Q1:
                raise RuntimeError(f"non-solution ({x}, ..., {x}, {y}) "
                                   f"over GF({self.Q1 + 1}) (bug)")
            if t:
                s += count
        return s

    def _mirror(self) -> dict:
        Q1, e, g, d, q1 = self.Q1, self.e, self.g, self.d, self.q - 1
        yr = self._ring(1)
        ys: dict = {}
        powers: dict = {}  # G -> G^e

        def power(G):
            if G not in powers:
                powers[G] = yr.power(yr.pack((G,)), e)
            return powers[G]

        for a, size, last in self._leaders():
            blocks = [a + d * c for c in range(g)]
            s = [self._s(x, last) for x in blocks]  # each block checked
            *gauss, G_last = self._gauss(blocks + [last])
            v = sum(map(power, gauss))
            term = size * yr.mul(v if g == 1 else yr.reduce(v),
                                 yr.pack((G_last,)))
            _add(ys, last % q1, term)
            if g == 1:  # the block is diagonal: X's term is Y's
                _add(self._x_sums, (s[0], last % q1), term)
        # a = 0, where k_last = 0 mod (q-1): k_last's lifts times those of
        # the all-zero residues and the residues dc, c >= 1
        G0, GQ, *inner = self._gauss([0, Q1] + [d * c for c in range(1, g)])
        both = G0[0] + GQ[0]
        lift = (G0[0] if self.lam_zero else both) % self.pN
        _add(ys, 0, lift * yr.from_int(pow(both, e, self.pN)))
        for c, G in enumerate(inner, 1):
            for y in ((0,) if self.lam_zero else (0, Q1)):
                self._s(d * c, y)
            _add(ys, 0, lift * power(G))
        return {c: yr.coords(v) for c, v in ys.items()}

    def pencil(self) -> dict:
        if self._pencil is None:
            self._pencil = self._pencil_sums()
        return self._pencil

    def _pencil_sums(self) -> dict:
        Q1, e, g, d, q1 = self.Q1, self.e, self.g, self.d, self.q - 1
        xr = self._ring(g)
        xs = dict(self._x_sums)
        if g > 1:
            for a, size, last in self._leaders():
                *gauss, G_last = self._gauss([a + d * c for c in range(g)]
                                             + [last])
                term = size * xr.mul(xr.power(xr.pack(gauss), e),
                                     xr.pack((G_last,)))
                _add(xs, (self._s(a, last), last % q1), term)
        # a = 0, where k_last = 0 mod (q-1): from the powers of K
        G0, GQ, *inner = self._gauss([0, Q1] + [d * c for c in range(1, g)])
        ends, K = (G0[0], GQ[0]), xr.pack([GQ] + inner)
        powers = [xr.from_int(1), K]
        for _ in range(e - 1):
            powers.append(xr.mul(powers[-1], K))
        rows: dict = {}  # s -> coefficient of K^u, u = 0..e
        for j, b, s in self._x_lifts:
            row = rows.setdefault(s, [0] * (e + 1))
            row[e - j] += comb(e, j) * ends[0] ** j * ends[b]
        for s, row in rows.items():
            _add(xs, (s, 0), sum(c % self.pN * h
                                 for c, h in zip(row, powers)))
        return {key: xr.coords(v) for key, v in xs.items()}


def _add(sums: dict, key, v) -> None:
    sums[key] = sums.get(key, 0) + v


@functools.lru_cache(maxsize=64)  # one instance needs a few dozen at most
def _family_sums(tower: TowerCtx, q: int, M: tuple, Nm: tuple,
                 lam_zero: bool, m: int = 1) -> _FamilyPass:
    """The `_FamilyPass` of the pencil with matrix M and its mirror with
    matrix N over GF(q_f^m), q_f the field size of `tower`, keyed for the
    base field GF(q)."""
    return _FamilyPass(tower, q, M, Nm, lam_zero, m)
