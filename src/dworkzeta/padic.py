"""Truncated p-adic arithmetic in Z_p[zeta_p] (x) W, modulo p^N.

W/p^N = (Z/p^N)[y]/(m(y)) is the unramified extension of degree r, m the
integer lift of the GF(q) model's modulus.  Values are plain tuples: a
value of W is r residues, y^j at entry j, and a value of Z_p[zeta_p] is p
residues, x^i at entry i, x = zeta_p, read in (Z/p^N)[x]/(x^p - 1), whose
quotient by Phi_p(x) = 1 + x + ... + x^{p-1} is Z_p[zeta_p] mod p^N.
`pi_rows` gives the canonical coordinates, in the basis pi^i with
pi = zeta_p - 1, a root of the Eisenstein polynomial ((1+pi)^p - 1)/pi
(pi = -2 for p = 2).  A product in W is one big-int product of
Kronecker-packed operands (`_mul_coeffs`).

Teichmuller values chi(a) are computed in W by Newton iteration.  A Gauss
sum G(k) = sum_{a != 0} chi(a)^{-k} zeta_p^{Tr(a)} is sum_m x^m acc[m],
acc[m] in Z_p; it reads only the y^0 coordinates of the powers chi(g)^j,
which follow a linear recurrence of order r, and the traces of the
Teichmuller values, read off the same sequence: no table of GF(q) is
built.  Each field model has one `GaussSource`, which holds the lift of its
generator, that sequence, the traces and one G_q(c) per p-cyclotomic coset
minimum c at a single precision, and sums acc over the trace-1 set folded
by Frobenius orbits (`GaussSource._fold`): about q/(pr) + p terms, against
q - 1.  A pure sum, whose character has an order m with p^t = -1 mod m for
some t, 2t | r, is +-p^{r/2} by Stickelberger's theorem and is written down
in closed form (`GaussSource._pure`), reading none of these: a model whose
sums are all pure, as at the supersingular Fermat fibers, lifts nothing
and searches no generator.  A tower at a lower precision reads them
reduced.  Which Gauss sum over GF(q^m) is which is decided in
`TowerCtx.gauss_sums` alone.

The family part of the character-sum count computes in
Z_p[zeta_p][z]/(z^g - 1) on packed integers (`ZpCyclic`), whose layout
only this module knows, and reads each sum's z^0 part out as p
x-coordinates.  `zp_integer` combines such values with values of W and
certifies the combination a rational integer.  The ring
(W/p^N)[x]/(x^p - 1) as a whole, whose products are `_mul_coeffs` at p
x-blocks, is the tests' oracle ring in module `oracles`, which no command
runs.
"""
from __future__ import annotations

import functools
import operator
import sys
from math import comb, gcd

from .errors import NonIntegralResult
from .ff import FieldCtx, PrimePower, _power


class TowerCtx:
    """Z_p[zeta_p] (x) W mod p^N over one FieldCtx model, at precision N.

    The Teichmuller powers and the Gauss sums are computed once per field
    model, by its Gauss source (`gauss_source`), and read lazily, reduced
    mod p^N, and kept on the context.  The fills are idempotent, and so is
    replacing a source by one at a higher precision: it is one store of a
    value that reduces to the same residues.  So sharing a context between
    threads is safe under the GIL, and process pools each build their
    own."""

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
        B = self._slot_bits = (p * r * self.pN ** 2).bit_length() + 1
        # Horner shifts, top coefficient first: entering a block skips its
        # r-1 empty slots; of period r, so it serves any number of blocks
        self._shifts = [B * r if i % r == 0 else B
                        for i in range(p * r, 0, -1)]
        self._teich_pows = None
        self._gauss_memo: dict = {}

    # -- multiplication in W and in the ring ----------------------------------

    def _mul_coeffs(self, a, b, blocks: int) -> tuple:
        """The product of two flat coefficient tuples of `blocks` powers of
        x each, x^blocks = 1, entry i*r + j the coefficient of x^i y^j: W
        alone at 1, the oracle ring (W/p^N)[x]/(x^p - 1) at blocks = p."""
        r, pN, B, shifts = self.r, self.pN, self._slot_bits, self._shifts
        x = y = 0
        for v, s in zip(reversed(a), shifts):
            x = x << s | v
        for v, s in zip(reversed(b), shifts):
            y = y << s | v
        w = 2 * r - 1
        span = B * blocks * w
        prod = x * y
        prod = (prod & ((1 << span) - 1)) + (prod >> span)  # x^blocks = 1
        mask = (1 << B) - 1
        if r == 1:
            return tuple((prod >> s & mask) % pN for s in range(0, span, B))
        d = [prod >> s & mask for s in range(0, span, B)]
        mod = self.unramified_modulus
        out = []
        for i in range(0, blocks * w, w):
            # y^r = -sum_{j<r} m_j y^j, from the top degree down
            for top in range(i + w - 1, i + r - 1, -1):
                t = d[top] % pN
                if t:
                    for j in range(r):
                        d[top - r + j] -= t * mod[j]
            out.extend(v % pN for v in d[i:i + r])
        return tuple(out)

    def zp_integer(self, terms) -> int:
        """sum x (x) w as a rational integer mod p^N, for pairs (x, w) of a
        value x of Z_p[zeta_p] (p x-coordinates) and a value w of W (r
        residues), certified on the coordinates: modulo Phi_p a y^j part
        is 0 when its p coordinates are equal, and a y^0 part with equal
        coordinates x^1..x^{p-1} is the integer x^0 - x^{p-1}.  So every
        y^j part, j > 0, must have equal coordinates, and the y^0 part
        equal coordinates 1..p-1; NonIntegralResult if not."""
        p, pN = self.p, self.pN
        acc = [0] * (p * self.r)  # x^i y^j at j*p + i
        for x, w in terms:
            for j, wj in enumerate(w):
                if wj:
                    for i, xi in enumerate(x, j * p):
                        acc[i] += wj * xi
        acc = [v % pN for v in acc]
        for j in range(0, len(acc), p):
            a = acc[j:j + p]
            if a[1:] != a[-1:] * (p - 1) or (j and a[0] != a[-1]):
                raise NonIntegralResult(
                    f"nonzero coordinate off Z_p in the y^{j // p} part: {a}")
        return (acc[0] - acc[p - 1]) % pN

    # -- Teichmuller lifts and character tables -------------------------------

    def teich(self, a, x=None, precision: int = 1) -> tuple:
        """Teichmuller lift of a field element code, a value of W: the root
        of f(X) = X^q - X congruent to the lift t of the coefficients of a,
        by Newton steps X <- X - c f(X), c = (q-1)^{-1} mod p^N, from X = t,
        or from a lift x of a already exact to `precision` digits.
        With X = root + e, the step leaves -c times the terms
        C(q, k) root^(q-k) e^k, k >= 2, of f(X), as f'(root) = q - 1.  For
        k = p^j m, p not dividing m, C(q, k) has valuation r - j (Kummer),
        so a term has valuation at least r - j + p^j v: at least 2v + r for
        odd p, 2v + r - 1 for p = 2.  So a step takes the precision v (1 at
        X = t) to 2v + g, g = r, or r - 1 at p = 2, and g = 1 over GF(2),
        where t is 0 or 1 and already exact: from t, at most
        N.bit_length() - 1 q-th powers in W."""
        pN, q = self.pN, self.q
        c = pow(q - 1, -1, pN)
        mul = functools.partial(self._mul_coeffs, blocks=1)
        gain = self.r - (self.p == 2) or 1
        if x is None:
            x = tuple(v % pN for v in self.field.coeffs(a))
        while precision < self.N:
            # over GF(p), W is Z/p^N and the q-th power one modular pow
            xq = (pow(x[0], q, pN),) if self.r == 1 else _power(x, q, mul)
            x = tuple((u - c * (v - u)) % pN for u, v in zip(x, xq))
            precision = 2 * precision + gain
        return x

    def teich_pows(self) -> list:
        """TP[j] = teich(g)^j for j in [0, q-1), values of W: the twists of
        the fiber part read whole values.  Reduced mod p^N from the model's
        Gauss source, and kept."""
        if self._teich_pows is None:
            pN = self.pN
            self._teich_pows = [
                tuple(v % pN for v in t)
                for t in gauss_source(self.field, self.N).teich_pows]
        return self._teich_pows

    # -- Gauss sums ------------------------------------------------------------

    def gauss_sums(self, ks, m: int = 1) -> list:
        """G(k) over GF(Q), Q = q^m, for each k in ks, a value of
        Z_p[zeta_p]: p x-coordinates mod p^N.  k must be a multiple of
        s = (Q-1)/(q-1) in [0, Q-1] (ValueError if not); G(0) = Q-1 and
        G(Q-1) = -Q by convention.  Any other k = t s is the
        Hasse-Davenport lift of a sum over GF(q),
        G_Q(t s) = (-1)^{m-1} G_q(t)^m, the power taken on the g = 1
        `ZpCyclic`, and a -> a^p permutes GF(q)^* and keeps the trace, so
        G_q(p t mod (q-1)) = G_q(t).  G_q(c) at the least member c of the
        p-cyclotomic coset of t is read from the model's Gauss source,
        which computes it once per field model, and reduced mod p^N.  The
        memo is looked up by index first, and keeps one value, one
        Hasse-Davenport power at m > 1, per (coset minimum, m), under the
        index c s."""
        p, pN, q1, Q1 = self.p, self.pN, self.q - 1, self.q ** m - 1
        step, memo, ring = Q1 // q1, self._gauss_memo, None
        frobenius = [p ** i for i in range(self.r)]
        out = []
        for k in ks:
            G = memo.get((k, m))
            if G is None:
                if k % step or not 0 <= k <= Q1:
                    raise ValueError(
                        f"k must be a multiple of {step} in [0, {Q1}], got {k}")
                if k in (0, Q1):  # the boundary conventions
                    out.append(((Q1 if k == 0 else -Q1 - 1) % pN,)
                               + (0,) * (p - 1))
                    continue
                c = min([k // step * f % q1 for f in frobenius])
                G = memo.get((c * step, m))
                if G is None:
                    G = tuple(v % pN for v in
                              gauss_source(self.field, self.N).gauss_sum(c))
                    if m > 1:
                        ring = ring or ZpCyclic(self, 1, 1)
                        G = tuple((-1) ** (m - 1) * x % pN for x in
                                  ring.coords(ring.power(ring.pack((G,)), m)))
                    memo[c * step, m] = G
                memo[k, m] = G
            out.append(G)
        return out

    def gauss_table(self) -> list:
        """All G(k), 0 <= k <= q-1, with the boundary conventions."""
        return self.gauss_sums(range(self.q))

    def pi_rows(self, c) -> tuple:
        """(p-1) tuples of w residues, rows[i][j] the coefficient of
        pi^i y^j in sum_i x^i c_i, c flat in p blocks of w = len(c)/p:
        mod Phi_p, x^{p-1} = -(1 + ... + x^{p-2}), then x^i = (1 + pi)^i."""
        p, pN = self.p, self.pN
        w = len(c) // p
        top = c[(p - 1) * w:]
        a = [[c[i * w + j] - top[j] for j in range(w)] for i in range(p - 1)]
        return tuple(
            tuple(sum(comb(i, k) * a[i][j] for i in range(k, p - 1)) % pN
                  for j in range(w))
            for k in range(p - 1))

    def __repr__(self):
        return f"TowerCtx(GF({self.p}^{self.r}), N={self.N})"


class GaussSource:
    """One field model's Gauss layer at precision N, each part computed on
    first use and kept: the Teichmuller lift of the generator g, its
    powers, the y^0 sequence of the powers, the traces t(i) and G_q(c) for
    each p-cyclotomic coset minimum c, pure ones in closed form and the
    others folded from the sequence and the traces, so a source asked only
    for pure sums computes none of the other parts.  A tower at precision
    N' <= N reads them reduced mod p^N' (`gauss_source`); every residue
    mod p^N' is the one the tower would compute at N' itself, the lift
    being unique."""

    def __init__(self, field: FieldCtx, N: int, replaced=None):
        self.tower = TowerCtx(field, N)  # the arithmetic of W mod p^N
        self.N = N
        self._gauss: dict = {}
        # the lift of the source this one replaces, where it was made
        self._start = (() if replaced is None
                       or "_teich_generator" not in vars(replaced)
                       else (replaced._teich_generator, replaced.N))

    @functools.cached_property
    def _teich_generator(self) -> tuple:
        """teich(g), lifted once for `teich_pows` and `y0`: from the lift
        of the source this one replaces, exact to its precision, where
        there is one."""
        return self.tower.teich(self.tower.field.generator, *self._start)

    @functools.cached_property
    def teich_pows(self) -> list:
        """teich(g)^j for j in [0, q-1), by q-2 multiplies in W."""
        T, tg = self.tower, self._teich_generator
        tp = [(1,) + (0,) * (T.r - 1)]
        for _ in range(T.q - 2):
            tp.append(T._mul_coeffs(tp[-1], tg, 1))
        return tp

    @functools.cached_property
    def y0(self) -> list:
        """The y^0 coordinates of teich(g)^j for j in [0, q-1), without the
        powers themselves.  t = teich(g) is a root of its minimal polynomial
        over Z_p, of degree r (g generates GF(q) over GF(p)), so
        t^r = sum_{i<r} c_i t^i, and the Z_p-linear y^0 coordinate follows
        a_{j+r} = sum_i c_i a_{j+i}: r scalar multiply-adds a term.  The
        c_i solve the r x r system whose columns are t^0..t^{r-1}; it is
        invertible mod p, so every pivot can be taken a unit."""
        T = self.tower
        p, q, r, pN = T.p, T.q, T.r, T.pN
        tg = self._teich_generator
        pows = [(1,) + (0,) * (r - 1)]
        for _ in range(r):
            pows.append(T._mul_coeffs(pows[-1], tg, 1))
        # rows: coordinate j of t^0..t^r, the last column the right side
        rows = [[t[j] for t in pows] for j in range(r)]
        for i in range(r):
            piv = next(j for j in range(i, r) if rows[j][i] % p)
            rows[i], rows[piv] = rows[piv], rows[i]
            inv = pow(rows[i][i], -1, pN)
            rows[i] = [v * inv % pN for v in rows[i]]
            for j in range(r):
                if j != i and rows[j][i]:
                    f = rows[j][i]
                    rows[j] = [(v - f * u) % pN
                               for v, u in zip(rows[j], rows[i])]
        c = [row[r] for row in rows]
        seq = [t[0] for t in pows[:r]]
        for j in range(q - 1 - r):
            seq.append(sum(map(operator.mul, c, seq[j:j + r])) % pN)
        return seq

    @functools.cached_property
    def traces(self) -> list:
        """t(i) = sum_{l<r} y0[i p^l mod (q-1)], i in [0, q-1), unreduced:
        the trace Tr_{W/Z_p} teich(g^i), which lies in Z_p, so it is the
        sum of those y^0 coordinates, and reduces mod p to Tr(g^i)."""
        T, y0 = self.tower, self.y0
        q1 = T.q - 1
        conjugates = [[y0[i * f % q1] for i in range(q1)]
                      for f in [T.p ** l for l in range(T.r)]]
        return list(map(sum, zip(*conjugates)))

    @functools.cached_property
    def _fold_inputs(self) -> tuple:
        """(full, short, omega) over the trace-1 set {g^j : Tr(g^j) = 1},
        which j -> p j mod (q-1) permutes: one j of each full Frobenius
        orbit, of r members; every member of each short one, an element of
        a proper subfield; and omega[m] = s (q-1)/(p-1) for the s with
        teich(g)^{s (q-1)/(p-1)} = teich(m), m in GF(p)^*, whose y^0
        value is = m mod p (omega[0] unused)."""
        T, traces = self.tower, self.traces
        p, q1, r = T.p, T.q - 1, T.r
        full, short, seen = [], [], set()
        for j, t in enumerate(traces):
            if t % p == 1 and j not in seen:
                orbit = {j * p ** l % q1 for l in range(r)}
                seen |= orbit
                if len(orbit) == r:
                    full.append(j)
                else:
                    short.extend(sorted(orbit))
        e, omega = q1 // (p - 1), [0] * p
        for s in range(p - 1):
            omega[self.y0[s * e] % p] = s * e
        return full, short, omega

    def gauss_sum(self, c: int) -> tuple:
        """G_q(c) for a coset minimum 0 < c < q-1, p x-coordinates mod p^N,
        computed on first request and kept: in closed form when the
        character is pure (`_pure`), else folded (`_fold`)."""
        G = self._gauss.get(c)
        if G is None:
            G = self._gauss[c] = self._pure(c) or self._fold(c)
        return G

    def _pure(self, c: int):
        """G_q(c) when omega^{-c}, of order m = (q-1)/gcd(c, q-1), is pure,
        else None.  Stickelberger (Lidl-Niederreiter, Finite Fields,
        Thm 5.16): with t the least t >= 1 with p^t = -1 mod m, where one
        exists and 2t | r, G = eps p^{r/2}, gamma = r/(2t),
        eps = (-1)^{gamma-1} for p = 2 and
        eps = (-1)^{gamma-1+(p^t+1) gamma/m} for odd p.  Such a character
        is trivial on GF(p)^*, since m | (q-1)/(p-1), so (p-1) | c and the
        fold's acc[i] is a = acc[1] for i != 0 and acc[0] = -(p-1) a: G is
        -p a, and the tuple the fold would store has a = -G/p."""
        T = self.tower
        p, r, pN = T.p, T.r, T.pN
        m = (T.q - 1) // gcd(c, T.q - 1)
        t = next((t for t in range(1, r // 2 + 1) if pow(p, t, m) == m - 1),
                 None)
        if t is None or r % (2 * t):
            return None
        if c % (p - 1):
            raise RuntimeError(f"the pure character omega^-{c} is not "
                               f"trivial on GF({p})^* (unreachable)")
        gamma = r // (2 * t)
        sign = gamma - 1 + (p > 2) * (p ** t + 1) // m * gamma
        a = (-1) ** sign * -p ** (r // 2 - 1) % pN
        return (-(p - 1) * a % pN,) + (a,) * (p - 1)

    def _fold(self, c: int) -> tuple:
        """G_q(c) = sum_m x^m acc[m], acc[m] the sum of chi(a)^{-c} over
        Tr(a) = m, a value of Z_p, from the trace-1 set alone:
        - acc[1]: a full orbit of g^j adds t(-c j), a short orbit each of
          its members' y0[-c j];
        - a -> m a maps Tr = 1 onto Tr = m, so acc[m] = teich(m)^{-c}
          acc[1], and teich(m)^{-c} = y0[-c omega[m]], a value of Z_p;
        - the acc[m] sum to 0 for 0 < c < q-1, and the teich(m)^{-c} to
          p-1 when (p-1) | c and to 0 otherwise, so
          acc[0] = -(p-1) acc[1] or 0.
        About q/(p r) + p terms, against q-1 for the direct sum."""
        T, t, y0 = self.tower, self.traces, self.y0
        p, pN, q1 = T.p, T.pN, T.q - 1
        full, short, omega = self._fold_inputs
        one = (sum([t[-c * j % q1] for j in full])
               + sum([y0[-c * j % q1] for j in short])) % pN
        acc = [y0[-c * w % q1] * one % pN for w in omega]
        acc[0] = 0 if c % (p - 1) else -(p - 1) * one % pN
        return tuple(acc)


class ZpCyclic:
    """Z_p[zeta_p][z]/(z^g - 1) mod p^N on packed integers, for g prime to
    p, read out by `coords`.

    x^i z^c (x = zeta_p) sits in the slot e < pg of B bits with e = i mod p
    and e = c mod g: by the Chinese remainder theorem the ring is
    Z[w]/(w^{pg} - 1), x and z powers of w, so a product is one big-int
    multiply and one fold by w^{pg} = 1.  At g = 1 slot i holds x^i.

    After every multiply a Barrett step brings each slot below 2 p^N at
    once: with mu = floor(2^e / p^N), the slotwise quotient estimate
    floor(s mu / 2^e) is at most s / p^N and more than s / p^N - 2 for
    s < 2^e, so s minus p^N times it lies in [0, 2 p^N).  A folded product
    of two values with slots below 2 p^N sums pg products of slots, below
    S = 4 pg (p^N)^2; e is the bit length of S, and slots of S mu bits keep
    both the product and its multiple by mu from carrying into the next.
    A term of a sum, a coefficient below p^N times such a value, is below
    2 (p^N)^2, and a sum of at most `terms` of them is below
    2 terms (p^N)^2, which the slots also cover."""

    def __init__(self, tower: TowerCtx, g: int, terms: int):
        p, pN = tower.p, tower.pN
        if g < 1 or gcd(p, g) != 1:
            raise ValueError(f"g = {g} is not a positive integer prime to {p}")
        self.tower, self.g, self.pN = tower, g, pN
        S = 4 * p * g * pN ** 2
        self._e = S.bit_length()
        self._mu = (1 << self._e) // pN
        self._set_width(max(S * self._mu, 2 * terms * pN ** 2).bit_length())

    def _set_width(self, B: int) -> None:
        p, g, L = self.tower.p, self.g, self.tower.p * self.g
        self.bits, self._span, self._mask = B, B * L, (1 << B) - 1
        self._low = (1 << self._span) - 1
        # the low B - e bits of each slot: where a quotient lands after >> e
        self._qmask = self._low // self._mask * ((1 << (B - self._e)) - 1)
        # CRT: x^i z^c -> e = i g (g^-1 mod p) + c p (p^-1 mod g) mod pg
        xs, zs = g * pow(g, -1, p), p * pow(p, -1, g)
        self._shift = [[B * ((i * xs + c * zs) % L) for i in range(p)]
                       for c in range(g)]

    def pack(self, cs) -> int:
        """sum_c z^c sum_i cs[c][i] x^i packed, for at most g tuples of p
        x-coordinates (as `TowerCtx.gauss_sums` returns them), each below
        2 p^N."""
        v = 0
        for c, shifts in zip(cs, self._shift):
            for ci, s in zip(c, shifts):
                v |= ci << s
        return v

    def from_int(self, n: int) -> int:
        """The rational integer n packed: n mod p^N on x^0 z^0, slot 0."""
        return n % self.pN

    def reduce(self, v: int) -> int:
        """v with every slot brought below 2 p^N by the Barrett step, for
        slots below S = 4 pg (p^N)^2."""
        return v - (v * self._mu >> self._e & self._qmask) * self.pN

    def mul(self, a: int, b: int) -> int:
        """The product of two values whose slots are below 2 p^N, reduced."""
        prod = a * b
        return self.reduce((prod & self._low) + (prod >> self._span))

    def power(self, a: int, e: int) -> int:
        """a^e for e >= 1, left to right by squaring, reduced."""
        return _power(a, e, self.mul)

    def coords(self, v: int) -> tuple:
        """The p x-coordinates of the z^0 part of v, each reduced mod p^N:
        at g = 1, the value of Z_p[zeta_p] that v packs."""
        mask, pN = self._mask, self.pN
        return tuple((v >> s & mask) % pN for s in self._shift[0])


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)  # towers keep the Gauss sums they read
def build_tower(field: FieldCtx, N: int) -> TowerCtx:
    """The tower over this field model at precision N; cached per (model
    object, N), so build_tower(F, N).field is F."""
    return TowerCtx(field, N)


@functools.lru_cache(maxsize=32)  # the models whose Gauss source is kept
def _sources(field: FieldCtx) -> list:
    """The one-entry slot holding this model's current Gauss source."""
    return [None]


def gauss_source(field: FieldCtx, N: int) -> GaussSource:
    """The Gauss source of this field model, at a precision N_s >= N.  A
    request above the kept source's N_s, or with none kept, replaces it by
    one at the largest N' whose p^N' fits in as many int digits as p^N
    needs: its residues cost what they cost at N, and the precisions of one
    pass, which grow with k and n, mostly land in one source, and the new
    source's Newton lift starts from the old one's.  Replacing the slot's
    entry is one store, so it is idempotent under the GIL."""
    slot = _sources(field)
    source = slot[0]
    if source is None or source.N < N:
        p, bits = field.pp.p, sys.int_info.bits_per_digit
        top = -(-(p ** N).bit_length() // bits) * bits
        while (p ** (N + 1)).bit_length() <= top:
            N += 1
        source = slot[0] = GaussSource(field, N, source)
    return source


def vp(c: int, p: int) -> int:
    """The p-adic valuation of a nonzero integer c."""
    if c == 0:
        raise ValueError("valuation of zero")
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v
