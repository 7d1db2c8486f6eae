"""Exact arithmetic in GF(p^r) with full discrete-log tables.

Elements are stored as integer codes in [0, q): the base-p encoding of the
coefficient vector with respect to the power basis of a monic irreducible
modulus.  Multiplication goes through log/exp tables (built on first use)
and so does addition, through the Zech logarithms log(1 + g^e): no table has
more than q entries.  Fields are desk-scale by design: the table cap refuses
anything that would not fit comfortably in memory.

The modulus is the first irreducible polynomial in a fixed enumeration
starting from `seed`, so construction is deterministic given (p, r, seed),
and two seeds give two models of the same field for model-independence
tests.
"""
from __future__ import annotations

import functools
from collections import namedtuple

from .config import DEFAULT_CAPS
from .errors import FieldTooLarge, LogOfZero, NotPrime


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict:
    """Prime factorization by trial division; {prime: multiplicity}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class PrimePower(namedtuple("PrimePower", ("p", "r", "q"))):
    """q = p^r for a prime p and r >= 1; immutable and hashable (a field
    model's cache key).  A given q is ignored: it is always p^r."""

    __slots__ = ()

    def __new__(cls, p: int, r: int, q: int = 0):
        if not is_prime(p):
            raise NotPrime(p)
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        return super().__new__(cls, p, r, p ** r)

    def __repr__(self):
        return f"PrimePower({self.p}^{self.r}={self.q})"


def _digits(c: int, p: int, r: int) -> tuple:
    """The r base-p digits of c, least significant first."""
    out = []
    for _ in range(r):
        c, d = divmod(c, p)
        out.append(d)
    return tuple(out)


def _power(x, e: int, mul):
    """x^e for e >= 1, left to right from the top bit: bitlen(e) +
    popcount(e) - 2 calls of mul."""
    result = x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over GF(p): the modulus, generator and tables
# ---------------------------------------------------------------------------

def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_mulmod(a, b, mod, p):
    """a*b mod (mod, p); mod is monic."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, mod, p)


def _poly_powmod(a, e, mod, p):
    """a^e mod (mod, p) for e >= 1."""
    return _power(a, e, lambda x, y: _poly_mulmod(x, y, mod, p))


def _poly_mod(a, b, p):
    """Remainder of a modulo monic b."""
    ra = list(a)
    db = len(b) - 1
    while len(ra) - 1 >= db and ra:
        c = ra[-1]
        if c:
            shift = len(ra) - 1 - db
            for j in range(db):
                ra[shift + j] = (ra[shift + j] - c * b[j]) % p
        ra.pop()
    return _poly_trim(ra)


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = tuple((c * inv) % p for c in b)
        a, b = bm, _poly_mod(a, bm, p)
    return a


def _is_irreducible(f, p):
    """Monic f of degree r is irreducible over GF(p) iff gcd(f, x^{p^s} - x)
    is trivial for every s <= r//2: any nontrivial factorization has a factor
    of degree <= r//2, and irreducibles of degree d divide x^{p^d} - x."""
    r = len(f) - 1
    if r == 1:
        return True
    if f[0] == 0:
        return False
    x = (0, 1)
    t = x
    for _ in range(r // 2):
        t = _poly_powmod(t, p, f, p)  # t = x^{p^s} mod f
        diff = list(t) + [0] * max(0, 2 - len(t))
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(f, _poly_trim(diff), p)
        if len(g) - 1 != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """A concrete model of GF(p^r): modulus, generator, log/exp/Zech tables.

    Logically immutable after construction; all operations are pure and
    take/return integer element codes.  The modulus is found on
    construction; the generator and the tables on first use, idempotent
    fills that are safe to share under the GIL, so a model read only for
    its modulus and digits has searched no generator and holds no table.
    """

    def __init__(self, pp: PrimePower, seed: int = 0):
        self.pp = pp
        self.seed = seed
        self.modulus = self._find_modulus(pp.p, pp.r, seed)

    # -- construction ------------------------------------------------------

    @functools.cached_property
    def generator(self) -> int:
        """The least code whose powers (q-1)/ell, ell a prime factor of
        q-1, are all != 1: it generates GF(q)^*.  Code 1 passes only for
        q = 2, where q-1 has no prime factor ell."""
        p, q = self.pp.p, self.pp.q
        fac = factorize(q - 1)
        for c in range(1, q):
            if all(_poly_powmod(self._vec(c), (q - 1) // ell, self.modulus, p)
                   != (1,) for ell in fac):
                return c
        raise RuntimeError("no multiplicative generator found (unreachable)")

    @staticmethod
    def _find_modulus(p, r, seed):
        qr = p ** r
        for i in range(qr):
            cand = _digits((seed + i) % qr, p, r) + (1,)
            if _is_irreducible(cand, p):
                return cand
        raise RuntimeError("no irreducible polynomial found (unreachable)")

    def _vec(self, c):
        return _poly_trim(_digits(c, self.pp.p, self.pp.r))

    @functools.cached_property
    def exp_table(self) -> list:
        p, g, x, exp = self.pp.p, self._vec(self.generator), (1,), [1]
        for _ in range(self.pp.q - 2):
            x = _poly_mulmod(x, g, self.modulus, p)
            exp.append(sum(d * p ** i for i, d in enumerate(x)))
        return exp

    @functools.cached_property
    def log_table(self) -> list:
        log = [-1] * self.pp.q
        for e, c in enumerate(self.exp_table):
            log[c] = e
        if log.count(-1) != 1:
            raise RuntimeError("generator order check failed (unreachable)")
        return log

    @functools.cached_property
    def zech_table(self) -> list:
        """zech[e] = log(1 + g^e), -1 where 1 + g^e = 0, so that a + b is
        g^la (1 + g^(lb-la)); 1 + c steps the constant (lowest) digit of c."""
        p, log = self.pp.p, self.log_table
        return [log[c - c % p + (c % p + 1) % p] for c in self.exp_table]

    # -- arithmetic on codes -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return a or b
        q1 = self.pp.q - 1
        la = self.log_table[a]
        z = self.zech_table[(self.log_table[b] - la) % q1]
        return 0 if z < 0 else self.exp_table[(la + z) % q1]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        q1 = self.pp.q - 1
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % q1]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        q1 = self.pp.q - 1
        return self.exp_table[(self.log_table[a] * e) % q1]

    def gen_pow(self, e: int) -> int:
        return self.exp_table[e % (self.pp.q - 1)]

    def dlog(self, a: int) -> int:
        if a == 0:
            raise LogOfZero()
        return self.log_table[a]

    def trace(self, a: int) -> int:
        """Tr: GF(q) -> GF(p), as an integer in [0, p): the Frobenius sum
        a + a^p + ... + a^(p^(r-1))."""
        p, s = self.pp.p, 0
        for _ in range(self.pp.r):
            s, a = self.add(s, a), self.pow(a, p)
        if s >= p:
            raise RuntimeError("trace landed outside the prime field")
        return s

    # -- iteration and embedding helpers ------------------------------------

    def from_int(self, c: int) -> int:
        """Image of the integer c under Z -> GF(p) -> GF(q)."""
        return c % self.pp.p

    def coeffs(self, code: int) -> tuple:
        return _digits(code, self.pp.p, self.pp.r)

    def eval_poly(self, coeffs, x: int) -> int:
        """Evaluate a polynomial with GF(q)-coded coefficients at x (Horner)."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def __repr__(self):
        return (f"FieldCtx(GF({self.pp.p}^{self.pp.r}), "
                f"modulus={self.modulus}, g={self.generator}, seed={self.seed})")


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------

def build_field(p: int, r: int, seed: int = 0,
                cap: int = DEFAULT_CAPS.field_table_max_q) -> FieldCtx:
    """Deterministic field model for GF(p^r); cached per (p, r, seed)."""
    pp = PrimePower(p, r)
    if pp.q > cap:
        raise FieldTooLarge(pp.q, cap)
    return _field(pp, seed)


# the field models kept alive; an evicted model is rebuilt identically
_field = functools.lru_cache(maxsize=32)(FieldCtx)


def embed(base: FieldCtx, ext: FieldCtx, a: int) -> int:
    """Image of the `base` code a in `ext`, a model of an extension field:
    a's coefficient vector evaluated at the root of the base modulus in `ext`
    with the least discrete log, so sums and products are preserved."""
    p, r = base.pp.p, base.pp.r
    if ext.pp.p != p or ext.pp.r % r:
        raise ValueError(f"{base!r} is not a subfield of {ext!r}")
    if r == 1:
        return a  # a prime-field code names the same element in every model
    step = (ext.pp.q - 1) // (base.pp.q - 1)
    for e in range(0, ext.pp.q - 1, step):
        root = ext.gen_pow(e)
        if ext.eval_poly(base.modulus, root) == 0:
            return ext.eval_poly(base.coeffs(a), root)
    raise RuntimeError("base modulus has no root in the extension (unreachable)")
