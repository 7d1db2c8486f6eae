"""Exact arithmetic in GF(p^r) with full discrete-log tables.

Elements are stored as integer codes in [0, q): the base-p encoding of the
coefficient vector with respect to the power basis of a monic irreducible
modulus.  Multiplication goes through log/exp tables (built once per field),
addition is digitwise mod p (tabulated for small q).  Fields are desk-scale
by design: the table cap refuses anything that would not fit comfortably in
memory.

The modulus is the first irreducible polynomial in a fixed enumeration
starting from `seed`, so construction is deterministic given (p, r, seed),
and two seeds give two models of the same field for model-independence
tests.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional

from .config import DEFAULT_CAPS
from .errors import FieldTooLarge, LogOfZero, NotPrime

_ADD_TABLE_MAX_Q = 1024


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


@dataclass(frozen=True)
class PrimePower:
    p: int
    r: int
    q: int = 0

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime(self.p)
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        object.__setattr__(self, "q", self.p ** self.r)

    def __repr__(self):
        return f"PrimePower({self.p}^{self.r}={self.q})"


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over GF(p), used only to bootstrap the tables
# ---------------------------------------------------------------------------

def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_mulmod(a, b, mod, p):
    """a*b mod (mod, p); mod is monic."""
    r = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(len(out) - 1, r - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(r):
                out[i - r + j] = (out[i - r + j] - c * mod[j]) % p
    return _poly_trim(out[:r] if len(out) > r else out)


def _poly_powmod(a, e, mod, p):
    result = (1,)
    base = a
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


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
    """A concrete model of GF(p^r): modulus, generator, log/exp tables.

    Logically immutable after construction; all operations are pure and
    take/return integer element codes (the trace table is materialized
    lazily, which is an idempotent fill and safe to share under the GIL).
    """

    def __init__(self, pp: PrimePower, seed: int = 0):
        self.pp = pp
        self.seed = seed
        p, r, q = pp.p, pp.r, pp.q
        self.modulus = self._find_modulus(p, r, seed)
        self._build_mul_tables()
        self._add_table = None
        self._neg_table = tuple(self._digit_neg(a) for a in range(q)) \
            if q <= _ADD_TABLE_MAX_Q else None
        if q <= _ADD_TABLE_MAX_Q:
            self._add_table = self._build_add_table()
        self._trace_table: Optional[list] = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def _find_modulus(p, r, seed):
        qr = p ** r
        for i in range(qr):
            m = (seed + i) % qr
            digits = []
            mm = m
            for _ in range(r):
                mm, d = divmod(mm, p)
                digits.append(d)
            cand = tuple(digits) + (1,)
            if _is_irreducible(cand, p):
                return cand
        raise RuntimeError("no irreducible polynomial found (unreachable)")

    def _code_to_vec(self, c):
        p, r = self.pp.p, self.pp.r
        v = []
        for _ in range(r):
            c, d = divmod(c, p)
            v.append(d)
        return tuple(v)

    def _vec_to_code(self, v):
        p = self.pp.p
        c = 0
        for d in reversed(v):
            c = c * p + d
        return c

    def _build_mul_tables(self):
        p, r, q = self.pp.p, self.pp.r, self.pp.q
        if q == 2:
            self.generator = 1
            self.exp_table = [1]
            self.log_table = [-1, 0]
            return
        fac = factorize(q - 1)
        mod = self.modulus

        def raw_mul(a, b):
            return self._vec_to_code(
                _poly_mulmod(self._code_to_vec(a), self._code_to_vec(b), mod, p))

        def raw_pow(a, e):
            result, base = 1, a
            while e:
                if e & 1:
                    result = raw_mul(result, base)
                base = raw_mul(base, base)
                e >>= 1
            return result

        gen = None
        for cand in range(2, q):
            if all(raw_pow(cand, (q - 1) // ell) != 1 for ell in fac):
                gen = cand
                break
        if gen is None:
            raise RuntimeError("no multiplicative generator found (unreachable)")
        self.generator = gen
        exp = [1] * (q - 1)
        for e in range(1, q - 1):
            exp[e] = raw_mul(exp[e - 1], gen)
        log = [-1] * q
        for e, c in enumerate(exp):
            log[c] = e
        if log.count(-1) != 1:
            raise RuntimeError("generator order check failed (unreachable)")
        self.exp_table = exp
        self.log_table = log

    def _digit_neg(self, a):
        p = self.pp.p
        return self._vec_to_code(tuple((-d) % p for d in self._code_to_vec(a)))

    def _digit_add(self, a, b):
        p = self.pp.p
        va, vb = self._code_to_vec(a), self._code_to_vec(b)
        return self._vec_to_code(tuple((x + y) % p for x, y in zip(va, vb)))

    def _build_add_table(self):
        q = self.pp.q
        if self.pp.p == 2:
            return None  # xor path
        t = [0] * (q * q)
        for a in range(q):
            base = a * q
            for b in range(a, q):
                s = self._digit_add(a, b)
                t[base + b] = s
                t[b * q + a] = s
        return t

    # -- arithmetic on codes -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.pp.p == 2:
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a * self.pp.q + b]
        return self._digit_add(a, b)

    def neg(self, a: int) -> int:
        if self.pp.p == 2:
            return a
        if self._neg_table is not None:
            return self._neg_table[a]
        return self._digit_neg(a)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        q1 = self.pp.q - 1
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % q1]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        q1 = self.pp.q - 1
        return self.exp_table[(-self.log_table[a]) % q1]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

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
        """Tr: GF(q) -> GF(p), as an integer in [0, p)."""
        if self._trace_table is None:
            self._trace_table = self._make_trace_table()
        return self._trace_table[a]

    def _make_trace_table(self):
        p, r, q = self.pp.p, self.pp.r, self.pp.q
        t = [0] * q
        for a in range(q):
            s, x = 0, a
            for _ in range(r):
                s = self.add(s, x)
                x = self.pow(x, p)
            if s >= p:
                raise RuntimeError("trace landed outside the prime field")
            t[a] = s
        return t

    # -- iteration and embedding helpers ------------------------------------

    def units(self) -> Iterator[int]:
        return iter(self.exp_table)

    def from_int(self, c: int) -> int:
        """Image of the integer c under Z -> GF(p) -> GF(q)."""
        return c % self.pp.p

    def coeffs(self, code: int) -> tuple:
        return self._code_to_vec(code)

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


# the field models kept alive, each GF(q <= 1024) with a q^2 addition table;
# an evicted model is rebuilt identically
_field = functools.lru_cache(maxsize=32)(FieldCtx)


class FieldExtension:
    """GF(q) -> GF(q^k) with a genuine (additive and multiplicative) embedding.

    The image of the power-basis root of the base modulus is the root of that
    modulus inside the extension with the smallest discrete log; every base
    element embeds by evaluating its coefficient vector there.
    """

    def __init__(self, base: FieldCtx, ext: FieldCtx, k: int):
        self.base = base
        self.ext = ext
        self.k = k
        self.basis_root = self._find_basis_root()
        self._map = {0: 0}

    def _find_basis_root(self):
        base, ext = self.base, self.ext
        if base.pp.r == 1:
            return 0  # unused: coefficient vectors are constants
        qb, qe = base.pp.q, ext.pp.q
        m = (qe - 1) // (qb - 1)
        mod_coeffs = [c % base.pp.p for c in base.modulus]  # prime-field codes
        for j in range(qb - 1):
            cand = ext.gen_pow(m * j)
            if ext.eval_poly(mod_coeffs, cand) == 0:
                return cand
        raise RuntimeError("base modulus has no root in the extension (unreachable)")

    def embed(self, a: int) -> int:
        out = self._map.get(a)
        if out is None:
            out = self.ext.eval_poly(self.base.coeffs(a), self.basis_root)
            self._map[a] = out
        return out


def extend(ctx: FieldCtx, k: int,
           cap: int = DEFAULT_CAPS.field_table_max_q) -> FieldExtension:
    """Field context for GF(q^k) plus the canonical embedding of GF(q);
    cached per (base model object, k)."""
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if ctx.pp.q ** k > cap:
        raise FieldTooLarge(ctx.pp.q ** k, cap)
    return _extension(ctx, k)


@functools.lru_cache(maxsize=32)
def _extension(ctx: FieldCtx, k: int) -> FieldExtension:
    # `extend` has checked the cap
    ext = build_field(ctx.pp.p, ctx.pp.r * k, ctx.seed, cap=ctx.pp.q ** k)
    return FieldExtension(ctx, ext, k)
