"""Newton polygons, slope zeta functions, Hodge data.

Slopes are always measured in ord_q units (ord_q(q) = 1), so the Newton
polygon of a numerator over GF(p^r) uses heights v_p(coefficient)/r.  The
slope zeta function is kept as a signed multiset {slope: multiplicity},
multiplicity > 0 meaning factors (1 - u^s T) upstairs; equal slopes of
opposite sign cancel on construction, which is exactly the reduced form.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .errors import DimensionMismatch
from .padic import vp
from .zeta import IntPoly, ZetaData


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------

class NewtonPolygon(namedtuple("NewtonPolygon", ("vertices",))):
    """Lower convex hull of (i, ord_q(c_i)); vertices with Fraction heights."""

    __slots__ = ()

    @property
    def segments(self) -> tuple:
        """((slope, horizontal length), ...) with strictly increasing slopes."""
        out = []
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            out.append((Fraction(y1 - y0, x1 - x0), x1 - x0))
        return tuple(out)

    @property
    def total_length(self) -> int:
        return self.vertices[-1][0] - self.vertices[0][0]

    def height_at(self, x) -> Fraction:
        xs = [v[0] for v in self.vertices]
        if not xs[0] <= x <= xs[-1]:
            raise ValueError(f"x = {x} outside the polygon support")
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            if x0 <= x <= x1:
                return Fraction(y0) + Fraction(y1 - y0, x1 - x0) * (x - x0)
        return Fraction(self.vertices[-1][1])


def _lower_hull(points) -> tuple:
    """Monotone-chain lower hull; points sorted by x, heights exact."""
    hull = []
    for x, y in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # drop the middle point unless it turns strictly upward
            if (y1 - y0) * (x - x0) >= (y - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return tuple(hull)


def newton_polygon(P: IntPoly, p: int, r: int) -> NewtonPolygon:
    pts = [(i, Fraction(vp(c, p), r)) for i, c in enumerate(P.coeffs) if c]
    return NewtonPolygon(_lower_hull(pts))


def hodge_polygon(row: Sequence) -> NewtonPolygon:
    """Polygon with slope j of multiplicity m for every (j, m) in `row`."""
    verts = [(0, Fraction(0))]
    x, y = 0, Fraction(0)
    for j, m in sorted(row):
        if m < 0:
            raise ValueError("Hodge multiplicities must be nonnegative")
        if m == 0:
            continue
        x += m
        y += Fraction(j) * m
        verts.append((x, y))
    return NewtonPolygon(tuple(verts))


def ordinarity_test(np_: NewtonPolygon, row: Sequence) -> bool:
    """True iff the Newton polygon equals the Hodge polygon of `row`."""
    hp = hodge_polygon(row)
    if np_.total_length != hp.total_length:
        raise DimensionMismatch(
            f"polygon length {np_.total_length} != Hodge length {hp.total_length}")
    return np_.vertices == hp.vertices


def newton_above_hodge(np_: NewtonPolygon, row: Sequence) -> bool:
    """The Newton polygon never dips below the Hodge polygon."""
    hp = hodge_polygon(row)
    if np_.total_length != hp.total_length:
        raise DimensionMismatch(
            f"polygon length {np_.total_length} != Hodge length {hp.total_length}")
    return all(np_.height_at(x) >= hp.height_at(x)
               for x in range(np_.total_length + 1))


# ---------------------------------------------------------------------------
# slope zeta functions
# ---------------------------------------------------------------------------

class SlopeZeta:
    """Signed multiset of slopes: prod_s (1 - u^s T)^{m_s} in reduced form."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        for s, m in (terms or {}).items():
            if m:
                t[Fraction(s)] = t.get(Fraction(s), 0) + m
        self.terms = {s: m for s, m in t.items() if m}

    def __mul__(self, other: "SlopeZeta") -> "SlopeZeta":
        t = dict(self.terms)
        for s, m in other.terms.items():
            t[s] = t.get(s, 0) + m
        return SlopeZeta(t)

    def __pow__(self, e: int) -> "SlopeZeta":
        return SlopeZeta({s: m * e for s, m in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, SlopeZeta):
            return self.terms == other.terms
        return NotImplemented

    @property
    def is_one(self) -> bool:
        return not self.terms

    @property
    def total_multiplicity(self) -> int:
        """sum m_s; equals -e(X) for the slope zeta of a variety."""
        return sum(self.terms.values())

    def to_json_dict(self) -> dict:
        return {f"{s.numerator}/{s.denominator}": m
                for s, m in sorted(self.terms.items())}

    def render(self) -> str:
        """Human-readable product form, e.g. (1-T)^-2 (1-uT)^-20 (1-u^2T)^-2."""
        if not self.terms:
            return "1"
        parts = []
        for s, m in sorted(self.terms.items()):
            if s == 0:
                base = "(1-T)"
            elif s == 1:
                base = "(1-uT)"
            elif s.denominator == 1:
                base = f"(1-u^{s.numerator}T)"
            else:
                base = f"(1-u^({s.numerator}/{s.denominator})T)"
            parts.append(base if m == 1 else f"{base}^{m}")
        return " ".join(parts)

    def __repr__(self):
        return f"SlopeZeta({self.render()})"


def slope_zeta(z: ZetaData) -> SlopeZeta:
    """Slope zeta of a factored zeta function: numerator slopes from its
    Newton polygon (signed by the numerator exponent) plus trivial factors."""
    terms: dict = {}
    if z.numerator.degree > 0:
        for s, ln in newton_polygon(z.numerator, z.p, z.r).segments:
            terms[s] = terms.get(s, 0) + z.numerator_exponent * ln
    for i, e in z.trivial:
        s = Fraction(i)
        terms[s] = terms.get(s, 0) + e
    return SlopeZeta(terms)


def slope_fe_check(S: SlopeZeta, d: int, e: int | None = None) -> bool:
    """Multiset form of S_p(X, u, 1/(u^d T)) = S_p(X, u, T) (-u^{d/2} T)^{e}:
    slopes symmetric under s -> d - s, the weighted sum sits at d/2 of the
    total, and e (when given) matches -sum m_s."""
    t = S.terms
    if any(t.get(Fraction(d) - s, 0) != m for s, m in t.items()):
        return False
    weighted = sum(s * m for s, m in t.items())
    total = S.total_multiplicity
    if weighted * 2 != Fraction(d) * total:
        return False
    if e is not None and total != -e:
        return False
    return True


# ---------------------------------------------------------------------------
# Hodge data for the pencil
# ---------------------------------------------------------------------------

class HodgeData(namedtuple("HodgeData", ("d", "h"))):
    """The (d+1) x (d+1) Hodge numbers h of a variety of dimension d."""

    __slots__ = ()

    def __new__(cls, d: int, h: tuple):
        for i in range(d + 1):
            for j in range(d + 1):
                if h[i][j] != h[j][i]:
                    raise ValueError("Hodge numbers must be symmetric")
        return super().__new__(cls, d, h)

    @property
    def euler(self) -> int:
        return sum((-1) ** (i + j) * self.h[i][j]
                   for i in range(self.d + 1) for j in range(self.d + 1))

    def e_j(self, j: int) -> int:
        # (-1)^(i+1) to keep the arithmetic in int: (-1)**(i-1) at i = 0
        # would be a float in Python
        return (-1) ** j * sum(
            (-1) ** (i + 1) * self.h[j][i] for i in range(self.d + 1))

    @property
    def e_vector(self) -> tuple:
        return tuple(self.e_j(j) for j in range(self.d + 1))

    def middle_row(self, primitive: bool = False) -> tuple:
        """[(j, h^{j, d-j})] with the hyperplane class removed if primitive."""
        out = []
        for j in range(self.d + 1):
            m = self.h[j][self.d - j]
            if primitive and self.d % 2 == 0 and j == self.d // 2:
                m -= 1
            if m:
                out.append((j, m))
        return tuple(out)


def _middle_primitive_counts(n: int) -> list:
    """Primitive middle Hodge numbers of a degree-(n+1) hypersurface in P^n:
    h^{j, d-j}_prim counts integer tuples a in [1, n]^{n+1} with
    sum a_i = (n+1)(j+1)."""
    m = n + 1
    nvars = n + 1
    # dp over the number of variables; values in [1, m-1]
    dp = {0: 1}
    for _ in range(nvars):
        nxt = {}
        for total, ways in dp.items():
            for a in range(1, m):
                nxt[total + a] = nxt.get(total + a, 0) + ways
        dp = nxt
    return [dp.get(m * (j + 1), 0) for j in range(n)]


def hodge_numbers_dwork(n: int) -> HodgeData:
    """Hodge diamond of a smooth degree-(n+1) hypersurface in P^n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    d = n - 1
    h = [[0] * (d + 1) for _ in range(d + 1)]
    for i in range(d + 1):
        h[i][i] += 1  # powers of the hyperplane class
    prim = _middle_primitive_counts(n)
    for j in range(d + 1):
        h[j][d - j] += prim[j]
    return HodgeData(d=d, h=tuple(tuple(row) for row in h))


def ordinary_slope_zeta(hd: HodgeData) -> SlopeZeta:
    """S_p for an ordinary variety: prod_j (1 - u^j T)^{e_j}."""
    return SlopeZeta({Fraction(j): hd.e_j(j) for j in range(hd.d + 1)})

