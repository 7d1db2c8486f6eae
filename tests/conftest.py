"""Helpers shared by the test modules."""
import itertools

import pytest

from dworkzeta import counting, family, padic
from dworkzeta.oracles import TowerElem, enumerate_solutions
from dworkzeta.padic import GaussSource, TowerCtx, build_tower


def gauss_elems(T):
    """The Gauss table of the tower T, each G(k) lifted to the oracle
    ring."""
    return [TowerElem.from_zp(T, G) for G in T.gauss_table()]


def each_solution(matrix, q, lam_zero=False):
    """Every solution k of matrix*k = 0 mod (q-1), as pairs (k, s(k)): each
    class `enumerate_solutions` yields with base_q = q (every residue class,
    no Frobenius orbit merged), expanded into the distinct reorderings of
    its block (the first len(matrix) - 1 coordinates), after checking that
    their number is the class size."""
    nb = len(matrix) - 1
    for k, s, count in enumerate_solutions(matrix, q, lam_zero, q):
        blocks = sorted(set(itertools.permutations(k[:nb])))
        assert len(blocks) == count, (k, count)
        for block in blocks:
            yield block + k[nb:], s


def _solution_class(k, s, n, q) -> str:
    """zero | diagonal | admissible | trivial | other, for a solution vector
    k of the M matrix with s = s(k) over GF(q).

    Admissibility (s(k) = n+2, head coordinates not all equal) takes
    precedence over the boundary label: the ord_q >= 2 bound must cover
    boundary-mixed vectors like (0, q-1, ..., q-1)."""
    if all(ki == 0 for ki in k):
        return "zero"
    head = k[: n + 1]
    if 0 < head[0] < q - 1 and all(ki == head[0] for ki in head):
        return "diagonal"
    if s == n + 2 and any(ki != head[0] for ki in head):
        return "admissible"
    if all(ki in (0, q - 1) for ki in k):
        return "trivial"
    return "other"


@pytest.fixture
def solution_class():
    return _solution_class


def _hd_sign_dropped(monkeypatch):
    """Hasse-Davenport lift without its sign (-1)^{m-1}: every interior
    G(k) over GF(q^m) is negated at even m."""
    real = TowerCtx.gauss_sums

    def gauss_sums(self, ks, m=1):
        ks = list(ks)
        out = real(self, ks, m)
        if m % 2:
            return out
        ends = (0, self.q ** m - 1)
        return [G if k in ends else tuple(-x % self.pN for x in G)
                for k, G in zip(ks, out)]

    monkeypatch.setattr(TowerCtx, "gauss_sums", gauss_sums)


def _ends_swapped(monkeypatch):
    """The boundary values swapped: G(0) reads G(Q-1) = -Q and G(Q-1)
    reads G(0) = Q-1."""
    real = TowerCtx.gauss_sums

    def gauss_sums(self, ks, m=1):
        Q1 = self.q ** m - 1
        swap = {0: Q1, Q1: 0}
        return real(self, [swap.get(k, k) for k in ks], m)

    monkeypatch.setattr(TowerCtx, "gauss_sums", gauss_sums)


def _twist_inverted(monkeypatch):
    """The fiber twist chi(lam)^c read as chi(lam)^{-c}: teich_pows()[j]
    returns the value at -j mod (q-1)."""
    real = TowerCtx.teich_pows

    def teich_pows(self):
        tp = real(self)
        return [tp[-j % len(tp)] for j in range(len(tp))]

    monkeypatch.setattr(TowerCtx, "teich_pows", teich_pows)


def _orbit_weight_dropped(monkeypatch):
    """Every orbit leader of the family pass weighted 1: X's and Y's
    terms both lose their orbit lengths."""
    real = family._orbit_leaders

    def orbit_leaders(*args):
        return ((a, 1) for a, _ in real(*args))

    monkeypatch.setattr(family, "_orbit_leaders", orbit_leaders)


def _fold_inputs_changed(monkeypatch, change):
    """The Gauss source's fold reads change(full, short, omega) in place of
    its fold inputs."""
    real = GaussSource._fold_inputs.func
    monkeypatch.setattr(GaussSource, "_fold_inputs",
                        property(lambda source: change(source, *real(source))))


def _omega_sign_flipped(monkeypatch):
    """The fold's acc[m] = teich(m)^c acc[1] in place of teich(m)^{-c}:
    each omega[m] read at its inverse."""
    _fold_inputs_changed(monkeypatch, lambda source, full, short, omega: (
        full, short, [-w % (source.tower.q - 1) for w in omega]))


def _short_orbits_dropped(monkeypatch):
    """The fold's acc[1] without the members of the short Frobenius
    orbits, the trace-1 elements of proper subfields."""
    _fold_inputs_changed(monkeypatch, lambda source, full, short, omega: (
        full, [], omega))


def _pure_sign_flipped(monkeypatch):
    """The Gauss source's closed form negated: every pure G_q(c) reads
    -eps p^{r/2}."""
    real = GaussSource._pure

    def pure(source, c):
        G = real(source, c)
        return G and tuple(-x % source.tower.pN for x in G)

    monkeypatch.setattr(GaussSource, "_pure", pure)


FAULTS = {"hd_sign": _hd_sign_dropped, "twist": _twist_inverted,
          "orbit_weight": _orbit_weight_dropped, "ends_swapped": _ends_swapped,
          "omega_sign": _omega_sign_flipped,
          "short_orbits": _short_orbits_dropped,
          "pure_sign": _pure_sign_flipped}


@pytest.fixture
def fault(monkeypatch):
    """install(name) puts the named one-line fault of FAULTS into the
    counting path.  The family-pass, tower and Gauss-source caches are
    emptied when it goes in and again at teardown, so no result computed on
    either side of the fault reaches the other."""
    def clear():
        counting._family_sums.cache_clear()
        build_tower.cache_clear()
        padic._sources.cache_clear()

    def install(name):
        clear()
        FAULTS[name](monkeypatch)

    yield install
    monkeypatch.undo()
    clear()
