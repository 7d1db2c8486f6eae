"""Helpers shared by the test modules."""
import itertools

import pytest

from dworkzeta.oracles import TowerElem, enumerate_solutions


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
