"""Helpers shared by the test modules."""
import pytest


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
