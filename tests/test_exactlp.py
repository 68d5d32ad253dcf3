"""The exact LP against an independent oracle.

The oracle is plain Fraction Gaussian elimination written here: it ranks
matrices and enumerates the vertices of {x >= 0 : constraints} by solving
every square subsystem of the constraint and coordinate hyperplanes.  The
feasible set lies in x >= 0, so it is pointed: it is non-empty exactly
when it has a vertex.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafpower import exactlp

RELS = (exactlp.GE, exactlp.LE, exactlp.EQ)


def oracle_rank(rows):
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / mat[rank][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def oracle_solve(rows, rhs):
    """The unique solution of a square system, or None when it is singular."""
    n = len(rows)
    mat = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        mat[col] = [v / mat[col][col] for v in mat[col]]
        for i in range(n):
            if i != col and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return [row[-1] for row in mat]


def dense(coeffs, num_vars):
    return [Fraction(coeffs.get(i, 0)) for i in range(num_vars)]


def satisfies(point, constraints):
    if any(x < 0 for x in point):
        return False
    for coeffs, rel, rhs in constraints:
        value = sum(Fraction(c) * point[i] for i, c in coeffs.items())
        if rel == exactlp.GE and not value >= rhs:
            return False
        if rel == exactlp.LE and not value <= rhs:
            return False
        if rel == exactlp.EQ and value != rhs:
            return False
    return True


def oracle_vertices(num_vars, constraints):
    planes = [(dense(coeffs, num_vars), Fraction(rhs)) for coeffs, _, rhs in constraints]
    planes += [([Fraction(int(i == j)) for j in range(num_vars)], Fraction(0)) for i in range(num_vars)]
    vertices = set()
    for chosen in itertools.combinations(planes, num_vars):
        point = oracle_solve([p for p, _ in chosen], [b for _, b in chosen])
        if point is not None and satisfies(point, constraints):
            vertices.add(tuple(point))
    return vertices


def tight_rank(point, constraints):
    """Rank of the rows tight at ``point``: equalities, constraints met with
    equality, and the coordinates that are zero."""
    num_vars = len(point)
    rows = []
    for coeffs, _, rhs in constraints:
        row = dense(coeffs, num_vars)
        if sum(c * x for c, x in zip(row, point)) == rhs:
            rows.append(row)
    rows += [[int(i == j) for j in range(num_vars)] for i, x in enumerate(point) if x == 0]
    return oracle_rank(rows) if rows else 0


rationals = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 5, 6))),
)


@st.composite
def systems(draw):
    num_vars = draw(st.integers(1, 3))
    constraints = []
    for _ in range(draw(st.integers(0, 5))):
        support = draw(st.lists(st.integers(0, num_vars - 1), min_size=1, unique=True))
        coeffs = {i: draw(rationals) for i in support}
        constraints.append((coeffs, draw(st.sampled_from(RELS)), draw(rationals)))
    return num_vars, constraints


@settings(max_examples=400, deadline=None)
@given(systems())
def test_feasible_point_matches_vertex_enumeration(system):
    num_vars, constraints = system
    point = exactlp.find_feasible_point(num_vars, constraints)
    vertices = oracle_vertices(num_vars, constraints)
    if point is None:
        assert not vertices
        return
    assert len(point) == num_vars
    assert all(isinstance(x, Fraction) for x in point)
    assert satisfies(point, constraints)
    assert tight_rank(point, constraints) == num_vars
    assert tuple(point) in vertices


@st.composite
def matrices(draw):
    """Rows that are independent draws or combinations of earlier rows, so
    that rank deficiency is common."""
    n_cols = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.booleans()):
            weights = [draw(rationals) for _ in rows]
            rows.append([sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n_cols)])
        else:
            rows.append([draw(rationals) for _ in range(n_cols)])
    return rows


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_rational_rank_matches_oracle(rows):
    assert exactlp.rational_rank(rows) == oracle_rank(rows)


def test_small_cases():
    x_ge_2 = ({0: 1}, exactlp.GE, 2)
    assert exactlp.find_feasible_point(1, [x_ge_2, ({0: 1}, exactlp.LE, 1)]) is None
    assert exactlp.find_feasible_point(1, [x_ge_2]) == [Fraction(2)]
    # negative rhs: -x/2 - y = -3/2 with x, y >= 0
    point = exactlp.find_feasible_point(
        2, [({0: Fraction(-1, 2), 1: -1}, exactlp.EQ, Fraction(-3, 2))]
    )
    assert point in ([Fraction(3), Fraction(0)], [Fraction(0), Fraction(3, 2)])
    assert exactlp.find_feasible_point(2, []) == [Fraction(0), Fraction(0)]
    assert exactlp.rational_rank([]) == 0
    assert exactlp.rational_rank([[0, 0], [0, 0]]) == 0
    assert exactlp.rational_rank([[Fraction(1, 3), 2], [1, 6]]) == 1


@pytest.mark.parametrize("num_vars", [2, 3])
def test_degenerate_ties_return_a_vertex(num_vars):
    # many constraints tight at the same vertex exercise the ratio-test tie-break
    constraints = [({i: 1}, exactlp.GE, 1) for i in range(num_vars)]
    constraints += [({i: 1 for i in range(num_vars)}, exactlp.GE, num_vars)] * 3
    constraints += [({i: 1 for i in range(num_vars)}, exactlp.LE, num_vars)]
    point = exactlp.find_feasible_point(num_vars, constraints)
    assert point == [Fraction(1)] * num_vars
    assert tight_rank(point, constraints) == num_vars
