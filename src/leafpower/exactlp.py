"""Exact rational linear feasibility.

A small dense two-phase simplex (phase one only) over exact rationals.
Used for: certificate integerization, generalized-leaf-power recognition,
and triangle-order realizability.  All strict inequalities in callers are
pre-encoded as margin-1 constraints (``a < b`` becomes ``b - a >= 1``),
which loses no solutions because every system here is scale-invariant.

Python ints are used internally (fraction-free pivoting on integer rows);
the public API speaks Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InternalError

GE = ">="
LE = "<="
EQ = "=="

_FLIP = {GE: LE, LE: GE, EQ: EQ}


def _integer_row(values: Sequence) -> tuple[list[int], int]:
    """Ints or Fractions scaled by the lcm ``d`` of their denominators;
    returns the integer row and ``d``."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def find_feasible_point(
    num_vars: int,
    constraints: Sequence[tuple[Mapping[int, object], str, object]],
) -> list[Fraction] | None:
    """Find any point with x >= 0 satisfying all constraints, or None.

    Each constraint is ``(coeffs, rel, rhs)`` with ``coeffs`` a sparse map
    from variable index to coefficient and ``rel`` one of ``>=``, ``<=``,
    ``==``; coefficients and rhs are ints or Fractions.  The returned point
    is a basic feasible solution (a vertex of the polyhedron).

    Each tableau row is held as integers: ``s_i`` times the rational row,
    with ``s_i > 0`` the entry in the row's basic column.  The objective
    row is a positive multiple of the rational one.  Ratios ``rhs_i / a_i``
    do not depend on ``s_i``, so the Dantzig choice, the ratio-test
    tie-break and hence the pivot path are those of the rational simplex.
    """
    rows = []
    for coeffs, rel, rhs in constraints:
        dense = [0] * num_vars
        for idx, c in coeffs.items():
            dense[idx] = c
        dense.append(rhs)
        values, scale = _integer_row(dense)
        if values[-1] < 0:
            values = [-v for v in values]
            rel = _FLIP[rel]
        rows.append((values, rel, scale))

    n_slack = sum(1 for _, rel, _ in rows if rel != EQ)
    n_art = sum(1 for _, rel, _ in rows if rel != LE)
    width = num_vars + n_slack + n_art + 1  # trailing column is the rhs

    tableau = []
    basis = []
    art_rows = []  # (row, scale) of the rows with an artificial basic column
    slack_at = num_vars
    art_at = art_start = num_vars + n_slack
    for values, rel, scale in rows:
        row = values[:-1] + [0] * (n_slack + n_art) + values[-1:]
        if rel == LE:
            row[slack_at] = scale
            basis.append(slack_at)
            slack_at += 1
        else:
            if rel == GE:
                row[slack_at] = -scale
                slack_at += 1
            row[art_at] = scale
            basis.append(art_at)
            art_at += 1
            art_rows.append((row, scale))
        tableau.append(row)

    if not art_rows:
        # every row had a slack basis; the all-zero point may still violate
        # nothing (all rhs >= 0 and rel <=), so it is feasible.
        return [Fraction(0)] * num_vars

    # phase-1 objective row: the sum of the rational artificial rows, times
    # the lcm of their scales
    common = math.lcm(*(scale for _, scale in art_rows))
    obj = [0] * width
    for row, scale in art_rows:
        k = common // scale
        for j, v in enumerate(row):
            if v:
                obj[j] += k * v
    for col in range(art_start, width - 1):
        obj[col] = 0

    m = len(tableau)
    n_cols = width - 1
    enterable = range(art_start)
    iterations = 0
    bland_after = 50 * (m + n_cols)
    while True:
        iterations += 1
        pivot_col = -1
        if iterations <= bland_after:
            best = 0
            for j in enterable:
                v = obj[j]
                if v > best:
                    best = v
                    pivot_col = j
        else:  # Bland's rule to guarantee termination
            for j in enterable:
                if obj[j] > 0:
                    pivot_col = j
                    break
        if pivot_col < 0:
            break
        pivot_row = -1
        best_a = best_b = 0
        for i, row in enumerate(tableau):
            a = row[pivot_col]
            if a > 0:
                b = row[-1]
                # b / a < best_b / best_a, cross-multiplied (both a > 0)
                if pivot_row < 0 or b * best_a < best_b * a or (
                    b * best_a == best_b * a and basis[i] < basis[pivot_row]
                ):
                    best_a, best_b = a, b
                    pivot_row = i
        if pivot_row < 0:
            # the phase-1 objective is bounded below by 0, so an improving
            # column always has a positive entry
            raise InternalError("exact LP: unbounded phase-1 column")
        obj = _pivot(tableau, obj, basis, pivot_row, pivot_col)

    if obj[-1] > 0:
        return None
    solution = [Fraction(0)] * num_vars
    for row, b in zip(tableau, basis):
        if b < num_vars:
            solution[b] = Fraction(row[-1], row[b])
    return solution


def _pivot(tableau, obj, basis, pivot_row, pivot_col):
    """Eliminate ``pivot_col`` from every row but ``pivot_row`` and from the
    objective, which is returned."""
    prow = tableau[pivot_row]
    p = prow[pivot_col]
    nonzero = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(tableau):
        f = row[pivot_col]
        if f and i != pivot_row:
            tableau[i] = _eliminate(row, p, f, nonzero)
    f = obj[pivot_col]
    if f:
        obj = _eliminate(obj, p, f, nonzero)
    basis[pivot_row] = pivot_col
    return obj


def _eliminate(row, p, f, nonzero):
    """``p * row - f * pivot_row``, given the pivot row's ``nonzero``
    entries, divided by a positive factor that keeps the ints small; the
    multiplier of ``row`` has the sign of ``p``.  May update ``row`` in
    place."""
    g = math.gcd(p, f)
    if g > 1:
        p //= g
        f //= g
    if p == 1:  # no growth: plain row operation
        for j, v in nonzero:
            row[j] -= f * v
        return row
    row = [p * v for v in row]
    for j, v in nonzero:
        row[j] -= f * v
    g = math.gcd(*row)
    if g > 1:
        row = [v // g for v in row]
    return row


def rational_rank(rows: Sequence[Sequence[object]]) -> int:
    """Rank of a rational matrix (ints or Fractions) by fraction-free
    Gaussian elimination."""
    mat = [_integer_row(row)[0] for row in rows]
    rank = 0
    n_cols = max((len(r) for r in mat), default=0)
    for col in range(n_cols):
        if rank == len(mat):
            break
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        nonzero = [(j, v) for j, v in enumerate(prow) if v]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col]
            if f:
                mat[i] = _eliminate(mat[i], prow[col], f, nonzero)
        rank += 1
    return rank
