"""Exact rational linear feasibility.

A sparse phase-one simplex over exact rationals.  Used for: certificate
integerization, generalized-leaf-power recognition, and triangle-order
realizability.  All strict inequalities in callers are pre-encoded as
margin-1 constraints (``a < b`` becomes ``b - a >= 1``), which loses no
solutions because every system here is scale-invariant.

Python ints are used internally (fraction-free pivoting on integer rows,
each a dict of its nonzero entries); the public API speaks Fraction.
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
_RHS = -1  # the key of a tableau row's right-hand side


def _integer_row(entries: Mapping) -> tuple[dict, int]:
    """Ints or Fractions scaled by the lcm ``d`` of their denominators;
    returns the nonzero entries as ints, under the same keys, and ``d``."""
    try:
        scale = math.lcm(*(v.denominator for v in entries.values()))
    except AttributeError:
        bad = next(v for v in entries.values() if not hasattr(v, "denominator"))
        raise TypeError(f"exact LP: value {bad!r} is neither an int nor a Fraction") from None
    return {j: v.numerator * (scale // v.denominator) for j, v in entries.items() if v}, scale


def find_feasible_point(
    num_vars: int,
    constraints: Sequence[tuple[Mapping[int, object], str, object]],
) -> list[Fraction] | None:
    """Find any point with x >= 0 satisfying all constraints, or None.

    Each constraint is ``(coeffs, rel, rhs)``: ``coeffs`` maps variable
    indices ``0 <= i < num_vars`` to coefficients, ``rel`` is ``>=``, ``<=``
    or ``==``, and coefficients and rhs are ints or Fractions.  Another
    index or relation raises ValueError, a float TypeError.  The point
    returned is a basic feasible solution (a vertex of the polyhedron).

    Columns are the variables, one slack per inequality and one artificial
    per row that is not ``<=`` once its rhs is nonnegative.  A tableau row
    is a dict of its nonzero ints, the rhs under key ``-1``: ``s_i > 0``
    times the rational row.  The objective row is a positive multiple of
    the rational one.  Artificial columns are never entered and their
    entries never read, so they are not stored; ``basis`` keeps their
    indices for the ratio-test tie-break.  Neither the ratios
    ``rhs_i / a_i`` nor the objective's argmax depend on the multiples, so
    a row's gcd may be taken over its stored entries only, and the Dantzig
    choice (the lowest column among the largest entries), the ratio test
    with its tie-break on the lowest basic column, Bland's rule from
    iteration ``50 * (rows + columns)`` (artificials counted), hence the
    pivot path and the vertex, are those of the dense rational simplex.
    """
    n_slack = sum(1 for _, rel, _ in constraints if rel != EQ)
    tableau = []
    basis = []
    art_rows = []  # (row, scale) of the rows with an artificial basic column
    slack_at = num_vars
    art_at = num_vars + n_slack
    for coeffs, rel, rhs in constraints:
        if rel not in _FLIP:
            raise ValueError(f"exact LP: unknown relation {rel!r}")
        if coeffs and not (0 <= min(coeffs) and max(coeffs) < num_vars):
            bad = next(i for i in coeffs if not 0 <= i < num_vars)
            raise ValueError(f"exact LP: variable index {bad!r} outside 0..{num_vars - 1}")
        row, scale = _integer_row({**coeffs, _RHS: rhs})
        if row.get(_RHS, 0) < 0:
            row = {j: -v for j, v in row.items()}
            rel = _FLIP[rel]
        if rel == LE:
            row[slack_at] = scale
            basis.append(slack_at)
            slack_at += 1
        else:
            if rel == GE:
                row[slack_at] = -scale
                slack_at += 1
            basis.append(art_at)
            art_at += 1
            art_rows.append((row, scale))
        tableau.append(row)

    # phase-1 objective row: the sum of the rational artificial rows, times
    # the lcm of their scales
    common = math.lcm(*(scale for _, scale in art_rows))
    obj = {}
    for row, scale in art_rows:
        k = common // scale
        for j, v in row.items():
            obj[j] = obj.get(j, 0) + k * v
    obj = {j: v for j, v in obj.items() if v}

    iterations = 0
    bland_after = 50 * (len(tableau) + art_at)
    while True:
        iterations += 1
        pivot_col = -1
        if iterations <= bland_after:
            best = 0
            for j, v in obj.items():
                if j >= 0 and (v > best or v == best and j < pivot_col):
                    best = v
                    pivot_col = j
        else:  # Bland's rule to guarantee termination
            pivot_col = min((j for j, v in obj.items() if j >= 0 and v > 0), default=-1)
        if pivot_col < 0:
            break
        column = [(i, a) for i, row in enumerate(tableau) if (a := row.get(pivot_col))]
        pivot_row = -1
        best_a = best_b = 0
        for i, a in column:
            if a > 0:
                b = tableau[i].get(_RHS, 0)
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
        obj = _pivot(tableau, obj, basis, pivot_row, pivot_col, column)

    if obj.get(_RHS, 0) > 0:
        return None
    solution = [Fraction(0)] * num_vars
    for row, b in zip(tableau, basis):
        if b < num_vars:
            solution[b] = Fraction(row.get(_RHS, 0), row[b])
    return solution


def _pivot(tableau, obj, basis, pivot_row, pivot_col, column):
    """Eliminate ``pivot_col`` from every row but ``pivot_row`` and from the
    objective, which is returned; ``column`` lists the rows' nonzero
    entries in ``pivot_col`` as ``(row index, entry)``."""
    prow = tableau[pivot_row]
    p = prow[pivot_col]
    nonzero = list(prow.items())
    for i, f in column:
        if i != pivot_row:
            tableau[i] = _eliminate(tableau[i], p, f, nonzero)
    f = obj.get(pivot_col)
    if f:
        obj = _eliminate(obj, p, f, nonzero)
    basis[pivot_row] = pivot_col
    return obj


def _eliminate(row, p, f, nonzero):
    """``p * row - f * pivot_row`` on sparse rows, given the pivot row's
    ``nonzero`` entries, divided by a positive factor that keeps the ints
    small; the multiplier of ``row`` has the sign of ``p``.  May update
    ``row`` in place."""
    g = math.gcd(p, f)
    if g > 1:
        p //= g
        f //= g
    if p != 1:
        row = {j: p * v for j, v in row.items()}
    for j, v in nonzero:
        w = row.get(j, 0) - f * v
        if w:
            row[j] = w
        else:  # f * v != 0, so a zero result had a stored entry
            del row[j]
    if p != 1:
        g = math.gcd(*row.values())
        if g > 1:
            row = {j: v // g for j, v in row.items()}
    return row


def rational_rank(rows: Sequence[Sequence[object]]) -> int:
    """Rank of a rational matrix (ints or Fractions) by fraction-free
    Gaussian elimination."""
    mat = [_integer_row(dict(enumerate(row)))[0] for row in rows]
    rank = 0
    n_cols = max((len(r) for r in rows), default=0)
    for col in range(n_cols):
        if rank == len(mat):
            break
        pivot = next((i for i in range(rank, len(mat)) if col in mat[i]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        nonzero = list(prow.items())
        for i in range(rank + 1, len(mat)):
            f = mat[i].get(col)
            if f:
                mat[i] = _eliminate(mat[i], prow[col], f, nonzero)
        rank += 1
    return rank
