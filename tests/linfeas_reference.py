"""The textbook phase-1 simplex on `Fraction`s, kept as the reference.

`wregret.linfeas.solve_nonneg` pivots on integers over one common
denominator.  This solver normalizes the pivot row and eliminates with
`Fraction` arithmetic instead, with the same Bland entering rule and the same
ratio test, so the two must return identical certificates (or both `None`) on
every input.  `in_downward_convex_hull` decides hull membership by this
simplex alone, with none of the library's integer certificates.  It shares no
code with the library.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_nonneg(a_eq: Sequence[Sequence[Fraction]], b_eq: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b, or return None if the system is infeasible.

    Phase-1 simplex: one artificial variable per row, minimize their sum.
    Bland's rule guarantees termination.
    """
    m = len(b_eq)
    if m == 0:
        return []
    n = len(a_eq[0]) if a_eq else 0
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(m):
        row = [Fraction(v) for v in a_eq[i]]
        b = Fraction(b_eq[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        rows.append(row)
        rhs.append(b)

    # tableau columns: n structural + m artificial + 1 rhs
    width = n + m
    tableau = []
    for i in range(m):
        art = [ONE if j == i else ZERO for j in range(m)]
        tableau.append(rows[i] + art + [rhs[i]])
    basis = [n + i for i in range(m)]

    # objective: minimize sum of artificials == maximize -(sum).  Reduced
    # costs start as the column sums of the constraint rows (artificial
    # columns net to zero).
    obj = [ZERO] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            obj[j] += tableau[i][j]
    for i in range(m):
        obj[n + i] -= ONE

    while True:
        enter = -1
        for j in range(width):  # Bland: smallest eligible index
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][width] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return None
        pivot = tableau[leave][enter]
        tableau[leave] = [v / pivot for v in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                factor = tableau[i][enter]
                tableau[i] = [v - factor * w for v, w in zip(tableau[i], tableau[leave])]
        if obj[enter] != 0:
            factor = obj[enter]
            obj = [v - factor * w for v, w in zip(obj, tableau[leave])]
        basis[leave] = enter

    if obj[width] != 0:
        return None
    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][width]
        elif tableau[i][width] != 0:
            # artificial stuck in basis at a positive level
            return None
    return x


def hull_system(point: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]):
    """(A, b) of the membership LP: variables lambda_1..k then slack_1..dims,
    one row sum_i lambda_i g_i[d] - slack_d = point[d] per dimension d, and
    a last row sum_i lambda_i = 1."""
    k, dims = len(generators), len(point)
    a = [[g[d] for g in generators] + [-ONE if j == d else ZERO for j in range(dims)] for d in range(dims)]
    a.append([ONE] * k + [ZERO] * dims)
    return a, [*point, ONE]


def in_downward_convex_hull(point: Sequence[Fraction], generators: Sequence[Sequence[Fraction]]) -> bool:
    """Is `point` below some convex combination of `generators`?  Decided by
    the reference simplex alone."""
    return solve_nonneg(*hull_system(point, generators)) is not None
