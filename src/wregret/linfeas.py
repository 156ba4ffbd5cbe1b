"""Exact linear feasibility over the rationals.

Small dense systems only (state spaces up to about a dozen states), solved by
a textbook phase-1 simplex with Bland's rule.  The simplex is fraction-free
(integer pivoting, Edmonds 1967; Bareiss 1968): `rational.as_integers` puts
the system over one common denominator, the tableau is kept as integers
over one running divisor, and a `Fraction` is built only for an entry of a
returned certificate.  The solver returns a certificate vector when the
system is feasible, which the tests verify independently.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from operator import gt, mul
from typing import Optional, Sequence

from .errors import DimensionMismatch
from .rational import Rational, as_integers

ZERO = Fraction(0)


def solve_nonneg(a_eq: Sequence[Sequence[Rational]], b_eq: Sequence[Rational]) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b, or return None if the system is infeasible.

    Entries are ints or Fractions.  Phase-1 simplex: one artificial variable
    per row, minimize their sum.  Bland's rule guarantees termination.

    Every row and right-hand side is scaled by the LCM D of all their
    denominators, and the artificial columns stay the identity.  Scaling
    every row by one D leaves the entering choice and the ratio test as
    they are on the rational tableau, so the pivots, and the certificate,
    are those of the textbook simplex on Fractions.  The integer tableau M
    (objective row included) stands for M / d: a pivot on M[r][s] = p keeps
    row r, sets every other row to (p * row - row[s] * M[r]) // d, which
    divides exactly, and then sets d = p.  Since d > 0, signs are read off
    M directly and ratios are compared by cross-multiplying.

    Raises DimensionMismatch when A and b have different numbers of rows
    or the rows of A differ in length.
    """
    m = len(b_eq)
    if len(a_eq) != m:
        raise DimensionMismatch(f"{len(a_eq)} constraint rows for {m} right-hand sides")
    if m == 0:
        return []
    n = len(a_eq[0])
    if any(len(row) != n for row in a_eq):
        raise DimensionMismatch("constraint rows differ in length")
    _, (*a_ints, b_ints) = as_integers([*a_eq, b_eq])

    # tableau columns: n structural + m artificial + 1 rhs
    width = n + m
    tableau: list[list[int]] = []
    for i, (row, b) in enumerate(zip(a_ints, b_ints)):
        sign = -1 if b < 0 else 1
        ints = [sign * v for v in row] + [0] * m
        ints[n + i] = 1
        ints.append(sign * b)
        tableau.append(ints)
    basis = [n + i for i in range(m)]

    # objective: minimize sum of artificials == maximize -(sum).  Reduced
    # costs start as the column sums of the constraint rows; the artificial
    # columns net to zero.
    obj = [sum(column) for column in zip(*tableau)]
    obj[n:width] = [0] * m

    divisor = 1
    while True:
        enter = -1
        for j in range(width):  # Bland: smallest eligible index
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                if leave < 0:
                    leave = i
                    continue
                # rhs_i / coeff against rhs_leave / coeff_leave, both coeffs > 0
                mine = tableau[i][width] * tableau[leave][enter]
                best = tableau[leave][width] * coeff
                if mine < best or (mine == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            # unbounded reduced cost cannot happen in phase 1 (objective is
            # bounded below by 0); defensive.
            return None
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        for i in range(m):
            if i != leave:
                factor = tableau[i][enter]
                tableau[i] = [(pivot * v - factor * w) // divisor for v, w in zip(tableau[i], pivot_row)]
        factor = obj[enter]
        obj = [(pivot * v - factor * w) // divisor for v, w in zip(obj, pivot_row)]
        divisor = pivot
        basis[leave] = enter

    if obj[width] != 0:
        return None
    x = [ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(tableau[i][width], divisor)
        elif tableau[i][width] != 0:
            # artificial stuck in basis at a positive level
            return None
    return x


def in_downward_convex_hull(point: Sequence[Rational], generators: Sequence[Sequence[Rational]]) -> bool:
    """Is `point` dominated by some convex combination of `generators`?

    Membership in the downward closure of the convex hull: exists lambda >= 0
    with sum(lambda) = 1 and sum_i lambda_i g_i >= point componentwise.
    Coordinates are ints or Fractions.  The answer does not change when the
    point and every generator are scaled by one positive factor, so callers
    may pass integer vectors over a common denominator.  Raises
    DimensionMismatch when a generator's length differs from the point's.
    Exact certificates decide first, in this order, and the simplex the
    rest: outside when a coordinate, the all-ones vector or the point's
    positive part scores it above every generator; inside when it lies
    below one generator or a segment between two (`_below_segment`).
    """
    if not generators:
        return False
    dims = len(point)
    if any(len(g) != dims for g in generators):
        raise DimensionMismatch(f"a generator's length differs from the point's {dims}")
    direction = [max(v, 0) for v in point]
    if (any(map(gt, point, map(max, zip(*generators)))) or sum(point) > max(map(sum, generators))
            or sum(map(mul, direction, point)) > max(sum(map(mul, direction, g)) for g in generators)):
        return False
    if any(_below_segment(point, g, h) for g, h in combinations_with_replacement(generators, 2)):
        return True
    # per dimension d: sum_i lambda_i g_i[d] - slack_d = point[d]; then sum(lambda) = 1
    rows = [[g[d] for g in generators] + [-int(d == j) for j in range(dims)] for d in range(dims)]
    return solve_nonneg([*rows, [1] * len(generators) + [0] * dims], [*point, 1]) is not None


def _below_segment(point: Sequence[Rational], g: Sequence[Rational], h: Sequence[Rational]) -> bool:
    """Is lambda * g + (1 - lambda) * h >= point for some lambda in [0, 1]?  Each
    coordinate cuts lambda's interval, whose ends (num / den, den > 0) are cross-multiplied."""
    low, low_den, high, high_den = 0, 1, 1, 1
    for p, a, b in zip(point, g, h):
        slope, need = a - b, p - b  # lambda * slope >= need
        if slope > 0 and need * low_den > low * slope:
            low, low_den = need, slope
        elif slope < 0 and need * high_den > high * slope:  # need / slope < high / high_den
            high, high_den = -need, -slope
        elif slope == 0 < need:
            return False
        if low * high_den > high * low_den:
            return False
    return True
