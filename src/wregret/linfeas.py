"""Exact linear programs over the rationals, pivoted on integers.

Small dense systems only (state spaces up to about a dozen states).  Both
solvers are fraction-free simplexes (Edmonds 1967; Bareiss 1968) with
Bland's rule (Bland 1977), the polar LP's only from its first degenerate
pivot: the data go over one common denominator (`as_integers`), the
tableau is kept as integers over one running divisor, and every pivot goes
through one step (`_pivot_step`) and one ratio test (`_leaving_row`).

`in_downward_convex_hull` is the membership test by which building a
`measures.RegularHull` prunes its generators; hull equality needs none.
Integer certificates decide most points, and the polar LP
(`in_hull_by_polar_lp`), which starts feasible at its slack basis and
stops as soon as the answer is known, decides the rest without building a
`Fraction`.  `solve_nonneg`, a phase-1 simplex for x >= 0 with A x = b,
returns a certificate vector when the system is feasible, which the tests
verify independently; nothing in the package calls it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, compress
from operator import ge, gt, mul, or_
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
        enter = next((j for j in range(width) if obj[j] > 0), -1)  # Bland: smallest eligible index
        if enter < 0:
            break
        leave = _leaving_row([row[enter] for row in tableau], [row[width] for row in tableau], basis)
        if leave < 0:
            # unbounded reduced cost cannot happen in phase 1 (objective is
            # bounded below by 0); defensive.
            return None
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        for i in range(m):
            if i != leave:
                tableau[i] = _pivot_step(tableau[i], tableau[i][enter], pivot_row, pivot, divisor)
        obj = _pivot_step(obj, obj[enter], pivot_row, pivot, divisor)
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
    Exact certificates decide first, in this order, and the polar LP
    (`in_hull_by_polar_lp`) the rest: inside when a generator lies at or
    above the point; outside when a coordinate, the all-ones vector or the
    point's positive part scores it above every generator; inside when it
    lies below a segment between two generators (`_below_segment`), tried
    only for pairs that between them reach the point on every coordinate.
    A generator below the point is dropped before the segments: once none
    lies at or above the point, no combination that dominates it needs one.
    """
    if not generators:
        return False
    dims = _check_lengths(point, generators)
    bits, full = [1 << d for d in range(dims)], (1 << dims) - 1
    covers = []  # per generator, the bit set of coordinates where it is >= the point
    for g in generators:
        cover = sum(compress(bits, map(ge, g, point)))
        if cover == full:
            return True
        covers.append(cover)
    direction = [max(v, 0) for v in point]
    if (reduce(or_, covers) != full or sum(point) > max(map(sum, generators))
            or sum(map(mul, direction, point)) > max(sum(map(mul, direction, g)) for g in generators)):
        return False
    kept = [(g, cover) for g, cover in zip(generators, covers) if any(map(gt, g, point))]
    if any(a | b == full and _below_segment(point, g, h) for (g, a), (h, b) in combinations(kept, 2)):
        return True
    return in_hull_by_polar_lp(point, [g for g, _ in kept])


def in_hull_by_polar_lp(point: Sequence[Rational], generators: Sequence[Sequence[Rational]]) -> bool:
    """`in_downward_convex_hull` decided by the polar LP alone.

    Translated by their componentwise minimum, the point p and the
    generators h are >= 0, and membership is unchanged.  Then, by LP
    duality, p is inside exactly when the gauge
    gamma(p) = max {p . c : c >= 0, h . c <= 1 for every h} is at most 1; a
    maximising c with p . c > 1 separates p from the hull.  Over one common
    denominator the LP has integer data and the same answer, and a
    coordinate where p is 0 gives c nothing and is left out.  The slack
    basis at c = 0 is feasible, so no phase 1; no generators leave p outside.

    The condensed tableau has a row per generator and the objective row
    last, a column per coordinate kept and the rhs column last; it is held
    by columns, as integers over one running divisor.  The variable of
    largest reduced cost enters (ties to the smallest index) until a pivot
    is degenerate (its leaving row's rhs is 0), and Bland's rule after: a
    nondegenerate pivot raises the objective, so no basis repeats, and
    Bland's rule is finite from any feasible basis.  `_leaving_row` picks
    the row; a pivot on p = T[r][s] keeps row r, sets every other column j
    to (p * column_j - T[r][j] * column_s) // divisor (`_pivot_step`), and
    gives column s the leaving variable's entries (-T[i][s], and the old
    divisor in row r) and the divisor p.  The run stops once the objective
    exceeds 1 or is unbounded (outside), or is optimal at most 1 (inside).
    """
    if not generators:
        return False
    _check_lengths(point, generators)
    vectors = [point, *generators]
    if not all(type(v) is int for vector in vectors for v in vector):
        _, vectors = as_integers(vectors)
    low, point, generators = list(map(min, *vectors)), vectors[0], vectors[1:]
    columns = [[h[d] - m for h in generators] + [v - m] for d, (v, m) in enumerate(zip(point, low)) if v > m]
    width, k = len(columns), len(generators)
    columns.append([1] * k + [0])  # the rhs; its last entry is -(p . c) * divisor
    nonbasic = list(range(width))  # variables: c_0 .. c_{width-1}, then the slacks
    basis = list(range(width, width + k))
    divisor, greedy = 1, True
    while -columns[width][k] <= divisor:
        eligible = [(-greedy * columns[j][k], nonbasic[j], j) for j in range(width) if columns[j][k] > 0]
        if not eligible:
            return True
        enter = min(eligible)[2]
        entering = columns[enter]
        leave = _leaving_row(entering, columns[width], basis)
        if leave < 0:
            return False  # the objective grows without bound along c_enter
        greedy = greedy and columns[width][leave] > 0  # Bland's rule from the first degenerate pivot on
        pivot = entering[leave]
        for j, column in enumerate(columns):
            if j != enter:
                entry = column[leave]  # the pivot row keeps its entries
                columns[j] = _pivot_step(column, entry, entering, pivot, divisor)
                columns[j][leave] = entry
        columns[enter] = [-v for v in entering]
        columns[enter][leave] = divisor
        divisor = pivot
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]
    return False


def _check_lengths(point: Sequence[Rational], generators: Sequence[Sequence[Rational]]) -> int:
    """len(point), which every generator must share, else DimensionMismatch."""
    if any(len(g) != len(point) for g in generators):
        raise DimensionMismatch(f"a generator's length differs from the point's {len(point)}")
    return len(point)


def _leaving_row(entering: Sequence[int], rhs: Sequence[int], basis: Sequence[int]) -> int:
    """The ratio test on an integer tableau over a positive divisor: among
    the constraint rows (one per basis entry) with a positive entry in the
    entering column, the row of least rhs / entry, ties to the smallest
    basic variable (Bland); -1 when there is none."""
    leave = -1
    for i in range(len(basis)):
        coeff = entering[i]
        if coeff > 0:
            if leave < 0:
                leave = i
                continue
            # rhs_i / coeff against rhs_leave / coeff_leave, both coeffs > 0
            mine, best = rhs[i] * entering[leave], rhs[leave] * coeff
            if mine < best or (mine == best and basis[i] < basis[leave]):
                leave = i
    return leave


def _pivot_step(vector: Sequence[int], factor: int, other: Sequence[int], pivot: int, divisor: int) -> list[int]:
    """(pivot * vector - factor * other) // divisor, entry by entry: one
    row (or column) of a fraction-free pivot, which divides exactly."""
    return [(pivot * v - factor * w) // divisor for v, w in zip(vector, other)]


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
