"""The exact feasibility solver, verified against its own certificates and
against the Fraction simplex kept in `linfeas_reference`; hull membership,
which tries integer certificates before the polar LP, against the polar LP
alone and against the Fraction simplex."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linfeas_reference as reference
import measure_reference
from wregret import Measure, RegularHull, SubProbabilityVector, WeightedMeasureSet, hull_equal, linfeas, to_hull
from wregret.errors import DimensionMismatch
from wregret.linfeas import in_downward_convex_hull, in_hull_by_polar_lp, solve_nonneg

from conftest import random_measure

F = Fraction


def check_certificate(a_eq, b_eq, x):
    assert all(v >= 0 for v in x)
    for row, b in zip(a_eq, b_eq):
        assert sum(c * v for c, v in zip(row, x)) == b


def test_simple_feasible_system():
    # x1 + x2 = 1, x1 - x2 = 0  ->  x = (1/2, 1/2)
    a = [[F(1), F(1)], [F(1), F(-1)]]
    b = [F(1), F(0)]
    x = solve_nonneg(a, b)
    assert x is not None
    check_certificate(a, b, x)


def test_infeasible_by_sign():
    # x1 + x2 = -1 has no nonnegative solution
    assert solve_nonneg([[F(1), F(1)]], [F(-1)]) is None


def test_infeasible_by_conflict():
    # x = 1 and x = 2 simultaneously
    assert solve_nonneg([[F(1)], [F(1)]], [F(1), F(2)]) is None


def test_degenerate_empty():
    assert solve_nonneg([], []) == []


def test_hull_membership_axis_points():
    gens = [[F(1), F(0)], [F(0), F(1)]]
    assert in_downward_convex_hull([F(1, 2), F(1, 2)], gens)
    assert in_downward_convex_hull([F(0), F(0)], gens)
    assert in_downward_convex_hull([F(1), F(0)], gens)
    # mass 1.2 cannot be dominated by convex combinations of mass-1 points
    assert not in_downward_convex_hull([F(3, 5), F(3, 5)], gens)


def test_hull_membership_flat_segment():
    gens = [[F(1), F(0)], [F(0), F(1, 2)]]
    assert in_downward_convex_hull([F(1, 2), F(1, 4)], gens)
    assert not in_downward_convex_hull([F(1, 5), F(9, 20)], gens)


small_fraction = st.integers(min_value=0, max_value=8).map(lambda n: F(n, 8))


def generator_lists(data, dims):
    return data.draw(
        st.lists(st.lists(small_fraction, min_size=dims, max_size=dims), min_size=1, max_size=4)
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dims=st.integers(min_value=2, max_value=4))
def test_convex_combinations_are_members(data, dims):
    """Any point below a convex combination of generators must be inside."""
    gens = generator_lists(data, dims)
    coeffs = data.draw(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4))
    shrink = data.draw(st.lists(small_fraction, min_size=dims, max_size=dims))
    coeffs = coeffs[: len(gens)] + [0] * max(0, len(gens) - len(coeffs))
    if sum(coeffs) == 0:
        coeffs[0] = 1
    total = sum(coeffs)
    point = [
        sum(F(c, total) * g[d] for c, g in zip(coeffs, gens)) for d in range(dims)
    ]
    lowered = [max(F(0), point[d] - shrink[d]) for d in range(dims)]
    assert in_downward_convex_hull(lowered, gens)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    dims=st.integers(min_value=2, max_value=4),
    bump=st.integers(min_value=1, max_value=8),
)
def test_points_above_componentwise_max_are_outside(data, dims, bump):
    gens = generator_lists(data, dims)
    top = [max(g[d] for g in gens) for d in range(dims)]
    raised = [top[0] + F(bump, 8), *top[1:]]
    assert not in_downward_convex_hull(raised, gens)


@pytest.mark.parametrize(
    "a_eq, b_eq",
    [
        ([[1], [2]], [1]),  # more rows than right-hand sides
        ([[1]], [1, 2]),  # fewer rows than right-hand sides
        ([[1, 2], [1]], [1, 1]),  # ragged rows
    ],
)
def test_solver_rejects_mismatched_shapes(a_eq, b_eq):
    with pytest.raises(DimensionMismatch):
        solve_nonneg(a_eq, b_eq)


@pytest.mark.parametrize(
    "point, generators",
    [
        ([F(1, 2)], [[1, 5]]),  # a generator longer than the point
        ([F(1, 2), F(1, 2)], [[1, 0], [1]]),  # a generator shorter than the point
    ],
)
def test_hull_rejects_generators_of_another_length(point, generators):
    with pytest.raises(DimensionMismatch):
        in_downward_convex_hull(point, generators)


def test_the_polar_lp_rejects_generators_of_another_length():
    # cut to the shortest vector, as a bare map(min, *vectors) does, both would read as inside
    for point, generators in (([1, 1, 1], [[1, 1]]), ([1, 1], [[1, 1, 0]])):
        with pytest.raises(DimensionMismatch, match="a generator's length differs from the point's"):
            in_hull_by_polar_lp(point, generators)
    assert in_hull_by_polar_lp([1, 1, 1], []) is False


def test_pivoting_builds_no_fraction_beyond_the_certificate(monkeypatch):
    a = [[1, 2, 0, 1, 3, 1], [2, 1, 1, 0, 1, 2], [0, 1, 2, 1, 1, 1], [1, 0, 1, 2, 2, 0]]
    b = [sum(row[:4]) for row in a]  # x = (1, 1, 1, 1, 0, 0) is feasible
    built = 0
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    x = solve_nonneg(a, b)
    monkeypatch.undo()
    assert x is not None
    check_certificate(a, b, x)
    assert 0 < built <= len(x)


def random_entry(rng: random.Random):
    """A small int or Fraction, zero a third of the time, so ratios tie often."""
    roll = rng.random()
    if roll < 0.3:
        return 0
    if roll < 0.65:
        return rng.randint(-3, 3)
    return F(rng.randint(-6, 6), rng.randint(1, 6))


def random_system(rng: random.Random):
    m, n = rng.randint(1, 6), rng.randint(0, 40)
    a = [[random_entry(rng) for _ in range(n)] for _ in range(m)]
    for j in rng.sample(range(n), n // 5):  # zero columns
        for row in a:
            row[j] = rng.choice((0, F(0)))
    if n and rng.random() < 0.5:
        # right-hand side of a nonnegative point, so the system is feasible
        x = [rng.choice((0, 1, 2, F(1, 3), F(5, 2))) for _ in range(n)]
        b = [sum((v * c for v, c in zip(row, x)), F(0)) for row in a]
        b = [int(v) if v.denominator == 1 and rng.random() < 0.5 else v for v in b]
    else:
        b = [random_entry(rng) for _ in range(m)]  # negative ones too
    return a, b


def hull_systems(generators):
    """The membership systems `in_downward_convex_hull` solves for each
    generator against the others."""
    return [reference.hull_system(point, generators[:i] + generators[i + 1:]) for i, point in enumerate(generators)]


def test_certificates_match_the_fraction_simplex():
    rng = random.Random(8)
    outcomes = set()
    for _ in range(300):
        a, b = random_system(rng)
        expected = reference.solve_nonneg(a, b)
        assert solve_nonneg(a, b) == expected, (a, b)
        outcomes.add(expected is None)
    # ties in the ratio test: every row has the same ratio
    a = [[2, 1, 0], [4, 0, 1], [1, 1, 1]]
    b = [2, 4, 1]
    assert solve_nonneg(a, b) == reference.solve_nonneg(a, b) is not None
    assert outcomes == {True, False}


@pytest.mark.parametrize("size, states", [(8, ("a", "b", "c")), (32, ("a", "b", "c")), (32, ("a", "b", "c", "d"))])
def test_hull_systems_match_the_fraction_simplex(size, states):
    rng = random.Random(size + len(states))
    entries = [(random_measure(rng, states), F(rng.randint(1, 8), 8)) for _ in range(size)]
    entries[0] = (entries[0][0], F(1))
    wset = WeightedMeasureSet(entries, states)
    raw = [[w * m[s] for s in states] for m, w in entries]
    for a, b in hull_systems(raw):
        assert solve_nonneg(a, b) == reference.solve_nonneg(a, b)
    # to_hull keeps exactly the generators a prune by the reference keeps
    unique = sorted({tuple(v) for v in raw})
    survivors = list(unique)
    for g in unique:
        others = [list(h) for h in survivors if h != g]
        if others and reference.solve_nonneg(*hull_systems([list(g)] + others)[0]) is not None:
            survivors.remove(g)
    kept = sorted(tuple(v for _, v in g.items()) for g in to_hull(wset).generators)
    assert kept == sorted(survivors)


def reference_prune(vectors):
    """The distinct vectors, ascending, each dropped when the simplex puts it
    in the downward-convex hull of the others still kept: one LP per vector
    and no certificates."""
    unique = sorted(set(vectors))
    survivors = list(unique)
    for g in unique:
        others = [h for h in survivors if h != g]
        if others and solve_nonneg(*reference.hull_system(g, others)) is not None:
            survivors.remove(g)
    return survivors


def test_to_hull_matches_the_reference_prune():
    """Seeded sets of 2-6 states and 1-64 entries, drawn from a small pool of
    coarse measures so that duplicates, zero weights and tied coordinates
    and totals all occur; the generators must match in value and order."""
    rng = random.Random(14)
    seen = {"duplicate": 0, "zero weight": 0, "tied total": 0}
    for _ in range(100):
        states = tuple(f"s{i}" for i in range(rng.randint(2, 6)))
        pool = [random_measure(rng, states, rng.choice((2, 4, 12))) for _ in range(rng.randint(1, 16))]
        entries = [(rng.choice(pool), F(rng.randint(0, 8), 8)) for _ in range(rng.randint(1, 64))]
        entries[rng.randrange(len(entries))] = (pool[0], F(1))
        raw = [tuple(w * m[s] for s in states) for m, w in entries]
        hull = to_hull(WeightedMeasureSet(entries, states))
        assert [tuple(v for _, v in g.items()) for g in hull.generators] == reference_prune(raw)
        unpruned = RegularHull([SubProbabilityVector(dict(zip(states, v))) for v in raw], states)
        assert hull_equal(hull, unpruned)
        seen["duplicate"] += len({m for m, _ in entries}) < len(entries)
        seen["zero weight"] += any(w == 0 for _, w in entries)
        seen["tied total"] += len({sum(v) for v in set(raw)}) < len(set(raw))
    assert all(seen.values()), seen


def grid_vector(rng: random.Random, dims: int, grain: int) -> list:
    """Multiples of 1/grain in [0, 1], zero about half the time."""
    return [F(rng.randint(1, grain), grain) if rng.random() < 0.5 else F(0) for _ in range(dims)]


def membership_case(rng: random.Random):
    """A point and 1-16 generators in 2-6 dimensions on a grid of step
    1/grain for a grain of 1-4, with duplicate generators and zero vectors.
    The point is, by weights 1:2:2:3:1:1, a generator, a point inside a
    segment between two (at lambda 1/4, 1/2 or 3/4), that point moved one
    grid step in one coordinate, a combination of three, a grid point or
    the zero vector; now and then one coordinate is negative.  Half the
    cases are put over one denominator as ints, and in the rest whole
    Fractions become ints at random."""
    dims, grain, k = rng.randint(2, 6), rng.randint(1, 4), rng.randint(1, 16)
    gens = [grid_vector(rng, dims, grain) for _ in range(k)]
    for _ in range(rng.randint(0, 2)):
        gens[rng.randrange(k)] = list(rng.choice(gens)) if rng.random() < 0.5 else [F(0)] * dims
    g, h, e = (rng.choice(gens) for _ in range(3))
    lam, mu = F(rng.randint(1, 3), 4), F(rng.randint(1, 3), 4)
    on_segment = [lam * a + (1 - lam) * b for a, b in zip(g, h)]
    kind = rng.choice((0, 1, 1, 2, 2, 3, 3, 3, 4, 5))
    if kind == 0:
        point = list(g)
    elif kind == 1:
        point = on_segment
    elif kind == 2:
        point = on_segment
        point[rng.randrange(dims)] += rng.choice((-1, 1)) * F(1, grain)
    elif kind == 3:
        point = [mu * a + (1 - mu) * b for a, b in zip(on_segment, e)]
    elif kind == 4:
        point = grid_vector(rng, dims, grain)
    else:
        point = [F(0)] * dims
    if rng.random() < 0.1:
        point[rng.randrange(dims)] -= 1
    if rng.random() < 0.5:
        common = lcm(*[v.denominator for v in point + [v for g in gens for v in g]])
        return [int(v * common) for v in point], [[int(v * common) for v in g] for g in gens]

    def mixed(v):
        return int(v) if v.denominator == 1 and rng.random() < 0.5 else v

    return [mixed(v) for v in point], [[mixed(v) for v in g] for g in gens]


def test_membership_certificates_match_the_simplex(monkeypatch):
    """The certificate-first answer on 5,000 seeded cases equals the polar
    LP's alone on the same point and generators, and on every tenth case
    the Fraction simplex's; every certificate and both polar LP answers
    occur."""
    rng = random.Random(18)
    polar, calls = linfeas.in_hull_by_polar_lp, []
    monkeypatch.setattr(linfeas, "in_hull_by_polar_lp", lambda *a: calls.append(1) or polar(*a))
    seen = Counter()
    for i in range(5000):
        point, gens = membership_case(rng)
        before = len(calls)
        got = in_downward_convex_hull(point, gens)
        assert got == polar(point, gens), (point, gens)
        if i % 10 == 0:
            assert got == reference.in_downward_convex_hull(point, gens), (point, gens)
        if len(calls) > before:
            seen["polar LP: inside" if got else "polar LP: outside"] += 1
        elif not got:
            seen["outside by a direction"] += 1
        elif any(all(p <= v for p, v in zip(point, g)) for g in gens):
            seen["below one generator"] += 1
        else:
            seen["below a segment"] += 1
    assert len(seen) == 5 and min(seen.values()) >= 50, seen


def differential_case(rng: random.Random):
    """A point and 1-6 generators in 1-12 dimensions (1-3 in 97% of the
    cases, since the Fraction simplex's cost grows fast with the dimension),
    with small entries so that ratios and coordinates tie often.  Now and then a generator is the
    zero vector or a copy of another, entries are negative (in the point
    or a generator), the point is a convex combination of generators moved
    by at most one unit per coordinate, or every entry is scaled by a
    factor above 2**64 (as ints, or as Fractions over a large
    denominator).  A case whose entries are all whole is given as ints, the
    form the hull's callers pass; the rest mix Fractions and ints."""
    dims = rng.choice((1, 1, 2, 2, 3)) if rng.random() < 0.97 else rng.randint(4, 12)
    k = rng.randint(1, 6)
    low = -2 if rng.random() < 0.3 else 0

    def vector():
        return [rng.randint(low, 3) for _ in range(dims)]

    gens = [vector() for _ in range(k)]
    for _ in range(rng.randint(0, 2)):
        gens[rng.randrange(k)] = list(rng.choice(gens)) if rng.random() < 0.5 else [0] * dims
    if rng.random() < 0.5:
        weights = [rng.randint(0, 2) for _ in gens]
        weights[rng.randrange(k)] += 1
        total = sum(weights)
        point = [F(sum(w * g[d] for w, g in zip(weights, gens)), total) + rng.randint(-1, 1) for d in range(dims)]
    else:
        point = [F(v) for v in vector()]
    if rng.random() < 0.2:
        point[rng.randrange(dims)] -= rng.randint(1, 3)
    if rng.random() < 0.2:
        scale = F(2**64 + rng.randint(1, 2**40), rng.choice((1, 1, 3**41)))
        point, gens = [v * scale for v in point], [[v * scale for v in g] for g in gens]
    if all(F(v).denominator == 1 for v in [*point, *(v for g in gens for v in g)]):
        point, gens = [int(v) for v in point], [[int(v) for v in g] for g in gens]
    return point, gens


def test_membership_matches_the_fraction_simplex_on_a_differential_corpus():
    """On 20,000 seeded cases (`differential_case`) the library's membership
    and the polar LP alone equal the Fraction simplex of `linfeas_reference`;
    both answers and every kind of input occur at least 50 times."""
    rng = random.Random(24)
    seen = Counter()
    for _ in range(20000):
        point, gens = differential_case(rng)
        expected = reference.in_downward_convex_hull(point, gens)
        assert in_downward_convex_hull(point, gens) == expected, (point, gens)
        assert linfeas.in_hull_by_polar_lp(point, gens) == expected, (point, gens)
        seen["inside" if expected else "outside"] += 1
        seen["dims 12"] += len(point) == 12
        seen["dims 4-11"] += 4 <= len(point) < 12
        seen["zero generator"] += any(not any(g) for g in gens)
        seen["duplicate generator"] += len({tuple(g) for g in gens}) < len(gens)
        seen["negative generator entry"] += any(v < 0 for g in gens for v in g)
        seen["negative point coordinate"] += any(v < 0 for v in point)
        seen["entry above 2**64"] += any(abs(v) > 2**64 for v in point)
    assert len(seen) == 9 and min(seen.values()) >= 50, seen


def segment_set(rng: random.Random):
    """A weighted set over 2-5 states whose weight * measure points are a
    few coarse points (the first of weight 1), then points on the segments
    between earlier ones (at lambda a multiple of 1/4), some moved one grid
    step down in one coordinate; each point p is entry (p / sum(p), sum(p)).
    Returns the states, the set and its points."""
    states = tuple(f"s{i}" for i in range(rng.randint(2, 5)))
    grain = rng.randint(2, 4)
    points = []
    for i in range(rng.randint(2, 6)):
        weight = 1 if i == 0 else F(rng.randint(1, grain), grain)
        points.append([weight * v for _, v in random_measure(rng, states, grain).items()])
    for _ in range(rng.randint(1, 8)):
        g, h = rng.choice(points), rng.choice(points)
        lam = F(rng.randint(0, 4), 4)
        point = [lam * a + (1 - lam) * b for a, b in zip(g, h)]
        if rng.random() < 0.3:
            d = rng.randrange(len(states))
            point[d] = max(F(0), point[d] - F(1, grain))
        points.append(point)
    entries = []
    for point in points:
        mass = sum(point)
        measure = Measure(dict(zip(states, [v / mass for v in point]))) if mass else random_measure(rng, states)
        entries.append((measure, mass))
    return states, WeightedMeasureSet(entries, states), points


def test_to_hull_and_hull_equal_match_the_reference_on_segment_points():
    """On sets with points on the segments between others, the generators
    equal the reference hull's; hull_equal holds against the unpruned
    points, and against the hull with one more grid point it agrees with
    that point's membership decided by the Fraction simplex alone."""
    rng = random.Random(180)
    answers = Counter()
    for _ in range(150):
        states, wset, points = segment_set(rng)
        hull = to_hull(wset)
        generators = [tuple(v for _, v in g.items()) for g in hull.generators]
        entries = [(dict(m.items()), w) for m, w in wset.entries]
        assert generators == measure_reference.hull_generators(entries)
        unpruned = RegularHull([SubProbabilityVector(dict(zip(states, p))) for p in points], states)
        assert hull_equal(hull, unpruned) and hull_equal(unpruned, hull)
        extra = [F(rng.randint(0, 4), 4 * len(states)) for _ in states]
        grown = RegularHull([*hull.generators, SubProbabilityVector(dict(zip(states, extra)))], states)
        expected = reference.in_downward_convex_hull(extra, generators)
        assert hull_equal(hull, grown) == hull_equal(grown, hull) == expected
        answers[expected] += 1
    assert answers[True] and answers[False], answers


def test_the_polar_lp_turns_to_blands_rule_at_a_degenerate_pivot(monkeypatch):
    """Variables c_0..c_2, then slacks 3..7, one per generator.  The greedy
    rule enters c_0 (reduced costs 2, 1, 2: the tie goes to the smaller
    index), then c_2, whose ratio test ties a row at rhs 0: a degenerate
    pivot.  From there Bland's rule enters c_1, where the largest reduced
    cost would have entered another variable and stopped a pivot earlier;
    the answer is the Fraction simplex's either way."""
    point, gens = [2, 1, 2], [[3, 0, 0], [1, 4, 0], [2, 4, 1], [3, 0, 1], [0, 1, 1]]
    leaving_row, pivots = linfeas._leaving_row, []

    def logged(entering, rhs, basis):
        leave = leaving_row(entering, rhs, basis)
        pivots.append((tuple(basis), rhs[leave]))
        return leave

    monkeypatch.setattr(linfeas, "_leaving_row", logged)
    assert in_hull_by_polar_lp(point, gens) is reference.in_downward_convex_hull(point, gens) is False
    assert pivots == [((3, 4, 5, 6, 7), 1), ((0, 4, 5, 6, 7), 0), ((0, 4, 5, 2, 7), 1), ((0, 4, 1, 2, 7), 4)]


def test_no_generators_leave_the_point_outside():
    assert in_hull_by_polar_lp([0, 0], []) is False
    assert in_downward_convex_hull([0, 0], []) is False
