"""The exact feasibility solver, verified against its own certificates and
against the Fraction simplex kept in `linfeas_reference`."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linfeas_reference as reference
from wregret import RegularHull, SubProbabilityVector, WeightedMeasureSet, hull_equal, to_hull
from wregret.errors import DimensionMismatch
from wregret.linfeas import in_downward_convex_hull, solve_nonneg

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
    systems = []
    for i, point in enumerate(generators):
        others = generators[:i] + generators[i + 1:]
        k, dims = len(others), len(point)
        a = [[g[d] for g in others] + [F(-1) if j == d else F(0) for j in range(dims)] for d in range(dims)]
        a.append([F(1)] * k + [F(0)] * dims)
        systems.append((a, [*point, F(1)]))
    return systems


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
        if others and in_downward_convex_hull(g, others):
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
