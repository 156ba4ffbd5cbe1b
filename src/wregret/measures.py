"""Weighted sets of probability measures and their sub-probability geometry.

The core representation is a finite set of (measure, weight) pairs with
weights in [0, 1], normalized so the largest weight is exactly 1.  Updating
on an event conditions each measure and rescales its weight by the relative
likelihood of the event.  The same information can be viewed geometrically:
each pair (Pr, w) spans the segment of sub-probability vectors from 0 to
w*Pr, and the downward-closed convex hull of those segments is the canonical
object behind worst-case weighted regret.  All arithmetic is exact: a
measure is ints over one denominator, and the rule kernels and the hull read
a belief as the int rows of `weighted_rows`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import ge, mul
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import (
    AllZeroWeights,
    DimensionMismatch,
    EmptySet,
    NegativeDirection,
    NoInformativeDirection,
    UndefinedUpdate,
)
from .linfeas import in_downward_convex_hull
from .rational import IntVector, as_integers, exact, format_rational, over_common
from .records import Frozen

Rational = Union[Fraction, int, str]

ZERO = Fraction(0)


class Event(Frozen):
    """A subset of state labels; a string raises TypeError rather than being split into letters."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[str]):
        if isinstance(members, str):
            raise TypeError(f"an event is a collection of states, not the string {members!r}:"
                            f" wrap a single state as [{members!r}]")
        object.__setattr__(self, "members", frozenset(members))

    def _args(self) -> tuple:
        return (self.members,)

    def __contains__(self, state: str) -> bool:
        return state in self.members

    def __and__(self, other: "Event") -> "Event":
        return Event(self.members & other.members)

    def __repr__(self) -> str:
        return f"Event({{{', '.join(sorted(self.members))}}})"


EventLike = Union[Event, Iterable[str]]


def as_event(event: EventLike) -> Event:
    """The event itself, or the event made of an iterable of state labels."""
    return event if isinstance(event, Event) else Event(event)


def _inside(states: Sequence[str], event: Event) -> list[bool]:
    """Per state, whether the event holds it; an event naming another state raises DimensionMismatch."""
    inside = [s in event.members for s in states]
    if sum(inside) != len(event.members):
        raise DimensionMismatch(f"event mentions unknown states {sorted(event.members.difference(states))}")
    return inside


class Measure(IntVector):
    """A probability measure on a finite state space, an `IntVector` over
    its states.  The mapping is total: every state of the ambient space
    appears, possibly with probability zero, and the values sum to one."""

    __slots__ = ()
    _value_name, _key_name = "probability", "state"

    def _check(self) -> None:
        self._nonnegative()
        if sum(self.numerators) != self.denominator:
            raise ValueError(f"probabilities sum to {format_rational(self.total())}, expected 1/1")

    state_space = property(lambda self: self.keys, doc="The states, sorted.")

    def event_prob(self, event: EventLike) -> Fraction:
        return Fraction(sum(compress(self.numerators, _inside(self.keys, as_event(event)))), self.denominator)

    def condition(self, event: EventLike) -> "Measure":
        """Conditional measure given the event; requires positive probability.
        Its numerators are those on the event over their sum, reduced."""
        kept = tuple([n if i else 0 for n, i in zip(self.numerators, _inside(self.keys, as_event(event)))])
        if not any(kept):
            raise UndefinedUpdate("cannot condition on a probability-zero event")
        return self._reduced(self.keys, kept, sum(kept))

    def expectation(self, values: Mapping[str, Rational]) -> Fraction:
        """The expected value; the values read (where the probability is positive) must be exact."""
        pairs = zip(self.keys, self.numerators)
        return sum((n * exact(values[s], "value", s) for s, n in pairs if n), ZERO) / self.denominator


def weighted_rows(pairs: Sequence[tuple[Fraction, Measure]]) -> tuple[int, list[tuple[int, ...]]]:
    """(D, rows): each (weight, measure) pair's weight * measure vector, in
    sorted state order, as ints over one common denominator D, the LCM of
    the weight-times-measure denominators (1 for no pairs)."""
    common = lcm(*[w.denominator * m.denominator for w, m in pairs])
    scales = [w.numerator * (common // (w.denominator * m.denominator)) for w, m in pairs]
    return common, [tuple([k * n for n in m.numerators]) for k, (_, m) in zip(scales, pairs)]


def point_mass(state: str, state_space: Sequence[str]) -> Measure:
    """The measure concentrated on a single state."""
    return Measure({s: int(s == state) for s in state_space})


class WeightedMeasureSet(Frozen):
    """A finite set of probability measures, each carrying a weight in [0, 1]."""

    __slots__ = ("entries", "state_space")

    def __init__(
        self,
        entries: Iterable[tuple[Measure, Rational]],
        state_space: Sequence[str] | None = None,
    ):
        entries = tuple((m, exact(w, "weight")) for m, w in entries)
        if not entries:
            raise EmptySet("a weighted measure set needs at least one entry")
        states = tuple(state_space) if state_space is not None else entries[0][0].state_space
        ordered = tuple(sorted(states))
        for measure, weight in entries:
            if measure.state_space != ordered:
                raise DimensionMismatch(
                    f"measure over {measure.state_space} does not match state space {ordered}"
                )
            if not (0 <= weight <= 1):
                raise ValueError(f"weight {weight} outside [0, 1]")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "state_space", states)

    def _args(self) -> tuple:
        return self.entries, self.state_space

    def _key(self) -> tuple:
        """The sorted states, then the sorted (numerators, weight) pairs."""
        return tuple(sorted(self.state_space)), tuple(sorted((m.numerators, w) for m, w in self.entries))

    def __repr__(self) -> str:
        inner = ", ".join(f"({m!r}, {format_rational(w)})" for m, w in self.entries)
        return f"WeightedMeasureSet([{inner}])"


def normalize(wset: WeightedMeasureSet) -> WeightedMeasureSet:
    """Rescale weights so the maximum is 1 and collapse duplicate measures.

    Duplicates keep the largest weight among their occurrences, mirroring the
    supremum in the updated-weight definition.
    """
    merged: dict[Measure, Fraction] = {}
    for measure, weight in wset.entries:
        if measure not in merged or merged[measure] < weight:
            merged[measure] = weight
    top = max(merged.values())
    if top == 0:
        raise AllZeroWeights("cannot normalize a set whose weights are all zero")
    if top != 1:
        merged = {measure: weight / top for measure, weight in merged.items()}
    return WeightedMeasureSet(tuple(merged.items()), wset.state_space)


def is_null(event: EventLike, wset: WeightedMeasureSet) -> bool:
    """True when no entry of positive weight gives the event positive
    probability: splicing an act on it changes no weighted regret score."""
    return not any(_likelihoods(wset, as_event(event))[3])


def _likelihoods(wset: WeightedMeasureSet, event: Event) -> tuple[list[bool], int, list[int], list[int]]:
    """(inside, D, masses, likelihoods): the event's `_inside` mask; per
    entry, the event's probability times the measure's denominator, and
    weight * probability as an int over D, the LCM of weight * measure denominators."""
    inside = _inside(wset.entries[0][0].keys, event)
    masses = [sum(compress(m.numerators, inside)) for m, _ in wset.entries]
    common = lcm(*[w.denominator * m.denominator for m, w in wset.entries])
    pairs = zip(wset.entries, masses)
    likelihoods = [w.numerator * n * (common // (w.denominator * m.denominator)) for (m, w), n in pairs]
    return inside, common, masses, likelihoods


def upper_likelihood(wset: WeightedMeasureSet, event: EventLike) -> Fraction:
    """Largest weight-scaled probability of the event across the set."""
    _, common, _, likelihoods = _likelihoods(wset, as_event(event))
    return Fraction(max(likelihoods), common)


def likelihood_update(wset: WeightedMeasureSet, event: EventLike) -> WeightedMeasureSet:
    """Condition every measure on the event and rescale weights by likelihood.

    The weight of a conditioned measure is the largest weight * Pr(event)
    among the entries that condition to it, divided by the set's upper
    likelihood of the event.  Measures giving the event probability zero are
    dropped; the result is normalized as built (its largest weight is 1).
    Equal conditioned rows merge as reduced ints on their int likelihoods,
    first occurrence first; a `Measure` and a `Fraction` are built per row kept."""
    inside, _, masses, likelihoods = _likelihoods(wset, as_event(event))
    top = max(likelihoods)
    if top == 0:
        raise UndefinedUpdate("update undefined: the event has upper likelihood 0")
    states = tuple(sorted(wset.state_space))
    merged: dict[tuple, int] = {}
    for (measure, _), n, likelihood in zip(wset.entries, masses, likelihoods):
        if n:
            kept = [k if i else 0 for k, i in zip(measure.numerators, inside)]
            g = gcd(n, *kept)
            row = (tuple([k // g for k in kept]), n // g)
            merged[row] = max(merged.get(row, 0), likelihood)
    rows = [(Measure.from_ints(states, *row), Fraction(likelihood, top)) for row, likelihood in merged.items()]
    return WeightedMeasureSet(rows, wset.state_space)


def sequential_update(wset: WeightedMeasureSet, first: EventLike, second: EventLike) -> WeightedMeasureSet:
    """Update on two events one after the other, as one update on A & B:
    after both steps the weight of p|(A & B) is the largest weight * q(A & B)
    over the q that condition to it, over one normaliser."""
    first, second = as_event(first), as_event(second)
    _inside(wset.state_space, Event(first.members | second.members))  # DimensionMismatch on unknown states
    try:
        return likelihood_update(wset, first & second)
    except UndefinedUpdate:
        raise UndefinedUpdate("update undefined: the intersection has upper likelihood 0") from None


class SubProbabilityVector(IntVector):
    """Nonnegative mass per state, totalling at most one: an `IntVector`
    over its states."""

    __slots__ = ()
    _value_name, _key_name = "mass", "state"

    def _check(self) -> None:
        self._nonnegative()
        if sum(self.numerators) > self.denominator:
            raise ValueError("sub-probability mass exceeds 1")

    state_space = property(lambda self: self.keys, doc="The states, sorted.")


class RegularHull(Frozen):
    """The downward closure of the generators' convex hull, a set of
    sub-probability vectors, held by its one minimal generating set.

    Take two generating sets G1 and G2 of one such set, and a g in G1 that
    is not in the downward-convex hull of the rest of G1.  Then g <= sum of
    lambda_i h_i over G2, and each h_i lies below a combination of G1;
    unless every h_i with lambda_i > 0 equals g, g lies below a combination
    of G1 without g, against its minimality.  So g is in G2: the minimal
    generating set is unique.  Building a hull, from hand-given generators
    or by `to_hull`, prunes to it (`_set_vertices`), ascending, as reduced
    ints, so two hulls are the same set exactly when their generator tuples
    are equal, which `==` and `hash` compare.  At least one generator must
    be a proper probability measure (total mass one).
    """

    __slots__ = ("generators", "state_space")

    def __init__(self, generators: Iterable[SubProbabilityVector], state_space: Sequence[str]):
        generators, ordered = tuple(generators), tuple(sorted(state_space))
        if not generators:
            raise EmptySet("a hull needs at least one generator")
        for g in generators:
            if g.state_space != ordered:
                raise DimensionMismatch(f"generator over {g.state_space} does not match state space {ordered}")
        _set_vertices(self, state_space, *over_common(generators))

    def _args(self) -> tuple:
        return self.generators, self.state_space

    def _key(self) -> tuple:
        return self.generators

    def __repr__(self) -> str:
        return f"RegularHull({len(self.generators)} generators over {self.state_space})"


def _set_vertices(hull: RegularHull, states: Sequence[str], denominator: int, rows: list) -> RegularHull:
    """Set the hull's fields: its generators are the vertices among the int
    rows over the denominator, ascending.

    A row that another dominates componentwise is dropped: a dominator has
    the larger total, so a sweep by descending total compares each distinct
    row with the maximal rows found so far.  Then by ascending total, so
    that low rows, likely interior, leave the later tests fewer rows, a
    maximal row is dropped when `in_downward_convex_hull` (outside by a
    direction, inside below a segment between two others, then the polar LP,
    all on the ints) puts it in the hull of the others kept.  Dropping one
    never shrinks the hull, so in any order the kept rows are exactly those
    outside the downward-convex hull of all the other rows.
    """
    if all(sum(v) != denominator for v in rows):
        raise ValueError("a regular hull must contain a proper probability measure")
    maximal: list[tuple[int, ...]] = []
    for v in sorted(set(rows), key=lambda v: (sum(v), v), reverse=True):
        if not any(all(map(ge, u, v)) for u in maximal):
            maximal.append(v)
    kept = list(maximal)
    for g in reversed(maximal):
        if in_downward_convex_hull(g, [h for h in kept if h is not g]):
            kept.remove(g)
    order = tuple(sorted(states))
    generators = tuple([SubProbabilityVector.from_ints(order, v, denominator) for v in sorted(kept)])
    object.__setattr__(hull, "generators", generators)
    object.__setattr__(hull, "state_space", tuple(states))
    return hull


def to_hull(wset: WeightedMeasureSet) -> RegularHull:
    """The regular hull of the weight * measure points (`weighted_rows`),
    pruned once.  Since MWER preferences fix a weighted set only up to this
    hull, two sets with equal hulls rank every menu alike.  Some entry must
    have weight 1 (as `normalize` gives), else ValueError."""
    rows = weighted_rows([(w, m) for m, w in wset.entries])
    return _set_vertices(object.__new__(RegularHull), wset.state_space, *rows)


def support_value(hull: RegularHull, direction: Mapping[str, Rational]) -> Fraction:
    """Maximum inner product with a nonnegative direction.

    For nonnegative directions the maximum over the downward-convex closure
    is attained at a generator, so no optimization is needed.  The
    generators and the direction are read as ints over common denominators.
    """
    converted = {s: exact(v, "direction component", s) for s, v in direction.items()}
    if set(converted) != set(hull.state_space):
        raise DimensionMismatch("direction does not cover the hull's state space")
    for state, v in converted.items():
        if v < 0:
            raise NegativeDirection(f"direction component for {state!r} is negative")
    scale, (weights,) = as_integers([[converted[s] for s in hull.generators[0].keys]])
    common, rows = over_common(hull.generators)
    return Fraction(max(sum(map(mul, row, weights)) for row in rows), common * scale)


def hull_equal(first: RegularHull, second: RegularHull) -> bool:
    """Do two hulls represent the same downward-closed convex set?  A hull
    holds its one minimal generating set, so exactly when they are `==`;
    hulls over different state spaces raise DimensionMismatch."""
    if sorted(first.state_space) != sorted(second.state_space):
        raise DimensionMismatch("hulls are defined over different state spaces")
    return first == second


def worst_weighted_regret_oracle(
    wset: WeightedMeasureSet,
) -> Callable[[Mapping[str, Rational]], Fraction]:
    """Worst-case weighted regret of a nonpositive utility vector.

    Against the menu of all nonpositive-utility acts, the per-state best is
    zero everywhere, so the regret profile of a vector b is simply -b and the
    worst-case weighted expected regret is max over entries of
    weight * (-E[b]).  This is the functional that weight recovery inverts.
    """

    def oracle(direction: Mapping[str, Rational]) -> Fraction:
        return max(w * -m.expectation(direction) for m, w in wset.entries)

    return oracle


def recover_weights(
    regret_oracle: Callable[[Mapping[str, Rational]], Fraction],
    candidates: Sequence[Measure],
    directions: Sequence[Mapping[str, Rational]],
) -> dict[Measure, Fraction]:
    """Recover canonical weights from a worst-case weighted regret oracle.

    For each candidate measure the canonical weight is the largest a with
    a * E[b] >= -oracle(b) for every nonpositive utility vector b.  Sampling
    directions gives the infimum of oracle(b) / (-E[b]) over directions with
    negative expectation: an upper approximation that shrinks monotonically
    as the direction sample grows.
    """
    checked: list[dict[str, Fraction]] = []
    for direction in directions:
        converted = {s: exact(v, "direction component", s) for s, v in direction.items()}
        for state, v in converted.items():
            if v > 0 or v < -1:
                raise ValueError(
                    f"direction component for {state!r} must lie in [-1, 0], got {v}"
                )
        checked.append(converted)
    result: dict[Measure, Fraction] = {}
    for candidate in candidates:
        if any(set(direction) != set(candidate.state_space) for direction in checked):
            raise DimensionMismatch("a direction does not cover exactly the candidate's states")
        best: Fraction | None = None
        for direction in checked:
            expectation = candidate.expectation(direction)
            if expectation >= 0:
                continue
            ratio = regret_oracle(direction) / -expectation
            if best is None or ratio < best:
                best = ratio
        if best is None:
            raise NoInformativeDirection(
                f"no sampled direction has negative expectation under {candidate!r}"
            )
        result[candidate] = best
    return result
