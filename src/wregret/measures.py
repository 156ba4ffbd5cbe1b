"""Weighted sets of probability measures and their sub-probability geometry.

The core representation is a finite set of (measure, weight) pairs with
weights in [0, 1], normalized so the largest weight is exactly 1.  Updating
on an event conditions each measure and rescales its weight by the relative
likelihood of the event.  The same information can be viewed geometrically:
each pair (Pr, w) spans the segment of sub-probability vectors from 0 to
w*Pr, and the downward-closed convex hull of those segments is the canonical
object behind worst-case weighted regret.  All arithmetic is exact, and the
hull tests give the simplex the generators from `rational.as_integers`.
"""

from __future__ import annotations

from fractions import Fraction
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
from .rational import as_integers, format_map, format_rational

Rational = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def _exact(value: Rational, what: str, state: str | None = None) -> Fraction:
    """The value as a Fraction.  A float, or any other type than int,
    Fraction and str, raises TypeError naming the value and its state."""
    if not isinstance(value, (int, Fraction, str)):
        where = "" if state is None else f" for state {state!r}"
        raise TypeError(f"{what} {value!r}{where} is not an int, a Fraction or a string")
    return Fraction(value)


class Event:
    """A subset of state labels."""

    __slots__ = ("_members",)

    def __init__(self, members: Iterable[str]):
        self._members = frozenset(members)

    @property
    def members(self) -> frozenset[str]:
        return self._members

    def __contains__(self, state: str) -> bool:
        return state in self._members

    def __and__(self, other: "Event") -> "Event":
        return Event(self._members & other._members)

    def __or__(self, other: "Event") -> "Event":
        return Event(self._members | other._members)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Event) and self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def __repr__(self) -> str:
        return f"Event({{{', '.join(sorted(self._members))}}})"


EventLike = Union[Event, Iterable[str]]


def as_event(event: EventLike) -> Event:
    """The event itself, or the event made of an iterable of state labels."""
    return event if isinstance(event, Event) else Event(event)


class Measure:
    """A probability measure on a finite state space.

    The mapping is total: every state of the ambient space appears, possibly
    with probability zero, and the values sum to exactly one.
    """

    __slots__ = ("_probs", "_items")

    def __init__(self, probs: Mapping[str, Rational]):
        converted = {state: _exact(p, "probability", state) for state, p in probs.items()}
        for state, p in converted.items():
            if p < 0:
                raise ValueError(f"negative probability {p} for state {state!r}")
        total = sum(converted.values(), ZERO)
        if total != 1:
            raise ValueError(f"probabilities sum to {format_rational(total)}, expected 1/1")
        self._probs = converted
        self._items = tuple(sorted(converted.items()))

    @property
    def state_space(self) -> tuple[str, ...]:
        return tuple(state for state, _ in self._items)

    def __getitem__(self, state: str) -> Fraction:
        return self._probs[state]

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        return self._items

    def event_prob(self, event: EventLike) -> Fraction:
        event = as_event(event)
        unknown = event.members - self._probs.keys()
        if unknown:
            raise DimensionMismatch(f"event mentions unknown states {sorted(unknown)}")
        return sum((self._probs[s] for s in event.members), ZERO)

    def condition(self, event: EventLike) -> "Measure":
        """Conditional measure given the event; requires positive probability."""
        event = as_event(event)
        p_event = self.event_prob(event)
        if p_event == 0:
            raise UndefinedUpdate("cannot condition on a probability-zero event")
        return Measure(
            {s: (p / p_event if s in event else ZERO) for s, p in self._probs.items()}
        )

    def expectation(self, values: Mapping[str, Rational]) -> Fraction:
        total = ZERO
        for s, p in self._probs.items():
            if p:
                total += p * values[s]
        return Fraction(total)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Measure) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}: {format_rational(p)}" for s, p in self._items)
        return f"Measure({{{inner}}})"


def point_mass(state: str, state_space: Sequence[str]) -> Measure:
    """The measure concentrated on a single state."""
    return Measure({s: (ONE if s == state else ZERO) for s in state_space})


class WeightedMeasureSet:
    """A finite set of probability measures, each carrying a weight in [0, 1]."""

    __slots__ = ("_entries", "_states")

    def __init__(
        self,
        entries: Iterable[tuple[Measure, Rational]],
        state_space: Sequence[str] | None = None,
    ):
        entries = tuple((m, _exact(w, "weight")) for m, w in entries)
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
        self._entries = entries
        self._states = states

    @property
    def entries(self) -> tuple[tuple[Measure, Fraction], ...]:
        return self._entries

    @property
    def state_space(self) -> tuple[str, ...]:
        return self._states

    def _canonical(self) -> tuple:
        """Sorted (measure items, weight) pairs; the items fix the state set too."""
        return tuple(sorted(((m.items(), w) for m, w in self._entries)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeightedMeasureSet) and self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        inner = ", ".join(f"({m!r}, {format_rational(w)})" for m, w in self._entries)
        return f"WeightedMeasureSet([{inner}])"


def normalize(wset: WeightedMeasureSet) -> WeightedMeasureSet:
    """Rescale weights so the maximum is 1 and collapse duplicate measures.

    Duplicates keep the largest weight among their occurrences, mirroring the
    supremum in the updated-weight definition.
    """
    top = max(w for _, w in wset.entries)
    if top == 0:
        raise AllZeroWeights("cannot normalize a set whose weights are all zero")
    merged: dict[Measure, Fraction] = {}
    for measure, weight in wset.entries:
        scaled = weight / top
        if measure not in merged or merged[measure] < scaled:
            merged[measure] = scaled
    return WeightedMeasureSet(tuple(merged.items()), wset.state_space)


def upper_likelihood(wset: WeightedMeasureSet, event: EventLike) -> Fraction:
    """Largest weight-scaled probability of the event across the set."""
    event = as_event(event)
    return max(w * m.event_prob(event) for m, w in wset.entries)


def likelihood_update(wset: WeightedMeasureSet, event: EventLike) -> WeightedMeasureSet:
    """Condition every measure on the event and rescale weights by likelihood.

    The weight of a conditioned measure is the largest weight * Pr(event)
    among the entries that condition to it, divided by the set's upper
    likelihood of the event.  Measures giving the event probability zero are
    dropped; the result is normalized as built (its largest weight is 1).
    """
    event = as_event(event)
    top = upper_likelihood(wset, event)
    if top == 0:
        raise UndefinedUpdate("update undefined: the event has upper likelihood 0")
    merged: dict[Measure, Fraction] = {}
    for measure, weight in wset.entries:
        p_event = measure.event_prob(event)
        if p_event == 0:
            continue
        conditioned = measure.condition(event)
        candidate = weight * p_event / top
        if conditioned not in merged or merged[conditioned] < candidate:
            merged[conditioned] = candidate
    return WeightedMeasureSet(tuple(merged.items()), wset.state_space)


def sequential_update(
    wset: WeightedMeasureSet, first: EventLike, second: EventLike
) -> WeightedMeasureSet:
    """Update on two events one after the other.

    Equals a single update on the intersection whenever that update is
    defined; the property suite exercises this identity.
    """
    first = as_event(first)
    second = as_event(second)
    if upper_likelihood(wset, first & second) == 0:
        raise UndefinedUpdate("update undefined: the intersection has upper likelihood 0")
    return likelihood_update(likelihood_update(wset, first), second)


class SubProbabilityVector:
    """Nonnegative mass per state, totalling at most one."""

    __slots__ = ("_values", "_items")

    def __init__(self, values: Mapping[str, Rational]):
        converted = {state: _exact(v, "mass", state) for state, v in values.items()}
        for state, v in converted.items():
            if v < 0:
                raise ValueError(f"negative mass {v} for state {state!r}")
        if sum(converted.values(), ZERO) > 1:
            raise ValueError("sub-probability mass exceeds 1")
        self._values = converted
        self._items = tuple(sorted(converted.items()))

    @property
    def state_space(self) -> tuple[str, ...]:
        return tuple(state for state, _ in self._items)

    def __getitem__(self, state: str) -> Fraction:
        return self._values[state]

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        return self._items

    def total(self) -> Fraction:
        return sum(self._values.values(), ZERO)

    def dot(self, direction: Mapping[str, Rational]) -> Fraction:
        return sum((v * _exact(direction[s], "direction component", s)
                    for s, v in self._values.items()), ZERO)

    def vector(self, order: Sequence[str]) -> list[Fraction]:
        return [self._values[s] for s in order]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubProbabilityVector) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}: {format_rational(v)}" for s, v in self._items)
        return f"SubProbabilityVector({{{inner}}})"


class RegularHull:
    """Generator view of a downward-closed convex set of sub-probability vectors.

    The represented set is the downward closure of the generators' convex
    hull.  `to_hull` keeps only vertices of that closure: no generator it
    returns lies in the downward-convex hull of the others.  The constructor
    does not prune, so a hand-built hull may also list dominated or inner
    points.  At least one generator must be a proper probability measure
    (total mass one).
    """

    __slots__ = ("_generators", "_states")

    def __init__(self, generators: Iterable[SubProbabilityVector], state_space: Sequence[str]):
        generators = tuple(generators)
        states = tuple(state_space)
        ordered = tuple(sorted(states))
        if not generators:
            raise EmptySet("a hull needs at least one generator")
        for g in generators:
            if g.state_space != ordered:
                raise DimensionMismatch(
                    f"generator over {g.state_space} does not match state space {ordered}"
                )
        if all(g.total() != 1 for g in generators):
            raise ValueError("a regular hull must contain a proper probability measure")
        self._generators = generators
        self._states = states

    @property
    def generators(self) -> tuple[SubProbabilityVector, ...]:
        return self._generators

    @property
    def state_space(self) -> tuple[str, ...]:
        return self._states

    def __repr__(self) -> str:
        return f"RegularHull({len(self._generators)} generators over {self._states})"


def _is_vertex(g: tuple[int, ...], others: list[tuple[int, ...]]) -> bool:
    """Does a coordinate, the all-ones vector or g itself score g strictly
    above every other point?  Then g is outside their downward-convex hull."""
    return (
        not others
        or any(g[d] > max(h[d] for h in others) for d in range(len(g)))
        or sum(g) > max(map(sum, others))
        or all(sum(a * a for a in g) > sum(a * b for a, b in zip(g, h)) for h in others)
    )


def to_hull(wset: WeightedMeasureSet) -> RegularHull:
    """The regular hull of the weight * measure points, kept to its vertices.

    The points go over one denominator as distinct int vectors.  A point
    that another dominates componentwise is dropped: a dominator has the
    larger total, so a sweep by descending total compares each point with
    the maximal points found so far.  A maximal point that `_is_vertex`
    certifies against the others kept is kept without an LP; any other is
    dropped when the simplex puts it in the downward-convex hull of the
    others kept.  Dropping such a point never shrinks the hull, so in any
    order the kept points are exactly those outside the downward-convex
    hull of all the other points, the vertices of the downward hull that
    no other point reaches.  They become the generators, ascending.
    """
    order = tuple(sorted(wset.state_space))
    denominator, rows = as_integers([[w * m[s] for s in order] for m, w in wset.entries])
    maximal: list[tuple[int, ...]] = []
    for v in sorted(set(rows), key=lambda v: (-sum(v), v)):
        if not any(all(a >= b for a, b in zip(u, v)) for u in maximal):
            maximal.append(v)
    kept = list(maximal)
    for g in maximal:
        others = [h for h in kept if h != g]
        if not _is_vertex(g, others) and in_downward_convex_hull(g, others):
            kept.remove(g)
    generators = [
        SubProbabilityVector({s: Fraction(n, denominator) for s, n in zip(order, v)})
        for v in sorted(kept)
    ]
    return RegularHull(generators, wset.state_space)


def support_value(hull: RegularHull, direction: Mapping[str, Rational]) -> Fraction:
    """Maximum inner product with a nonnegative direction.

    For nonnegative directions the maximum over the downward-convex closure
    is attained at a generator, so no optimization is needed.
    """
    converted = {s: _exact(v, "direction component", s) for s, v in direction.items()}
    if set(converted) != set(hull.state_space):
        raise DimensionMismatch("direction does not cover the hull's state space")
    for state, v in converted.items():
        if v < 0:
            raise NegativeDirection(f"direction component for {state!r} is negative")
    return max(g.dot(converted) for g in hull.generators)


def hull_equal(first: RegularHull, second: RegularHull) -> bool:
    """Do two hulls represent the same downward-closed convex set?

    Checked by exact mutual containment: every generator of each hull lies in
    the other's downward-convex closure.  That closure is convex and
    downward closed, so containing a hull's generators means containing the
    hull, and the generators need no pruning first.  A generator that is
    also one of the other hull's is contained without solving an LP.
    """
    if sorted(first.state_space) != sorted(second.state_space):
        raise DimensionMismatch("hulls are defined over different state spaces")
    order = tuple(sorted(first.state_space))
    _, vectors = as_integers([g.vector(order) for g in first.generators + second.generators])
    vecs_a = vectors[: len(first.generators)]
    vecs_b = vectors[len(first.generators):]

    def contained(vecs: list[tuple[int, ...]], hull: list[tuple[int, ...]]) -> bool:
        members = set(hull)
        return all(v in members or in_downward_convex_hull(v, hull) for v in vecs)

    return contained(vecs_a, vecs_b) and contained(vecs_b, vecs_a)


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
        converted = {s: _exact(v, "direction component", s) for s, v in direction.items()}
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


# -- canonical serialization ---------------------------------------------------

def hull_text(hull: RegularHull) -> str:
    lines = ["states: " + " ".join(sorted(hull.state_space))]
    for g in sorted(hull.generators, key=lambda g: g.items()):
        lines.append(f"generator = {format_map(g.items())}")
    return "\n".join(lines) + "\n"
