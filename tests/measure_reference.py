"""Likelihood updating and the regular hull on `Fraction` maps, kept as the
reference for the measure layer.

`wregret.measures` holds a measure as ints over one denominator and
conditions and updates on those ints.  Here a measure is a plain
`{state: Fraction}` map and a weighted set a list of (map, weight) pairs,
and every probability is a `Fraction` product or quotient, as the library
computed them before it went to ints.  The hull is the set of distinct
weight * measure points that lie outside the downward-convex hull of the
other points, ascending; membership is the library's exact simplex, which
`linfeas_reference` checks on its own.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from wregret.errors import UndefinedUpdate
from wregret.linfeas import in_downward_convex_hull
from wregret.rational import as_integers

ZERO = Fraction(0)

Map = Mapping[str, Fraction]


def event_prob(measure: Map, event: Iterable[str]) -> Fraction:
    return sum((measure[s] for s in set(event)), ZERO)


def condition(measure: Map, event: Iterable[str]) -> dict[str, Fraction]:
    event = set(event)
    p_event = event_prob(measure, event)
    if p_event == 0:
        raise UndefinedUpdate("cannot condition on a probability-zero event")
    return {s: (p / p_event if s in event else ZERO) for s, p in measure.items()}


def upper_likelihood(entries: list[tuple[Map, Fraction]], event: Iterable[str]) -> Fraction:
    event = set(event)
    return max(w * event_prob(m, event) for m, w in entries)


def likelihood_update(
    entries: list[tuple[Map, Fraction]], event: Iterable[str]
) -> list[tuple[dict[str, Fraction], Fraction]]:
    """Condition every measure and rescale its weight by its relative
    likelihood; entries that condition to one measure keep the largest
    weight, in the order of their first occurrence."""
    event = set(event)
    top = upper_likelihood(entries, event)
    if top == 0:
        raise UndefinedUpdate("update undefined: the event has upper likelihood 0")
    merged: dict[tuple, Fraction] = {}
    for measure, weight in entries:
        p_event = event_prob(measure, event)
        if p_event == 0:
            continue
        conditioned = tuple(sorted(condition(measure, event).items()))
        candidate = weight * p_event / top
        if conditioned not in merged or merged[conditioned] < candidate:
            merged[conditioned] = candidate
    return [(dict(items), w) for items, w in merged.items()]


def hull_generators(entries: list[tuple[Map, Fraction]]) -> list[tuple[Fraction, ...]]:
    """The distinct weight * measure points, in sorted state order, that lie
    outside the downward-convex hull of the others, ascending."""
    points = sorted({tuple(w * p for _, p in sorted(m.items())) for m, w in entries})
    _, rows = as_integers(points)
    return [
        point for point, row in zip(points, rows)
        if not in_downward_convex_hull(row, [other for other in rows if other != row])
    ]
