"""Shared builders for the delivery problem and random belief generation."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from wregret import (
    Act,
    Lottery,
    Measure,
    Menu,
    UtilitySpec,
    WeightedMeasureSet,
    mwer,
    normalize,
    point_mass,
    sure,
    upper_likelihood,
)
from wregret import decisions
from wregret.dynamics import conditional_score, splice, splice_menu
from wregret.errors import ActNotInMenu, NullEvent
from wregret.dsl import ProblemDoc
from wregret.measures import as_event, is_null
from wregret.rational import format_map, format_rational

DELIVERY_STATES = ("one_broken", "ten_broken")


@pytest.fixture(scope="session")
def delivery_utility() -> UtilitySpec:
    return UtilitySpec(
        {
            "full_fee": 10000,
            "nothing": 0,
            "penalty": -10000,
            "checked_fee": 5001,
            "checked_penalty": -4999,
            "double_fee": 20000,
            "double_penalty": -20000,
        }
    )


def value_lottery(value: Fraction, u: UtilitySpec) -> Lottery:
    """A two-prize lottery whose expected utility is exactly `value`."""
    lo_prize, lo = min(u.items(), key=lambda kv: kv[1])
    hi_prize, hi = max(u.items(), key=lambda kv: kv[1])
    if not lo <= value <= hi:
        raise ValueError(f"utility {value} outside the representable range [{lo}, {hi}]")
    p = (value - lo) / (hi - lo)
    return Lottery({hi_prize: p, lo_prize: 1 - p})


def profile_act(name: str, profile: dict, u: UtilitySpec) -> Act:
    """An act whose utility profile under `u` is exactly `profile`."""
    return Act(name, {s: value_lottery(Fraction(v), u) for s, v in profile.items()})


def pair_act(name: str, one, ten) -> Act:
    """Delivery act paying `one` in the one-broken class and `ten` in the other."""
    prize_of = {
        10000: "full_fee", 0: "nothing", -10000: "penalty",
        5001: "checked_fee", -4999: "checked_penalty",
        20000: "double_fee", -20000: "double_penalty",
    }
    return Act(
        name,
        {"one_broken": sure(prize_of[one]), "ten_broken": sure(prize_of[ten])},
    )


@pytest.fixture(scope="session")
def delivery_acts() -> dict[str, Act]:
    return {
        "cont": pair_act("cont", 10000, -10000),
        "back": pair_act("back", 0, 0),
        "check": pair_act("check", 5001, -4999),
        "new": pair_act("new", 20000, -20000),
    }


@pytest.fixture(scope="session")
def base_menu(delivery_acts) -> Menu:
    return Menu([delivery_acts["cont"], delivery_acts["back"], delivery_acts["check"]])


@pytest.fixture(scope="session")
def extended_menu(delivery_acts) -> Menu:
    return Menu(
        [delivery_acts[n] for n in ("cont", "back", "check", "new")]
    )


@pytest.fixture(scope="session")
def delivery_measures() -> tuple[Measure, Measure]:
    return (
        point_mass("one_broken", DELIVERY_STATES),
        point_mass("ten_broken", DELIVERY_STATES),
    )


@pytest.fixture(scope="session")
def delivery_wset(delivery_measures) -> WeightedMeasureSet:
    one, ten = delivery_measures
    return WeightedMeasureSet([(one, 1), (ten, Fraction(1, 2))], DELIVERY_STATES)


def random_measure(rng: random.Random, states, grain: int = 12) -> Measure:
    """Uniform-ish random rational measure via sorted cuts of a grain."""
    cuts = sorted(rng.randint(0, grain) for _ in range(len(states) - 1))
    probs = {}
    prev = 0
    for state, cut in zip(states, list(cuts) + [grain]):
        probs[state] = Fraction(cut - prev, grain)
        prev = cut
    return Measure(probs)


def random_wset(rng: random.Random, states, max_measures: int = 3) -> WeightedMeasureSet:
    n = rng.randint(1, max_measures)
    entries = [
        (random_measure(rng, states), Fraction(rng.randint(1, 4), 4)) for _ in range(n)
    ]
    return normalize(WeightedMeasureSet(entries, states))


def mdc_scaling_check(
    f: Act, event, menu: Menu, h: Act, u: UtilitySpec, wset: WeightedMeasureSet
) -> tuple[Fraction, Fraction]:
    """Both sides of the spliced-menu scaling identity (they must be equal).

    Left: the unconditional score of fEh against the spliced menu.
    Right: the event's upper likelihood times the conditional score of f.
    """
    event = as_event(event)
    if f not in menu:
        raise ActNotInMenu(f"act {f.name!r} is not in the menu")
    if h not in menu:
        raise ActNotInMenu(f"act {h.name!r} is not in the menu")
    if is_null(event, wset):
        raise NullEvent("the scaling identity needs a non-null event")
    lhs = mwer(splice(f, event, h), splice_menu(menu, event, h), u, wset)
    rhs = upper_likelihood(wset, event) * conditional_score(f, event, menu, u, wset)
    return lhs, rhs


def cupcake_weight(n: int) -> Fraction:
    """Exact posterior weight of the ten-broken hypothesis after seeing the
    first n items good, in the thousand-item delivery problem: the paper's
    closed form, a reference for the general updater.

    The one-broken hypothesis keeps weight one; the ten-broken hypothesis's
    relative likelihood is C(1000-n, 10)/C(1000, 10) * 1000/(1000-n), which
    hits zero once fewer than ten unseen items remain (n >= 991).
    """
    if not 0 <= n <= 1000:
        raise ValueError("n must lie in [0, 1000]")
    if n >= 991:
        return Fraction(0)
    return Fraction(comb(1000 - n, 10), comb(1000, 10)) * Fraction(1000, 1000 - n)


def serialize_problem(doc: ProblemDoc) -> str:
    """Canonical text: sections and keys sorted, rationals in lowest terms,
    so serialize(parse(serialize(doc))) is byte-identical.

    Acts reference a named lottery whenever one with the same distribution
    exists (the lexicographically first such name), otherwise inline.
    """
    lines: list[str] = []
    lines.append("states: " + " ".join(sorted(doc.states)))
    if doc.prizes:
        lines.append("prizes: " + " ".join(sorted(doc.prizes)))
        pairs = ", ".join(
            f"{prize} = {format_rational(value)}"
            for prize, value in doc.utility.items()
            if prize in set(doc.prizes)
        )
        if pairs:
            lines.append("utility: " + pairs)
    by_value: dict[Lottery, str] = {}
    for name in sorted(doc.lotteries):
        by_value.setdefault(doc.lotteries[name], name)
        lines.append(f"lottery {name} = {format_map(doc.lotteries[name].items())}")
    for name in sorted(doc.acts):
        act = doc.acts[name]
        parts = []
        for state in sorted(act.state_space):
            lottery = act[state]
            ref = by_value.get(lottery)
            parts.append(f"{state}: {ref if ref is not None else format_map(lottery.items())}")
        lines.append(f"act {name} = {{ {', '.join(parts)} }}")
    for name in sorted(doc.menus):
        refs = ", ".join(sorted(a.name for a in doc.menus[name]))
        lines.append(f"menu {name} = [ {refs} ]")
    for name in sorted(doc.hypotheses):
        measure, weight = doc.hypotheses[name]
        lines.append(f"hypothesis {name} weight {format_rational(weight)} = {format_map(measure.items())}")
    for name in sorted(doc.events):
        members = ", ".join(sorted(doc.events[name].members))
        lines.append(f"event {name} = {{ {members} }}")
    return "\n".join(lines) + "\n"


def counting_whole_menu(monkeypatch) -> list:
    """Count the calls `numerators` makes to the whole-menu kernels."""
    calls = [0]

    def counted(kernel):
        def wrapper(*args):
            calls[0] += 1
            return kernel(*args)
        return wrapper

    for per_act, (whole, *sizes) in decisions._WHOLE_MENU.items():
        monkeypatch.setitem(decisions._WHOLE_MENU, per_act, (counted(whole), *sizes))
    return calls
