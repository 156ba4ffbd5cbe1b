"""Seeded generators for the benchmark's decision problems, trees and
malformed inputs.

Everything here is plain data: a `Problem` holds exact `Fraction` values
that the reference checks in `reference.py` read directly, and
`problem_text` renders it in the `.dp` format the program parses.  The
program itself only ever sees the rendered text.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Problem:
    states: list[str]
    utility: dict[str, Fraction]                      # prize -> utility
    lotteries: dict[str, dict[str, Fraction]]         # name -> prize -> prob
    acts: dict[str, dict[str, str]]                   # name -> state -> lottery
    menus: dict[str, list[str]]
    hypotheses: dict[str, tuple[dict[str, Fraction], Fraction]]
    events: dict[str, frozenset[str]] = field(default_factory=dict)

    def profile(self, act: str) -> dict[str, Fraction]:
        """Exact expected utility of the act in every state."""
        return {
            s: sum(p * self.utility[z] for z, p in self.lotteries[lot].items())
            for s, lot in self.acts[act].items()
        }


def _fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _distribution(rng: random.Random, keys: list[str], full_support: bool) -> dict[str, Fraction]:
    low = 1 if full_support else 0
    raw = [rng.randint(low, 6) for _ in keys]
    if sum(raw) == 0:
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    return {k: Fraction(r, total) for k, r in zip(keys, raw)}


def problem(rng: random.Random, n_states: int, n_acts: int, n_hyp: int) -> Problem:
    """A random problem; the first hypothesis has weight 1 and full support,
    so every nonempty event has positive upper likelihood."""
    states = [f"s{i}" for i in range(n_states)]
    n_prizes = rng.randint(3, 5)
    values = rng.sample(range(-20, 21), n_prizes - 2) + [rng.randint(-30, -1), rng.randint(1, 30)]
    values = list(dict.fromkeys(values))
    utility = {f"z{i}": Fraction(v) for i, v in enumerate(values)}
    prizes = list(utility)
    lotteries = {}
    for i in range(rng.randint(4, 8)):
        support = rng.sample(prizes, rng.randint(1, min(3, len(prizes))))
        lotteries[f"l{i}"] = _distribution(rng, support, full_support=True)
    names = list(lotteries)
    acts = {f"a{i}": {s: rng.choice(names) for s in states} for i in range(n_acts)}
    act_names = list(acts)
    menus = {"all": act_names}
    if n_acts > 2:
        menus["part"] = sorted(rng.sample(act_names, rng.randint(2, n_acts - 1)))
    hypotheses = {"h0": (_distribution(rng, states, full_support=True), Fraction(1))}
    for i in range(1, n_hyp):
        weight = Fraction(rng.randint(1, 10), 10)
        hypotheses[f"h{i}"] = (_distribution(rng, states, full_support=False), weight)
    return Problem(states, utility, lotteries, acts, menus, hypotheses)


def random_event(rng: random.Random, states: list[str]) -> frozenset[str]:
    k = rng.randint(1, len(states))
    return frozenset(rng.sample(states, k))


def problem_text(p: Problem) -> str:
    lines = [
        "# generated benchmark problem",
        "states: " + " ".join(p.states),
        "prizes: " + " ".join(p.utility),
        "utility: " + ", ".join(f"{z} = {_fr(v)}" for z, v in p.utility.items()),
    ]
    for name, dist in p.lotteries.items():
        lines.append(f"lottery {name} = {{ " + ", ".join(f"{z}: {_fr(q)}" for z, q in dist.items()) + " }")
    for name, outcomes in p.acts.items():
        lines.append(f"act {name} = {{ " + ", ".join(f"{s}: {lot}" for s, lot in outcomes.items()) + " }")
    for name, acts in p.menus.items():
        lines.append(f"menu {name} = [ " + ", ".join(acts) + " ]")
    for name, (dist, weight) in p.hypotheses.items():
        inner = ", ".join(f"{s}: {_fr(q)}" for s, q in dist.items())
        lines.append(f"hypothesis {name} weight {_fr(weight)} = {{ {inner} }}")
    for name, members in p.events.items():
        lines.append(f"event {name} = {{ " + ", ".join(sorted(members)) + " }")
    return "\n".join(lines) + "\n"


# -- decision trees -------------------------------------------------------------

def _split(rng: random.Random, cell: list[str], halves: bool) -> tuple[list[str], list[str]]:
    shuffled = rng.sample(cell, len(cell))
    k = len(cell) // 2 if halves else rng.randint(1, len(cell) - 1)
    return sorted(shuffled[:k]), sorted(shuffled[k:])


def _event(p: Problem, members: list[str]) -> str:
    key = frozenset(members)
    for name, existing in p.events.items():
        if existing == key:
            return name
    name = f"e{len(p.events)}"
    p.events[name] = key
    return name


def _leaf(rng: random.Random, p: Problem) -> str:
    if rng.random() < 0.3:
        return f"leaf utility {rng.randint(-20, 20)}"
    return "leaf " + rng.choice(list(p.lotteries))


class _TreeGen:
    """Random trees.  With a fixed fan-out f the shape is fixed: a root
    decision with f branches, each a nature node splitting the states in
    halves, each half a decision with f branches over halves again, then
    leaves: f**3 plans in all."""

    def __init__(self, rng: random.Random, p: Problem, fanout: int | None):
        self.rng, self.p, self.fanout, self.count = rng, p, fanout, 0

    def decision(self, cell: list[str], depth: int) -> str:
        self.count += 1
        name = f"d{self.count}"
        branches = []
        for i in range(self.fanout or self.rng.randint(2, 3)):
            if self.fanout or self.rng.random() < 0.7:
                child = self.nature(cell, depth)
            else:
                child = _leaf(self.rng, self.p)
            branches.append(f"branch {name}b{i} = {child}")
        return f"decision {name} {{ " + " ".join(branches) + " }"

    def nature(self, cell: list[str], depth: int) -> str:
        if len(cell) < 2:
            return _leaf(self.rng, self.p)
        parts = []
        for block in _split(self.rng, cell, halves=self.fanout is not None):
            deeper = depth < 1 if self.fanout else depth < 2 and self.rng.random() < 0.6
            child = self.decision(block, depth + 1) if deeper else _leaf(self.rng, self.p)
            parts.append(f"on {_event(self.p, block)}: {child}")
        return "nature { " + " ".join(parts) + " }"


def tree_text(rng: random.Random, p: Problem, fanout: int | None = None) -> str:
    """A random tree over the problem's states; adds the events it uses to `p`."""
    return _TreeGen(rng, p, fanout).decision(list(p.states), 0) + "\n"


# -- malformed inputs -----------------------------------------------------------

MUTATIONS = ("undefined-lottery", "stray-token", "truncated-line", "bad-probabilities")


def malformed(rng: random.Random, text: str, kind: str) -> tuple[str, int]:
    """Break one line of a valid problem; returns the text and the 1-based
    line number a positioned diagnostic must point at."""
    lines = text.rstrip("\n").split("\n")

    def pick(prefix: str) -> int:
        return rng.choice([i for i, line in enumerate(lines) if line.startswith(prefix)])

    if kind == "undefined-lottery":
        i = pick("act ")
        lines[i] = re.sub(r": l\d+", ": no_such_lottery", lines[i], count=1)
    elif kind == "stray-token":
        i = pick("lottery ")
        lines[i] = lines[i].replace(" = ", " = @ ", 1)
    elif kind == "truncated-line":
        i = pick("hypothesis ")
        lines[i] = lines[i][: lines[i].index("{") + 4]
    elif kind == "bad-probabilities":
        i = pick("lottery ")
        lines[i] = lines[i].replace(" }", ", z0: 5 }")
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return "\n".join(lines) + "\n", i + 1
