"""Property-based verification of the preference axioms.

Each axiom is checked against a preference oracle (a decision rule plus a
fixed belief; `decisions.PreferenceOracle` does all of the scoring) over
seeded random instances together with a small curated corpus of known
counterexamples.  A `violated` verdict always carries a replayable witness;
`no-violation-found` is evidence, not proof, and the reports expose sample
counts so callers can calibrate.  The existential
clause of mixture continuity is searched over a finite mixture grid, and a
fruitless search is reported as `no-witness-in-grid` rather than `violated`.

Each axiom has one table entry: `draw` samples an `IntInstance` and `judge`
decides it.  An `IntInstance` holds its acts as int profiles over one
denominator, the menu first, its roles and menu params as positions, and a
label per act for a name made only for a witness.  Judges compare through the
oracle's int entry points: `PreferenceOracle.prefers_at` on a whole int menu,
and `sign` for a mixed one (utility is linear in mixtures, so the mixture
judges mix members' profiles and the per-state best).  So every instance a
judge sees is born as ints: drawn, curated (the corpus is `IntInstance` data)
or replayed (`replay` converts a witness's `Alternative`s once); `_check`
builds the `Instance` of named `Alternative`s only for a witness.  One
sampling loop and one replay serve the static axioms and menu-dependent
dynamic consistency alike: `check_mdc` builds an entry around a family of
conditional preferences.  The `Sampler` draws from its generator's
`getrandbits` and `random()` alone, through one primitive (`Sampler.below`,
CPython's rejection loop for a uniform int below n), taking the ints that
`choice`, `randint`, `sample` and `shuffle` take, so a seed gives the same
reports on every Python from 3.10.
Reports, witnesses and the matrix are immutable records (`records.record`),
and so are `GeneratorConfig` and `BeliefFixtures`, which check their fields
when built.

Axiom ids: "1".."12" follow the order transitivity, completeness,
nontriviality, monotonicity, mixture continuity, hedging (ambiguity
aversion), independence, constant-act menu independence, independence of
never-strictly-optimal alternatives, menu boundedness, constant-act
independence, constant-mix indifference on state-independent menus.  Two
extra probes: "12u" drops axiom 12's state-independence requirement and
"menu" tests full menu independence of the ranking (both are known to fail
for regret-based rules; the corpus pins the standard instances).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm
from typing import Callable, Mapping, Optional, Sequence, Union

from .decisions import (
    Alternative,
    IntProfile,
    PreferenceOracle,
    UtilitySpec,
    belief_for,
    mixture_name,
    per_state_best,
)
from .dsl import ProblemDoc, parse_problem
from .dynamics import OracleFamily
from .errors import DimensionMismatch, NullEvent, UnknownAxiom
from .measures import Event, Measure, WeightedMeasureSet
from .rational import format_rational, over_common
from .records import record

# Sampling bounds, kept small so arithmetic stays exact: sampled menus hold
# up to MENU_SIZE acts, utilities lie on a grid of step 1/UTILITY_DENOMINATOR
# and mixture coefficients have denominators up to MIXTURE_DENOMINATOR.
MENU_SIZE = 4
UTILITY_DENOMINATOR = 10
MIXTURE_DENOMINATOR = 20


def _farey_interior(order: int) -> tuple[Fraction, ...]:
    """The fractions in (0, 1) with denominators up to `order`, ascending:
    the Farey sequence of that order, term by term from the next-term
    recurrence, without its ends 0 and 1."""
    terms = []
    a, b, c, d = 0, 1, 1, order
    while c < d:
        terms.append(Fraction(c, d))
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return tuple(terms)


# The mixture coefficients in (0, 1) with denominators up to the bound, ascending.
MIXTURE_GRID = _farey_interior(MIXTURE_DENOMINATOR)


@record
class GeneratorConfig:
    """How many instances to sample per axiom, and whether to judge the
    curated corpus first."""

    samples: int = 200
    include_curated: bool = True

    def _check(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


AltMenu = tuple[Alternative, ...]


@record
class Instance:
    """An axiom's instance, as a witness records it: a menu, the alternatives
    in its roles (f, g, h, mixture) and params (keys ending in "menu" hold menus)."""

    menu: AltMenu
    acts: Mapping[str, Alternative]
    params: Mapping[str, object] = {}


@record
class IntInstance:
    """An instance in int form, as draws make it and judges read it: its
    acts' profiles as ints over one denominator, the menu's `size` first,
    each act's label (`_name` gives its name), its roles as positions of
    acts, and its params (a key ending in "menu" holds positions of acts)."""

    acts: Sequence
    denominator: int
    labels: Sequence
    size: int
    roles: dict
    params: dict

    @property
    def menu(self) -> Sequence:
        return self.acts[:self.size]


def _name(labels: Sequence, k: int) -> str:
    """The name of act k from its label: a name, the (prefix, count) the
    sampler numbered the act by, or (p, i, j) for the mixture p*i + (1-p)*j."""
    label = labels[k]
    if isinstance(label, str):
        return label
    if len(label) == 2:
        return f"{label[0]}{label[1]}"
    p, i, j = label
    return mixture_name(p, _name(labels, i), _name(labels, j))


def _int_form(menu: AltMenu, acts: Mapping[str, Alternative], params: Mapping[str, object]) -> IntInstance:
    """An instance of alternatives in int form, converted once: the menu
    first, then the other acts that its roles and menu params hold."""
    menus = {key: value for key, value in params.items() if key.endswith("menu")}
    pool = list(menu) + [a for a in dict.fromkeys([*acts.values(), *chain(*menus.values())]) if a not in menu]
    positions = {**params, **{key: tuple([pool.index(a) for a in m]) for key, m in menus.items()}}
    denominator, profiles = over_common(pool)
    roles = {role: pool.index(a) for role, a in acts.items()}
    return IntInstance(profiles, denominator, [a.name for a in pool], len(menu), roles, positions)


@record
class Finding:
    """A judge's evidence against an instance: scores to show, params it
    found, roles it adds (as positions of the instance's acts), and a
    description replacing the axiom's when set."""

    scores: Mapping[str, Fraction] = {}
    params: Mapping[str, object] = {}
    acts: Mapping[str, int] = {}
    description: str = ""


Verdict = Union[str, Finding]  # "pass", "vacuous" or a Finding


def _named(s: IntInstance, finding: Finding = Finding()) -> Instance:
    """The instance as named alternatives, with a finding's roles and params added."""
    acts = [Alternative.from_ints(_name(s.labels, k), x, s.denominator) for k, x in enumerate(s.acts)]
    params = {key: tuple([acts[k] for k in v]) if key.endswith("menu") else v for key, v in s.params.items()}
    roles = {role: acts[k] for role, k in {**s.roles, **finding.acts}.items()}
    return Instance(tuple(acts[:s.size]), roles, {**params, **finding.params})


@record
class Witness:
    """A concrete instance exhibiting (or failing to witness) an axiom."""

    axiom: str
    rule: str
    kind: str  # "violation" or "no-witness-in-grid"
    description: str
    menu: AltMenu
    acts: Mapping[str, Alternative]
    params: Mapping[str, object] = {}
    scores: Mapping[str, Fraction] = {}

    def to_obj(self) -> dict:
        return {
            **self._asdict(),
            "menu": [a.name for a in self.menu],
            "acts": {role: a.name for role, a in self.acts.items()},
            "params": {k: _param_text(k, v) for k, v in self.params.items()},
            "scores": {k: format_rational(v) for k, v in self.scores.items()},
        }


def _param_text(key: str, value: object) -> str:
    """A witness param as text; menus print as the names of their members."""
    if key.endswith("menu"):
        return f"Menu([{', '.join(a.name for a in value)}])"
    return str(value)


@record
class AxiomReport:
    """Outcome of checking one axiom against one oracle.

    A violated verdict always carries a replayable counterexample.  For the
    existentially quantified clause of mixture continuity, instances whose
    grid search found no mixture coefficient are counted in `unwitnessed`
    (with one exemplar retained); they are inconclusive, not violations.
    """

    axiom: str
    rule: str
    verdict: str  # no-violation-found | violated
    samples: int
    applicable: int
    curated: int
    seed: int
    counterexample: Optional[Witness] = None
    unwitnessed: int = 0
    unwitnessed_example: Optional[Witness] = None

    def to_obj(self) -> dict:
        return {
            **self._asdict(),
            "counterexample": self.counterexample.to_obj() if self.counterexample else None,
            "unwitnessed_example": self.unwitnessed_example.to_obj() if self.unwitnessed_example else None,
        }

    def to_text(self) -> str:
        """The verdict with its counts and, under a counterexample, its
        description, menu and scores."""
        lines = [
            f"axiom {self.axiom} under {self.rule}: {self.verdict} (samples={self.samples},"
            f" applicable={self.applicable}, curated={self.curated}, seed={self.seed})"
        ]
        w = self.counterexample
        if w is not None:
            lines.append(f"  witness: {w.description}")
            lines.append(f"  menu: {', '.join(a.name for a in w.menu)}")
            if w.scores:
                scores = ", ".join(f"{k}={format_rational(v)}" for k, v in w.scores.items())
                lines.append(f"  scores: {scores}")
        return "\n".join(lines) + "\n"


# -- utility profiles ----------------------------------------------------------------

def utility_span(u: UtilitySpec) -> tuple[Fraction, Fraction]:
    """The highest and lowest utilities of the table: (hi, lo)."""
    return Fraction(max(u.numerators), u.denominator), Fraction(min(u.numerators), u.denominator)


def _mixed(a: int, b: int, x: IntProfile, h: IntProfile) -> list[int]:
    """a*x + b*h: x and h, both over L, mixed at k/m are `_mixed(k, m - k, x, h)` over m*L."""
    return [a * u + b * v for u, v in zip(x, h)]


def _with_mixture(s: IntInstance, p: Fraction, f: int, h: int) -> IntInstance:
    """The instance, its acts all in its menu, with the mixture p*f + (1-p)*h
    of acts f and h added to the menu as "mixture" and p as its one param,
    all over m*L for p = k/m and L its denominator."""
    k, m = p.numerator, p.denominator
    acts = [[m * v for v in x] for x in s.acts] + [_mixed(k, m - k, s.acts[f], s.acts[h])]
    roles = {**s.roles, "mixture": s.size}
    return IntInstance(acts, m * s.denominator, s.labels + [(p, f, h)], s.size + 1, roles, {"p": p})


class Sampler:
    """Seeded draws of int profiles, menus of them and mixture coefficients.

    Utilities lie on the grid k/d in [-1, 1] (d = UTILITY_DENOMINATOR),
    shrunk and shifted only as far as needed to fit the utility table's range.
    Every grid value is (a + b*k)/D over the one `denominator` D, and so is
    every numerator drawn: `lowered` and `never_optimal` depend on it, as they
    step and compare sampled numerators without reading their denominators.
    A drawn act is its numerators and its label, a prefix and the act's
    count, which only a witness formats into its name.

    The draw stream: every draw is `below` (inline in `_choose`) or a call
    of the generator's `random()`, and takes the ints that the call of
    `random.Random` it stands for would take (`choice`, `randint`, `sample`
    of up to 21 members, `shuffle`), in the same order.
    """

    def __init__(self, rng: random.Random, oracle: PreferenceOracle):
        self.rng = rng
        self._bits = rng.getrandbits
        self.states = oracle.state_space
        self._counter = 0
        # scale = min(1, (hi - lo)/2) and shift = min(max(0, lo + scale), hi - scale)
        # as numerators over 2U, U the utility table's denominator; D is the LCM
        # of shift's reduced denominator and d times scale's
        u, d = oracle.utility, UTILITY_DENOMINATOR
        hi, lo, twice = max(u.numerators), min(u.numerators), 2 * u.denominator
        scale = min(twice, hi - lo)
        shift = min(max(0, 2 * lo + scale), 2 * hi - scale)
        self.denominator = lcm(twice // gcd(shift, twice), twice // gcd(scale, twice) * d)
        a, b = shift * self.denominator // twice, scale * self.denominator // (twice * d)
        self._values = [a + b * k for k in range(-d, d + 1)]
        self._steps = [b * k for k in range(d + 1)]

    def below(self, n: int) -> int:
        """A uniform int in [0, n), for n >= 1: draws of n's bit length from
        `getrandbits` until one is below n, as `Random._randbelow` makes them."""
        bits, k = self._bits, n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    def _choose(self, table: Sequence, count: int) -> list:
        """`count` members of the table, each the one `rng.choice(table)`
        would draw: `below(len(table))` inline."""
        bits, n = self._bits, len(table)
        k = n.bit_length()
        drawn = []
        for _ in range(count):
            r = bits(k)
            while r >= n:
                r = bits(k)
            drawn.append(table[r])
        return drawn

    def _fresh(self, prefix: str) -> tuple[str, int]:
        self._counter += 1
        return prefix, self._counter

    def act(self, prefix: str = "a") -> tuple[list[int], tuple[str, int]]:
        return self._choose(self._values, len(self.states)), self._fresh(prefix)

    def constant(self, prefix: str = "c") -> tuple[list[int], tuple[str, int]]:
        return self._choose(self._values, 1) * len(self.states), self._fresh(prefix)

    def lowered(self, numerators: IntProfile) -> IntProfile:
        """The numerators with each utility lowered by a random grid step, not below the grid."""
        floor = self._values[0]
        steps = self._choose(self._steps, len(numerators))
        return tuple([max(floor, v - step) for v, step in zip(numerators, steps)])

    def mixture(self) -> Fraction:
        d = 2 + self.below(MIXTURE_DENOMINATOR - 1)
        return Fraction(1 + self.below(d - 1), d)

    def menu(self, min_size: int = 2) -> tuple[list, list]:
        """A menu's acts and their labels."""
        size = min_size + self.below(max(min_size, MENU_SIZE) - min_size + 1)
        k, count = len(self.states), self._counter
        values = self._choose(self._values, size * k)  # the acts' values, act by act
        acts = [values[i:i + k] for i in range(0, size * k, k)]
        labels = [("a", count + i) for i in range(1, size + 1)]
        self._counter += size
        if self.rng.random() < 0.5:
            acts.append(acts[self.below(size)][::-1])
            labels.append(self._fresh("m"))
        if self.rng.random() < 0.4:
            act, label = self.constant()
            acts.append(act)
            labels.append(label)
        return acts, labels

    def state_independent_menu(self) -> tuple[list, list, int]:
        """A menu whose per-state outcome set is state-independent, its
        labels and the position of its constant member act, its last (the
        others are cyclic assignments of one value tuple)."""
        k = len(self.states)
        values = self._choose(self._values, max(k, 2))
        n = len(values)
        acts = [[values[(i + j) % n] for j in range(k)] for i in range(n)]
        labels = [self._fresh("cyc") for _ in range(n)]
        h, label = self.constant("h")
        return acts + [h], labels + [label], n

    def menu_with_constant(self) -> tuple[list, list, int]:
        """A menu, its labels and the position of its constant member act, drawn first."""
        h, label = self.constant("h")
        acts, labels = self.menu()
        return acts + [h], labels + [label], len(acts)

    def never_optimal(self, menu: Sequence[IntProfile]) -> tuple[IntProfile, tuple[str, int]]:
        """An act never strictly optimal in a sampled menu: its per-state best, lowered."""
        return self.lowered(per_state_best(menu)), self._fresh("nso")

    def pick(self, menu: Sequence, n: int) -> list:
        """n distinct members, the ones `rng.sample(menu, n)` picks from a
        menu of up to 21 members; a larger menu raises ValueError."""
        pool, size = list(menu), len(menu)
        if not 0 <= n <= size <= 21:
            raise ValueError(f"cannot pick {n} of {size} members")
        picked = []
        for i in range(n):
            j = self.below(size - i)
            picked.append(pool[j])
            pool[j] = pool[size - i - 1]
        return picked

    def shuffled(self, items: Sequence) -> list:
        """The items in the order `rng.shuffle` leaves a list of them."""
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


# -- the axioms: how to draw an instance, and how to judge one ----------------------
# A draw may consult the oracle to find an instance worth judging and returns
# None when it finds none.  A judge sees only the oracle and the instance, so
# it decides sampled, curated and replayed instances alike; it re-checks every
# precondition the instance must meet.  Both compare acts through the oracle's
# int entry points, `prefers_at` on a whole menu and `sign` for a mixed one.

Draw = Callable[[PreferenceOracle, Sampler], Optional[IntInstance]]
Judge = Callable[[PreferenceOracle, IntInstance], Verdict]


def _prefers_in(o: PreferenceOracle, s: IntInstance, f: int, g: int, menu: Sequence[int]) -> int:
    """The comparison of acts f and g in the menu of the instance's acts at those positions."""
    return o.prefers_at(menu.index(f), menu.index(g), [s.acts[k] for k in menu], s.denominator)


def _draw_picks(roles: str, min_size: int) -> Draw:
    """A sampled menu with distinct members picked for the one-letter roles."""

    def draw(o: PreferenceOracle, s: Sampler) -> IntInstance:
        acts, labels = s.menu(min_size)
        n = len(acts)
        return IntInstance(acts, s.denominator, labels, n, dict(zip(roles, s.pick(range(n), len(roles)))), {})

    return draw


def _judge_transitivity(o: PreferenceOracle, s: IntInstance) -> Verdict:
    (f, g, h), menu, d = (s.roles[r] for r in "fgh"), s.menu, s.denominator
    if o.prefers_at(f, g, menu, d) < 0 or o.prefers_at(g, h, menu, d) < 0:
        return "vacuous"
    return "pass" if o.prefers_at(f, h, menu, d) >= 0 else Finding()


def _judge_completeness(o: PreferenceOracle, s: IntInstance) -> Verdict:
    f, g, menu, d = s.roles["f"], s.roles["g"], s.menu, s.denominator
    return "pass" if o.prefers_at(f, g, menu, d) == -o.prefers_at(g, f, menu, d) else Finding()


def _draw_extremes(o: PreferenceOracle, s: Sampler) -> IntInstance:
    u, k = o.utility, len(s.states)
    acts = [(max(u.numerators),) * k, (min(u.numerators),) * k]
    return IntInstance(acts, u.denominator, ["nontrivial_hi", "nontrivial_lo"], 2, {"f": 0, "g": 1}, {})


def _judge_nontriviality(o: PreferenceOracle, s: IntInstance) -> Verdict:
    return "pass" if o.prefers_at(s.roles["f"], s.roles["g"], s.menu, s.denominator) > 0 else Finding()


def _draw_dominated(o: PreferenceOracle, s: Sampler) -> IntInstance:
    f, label = s.act("f")
    g = s.lowered(f)
    acts, labels = s.menu()
    n = len(acts)
    return IntInstance(acts + [f, g], s.denominator, labels + [label, "gdom"], n + 2, {"f": n, "g": n + 1}, {})


def _judge_monotonicity(o: PreferenceOracle, s: IntInstance) -> Verdict:
    f, g, d = s.roles["f"], s.roles["g"], s.denominator
    k = len(s.acts[f])
    # statewise precondition, queried through the oracle on constant-act pairs
    for a, b in zip(s.acts[f], s.acts[g]):
        if o.prefers_at(0, 1, ((a,) * k, (b,) * k), d) < 0:
            return "vacuous"
    return "pass" if o.prefers_at(f, g, s.menu, d) >= 0 else Finding()


def _draw_strict_chain(o: PreferenceOracle, s: Sampler) -> Optional[IntInstance]:
    acts, labels = s.menu(min_size=3)
    n, d = len(acts), s.denominator
    for _ in range(8):
        f, g, h = s.pick(range(n), 3)
        if o.prefers_at(f, g, acts, d) > 0 and o.prefers_at(g, h, acts, d) > 0:
            return IntInstance(acts, d, labels, n, {"f": f, "g": g, "h": h}, {})
    return None


def _judge_mixture_continuity(o: PreferenceOracle, s: IntInstance) -> Verdict:
    (f, g, h), menu, d = (s.roles[r] for r in "fgh"), s.menu, s.denominator
    if o.prefers_at(f, g, menu, d) <= 0 or o.prefers_at(g, h, menu, d) <= 0:
        return "vacuous"
    x, y, z, best = menu[f], menu[g], menu[h], per_state_best(menu)

    def first(grid, g_first: bool) -> Optional[Fraction]:
        """The first p at which p*f + (1-p)*h, over m*d for p = k/m, is strictly
        preferred to g (g to it if g_first); f and h are members, so their
        mixture leaves the menu's per-state best as it is."""
        for p in grid:
            k, m = p.numerator, p.denominator
            pair = [_mixed(k, m - k, x, z), [m * v for v in y]]
            if o.sign(*(pair[::-1] if g_first else pair), [m * b for b in best]) > 0:
                return p
        return None

    q_found = first(reversed(MIXTURE_GRID), False)  # near 1 first: mixtures close to f
    r_found = first(MIXTURE_GRID, True)  # near 0 first: mixtures close to h
    if q_found is not None and r_found is not None:
        return "pass"
    return Finding(params={"q": q_found, "r": r_found, "grid_denominator": MIXTURE_DENOMINATOR})


def _draw_hedge(o: PreferenceOracle, s: Sampler) -> Optional[IntInstance]:
    acts, labels = s.menu(min_size=2)
    n, d = len(acts), s.denominator
    pair = next((pair for pair in combinations(s.shuffled(range(n)), 2) if o.prefers_at(*pair, acts, d) == 0), None)
    if pair is None:
        return None
    return _with_mixture(IntInstance(acts, d, labels, n, dict(zip("fg", pair)), {}), s.mixture(), *pair)


def _judge_hedging(o: PreferenceOracle, s: IntInstance) -> Verdict:
    f, g, mixed, menu, d = s.roles["f"], s.roles["g"], s.roles["mixture"], s.menu, s.denominator
    if _prefers_in(o, s, f, g, [k for k in range(s.size) if k != mixed]) != 0:
        return "vacuous"
    if o.prefers_at(mixed, g, menu, d) >= 0:
        return "pass"
    return Finding({"mixture": o.rate_at(mixed, menu, d), "g": o.rate_at(g, menu, d)})


def _draw_mixed_with(common: Callable[[Sampler], tuple]) -> Draw:
    """A sampled menu, two picked members and a mixture weight, plus the
    common act h, not a member, that `common` draws first."""

    def draw(o: PreferenceOracle, s: Sampler) -> IntInstance:
        h, label = common(s)
        acts, labels = s.menu(min_size=2)
        n = len(acts)
        f, g = s.pick(range(n), 2)
        roles = {"f": f, "g": g, "h": n}
        return IntInstance(acts + [h], s.denominator, labels + [label], n, roles, {"p": s.mixture()})

    return draw


def _judge_independence(o: PreferenceOracle, s: IntInstance) -> Verdict:
    (f, g, h), menu, d, p = (s.roles[r] for r in "fgh"), s.menu, s.denominator, s.params["p"]
    # the members and h, over d, mix at k/m over m*d; each member mixes with h
    # at k/m > 0, so the mixed menu's best is the menu's best mixed with h
    k, m, z = p.numerator, p.denominator, s.acts[h]
    mixed = [_mixed(k, m - k, v, z) for v in (menu[f], menu[g], per_state_best(menu))]
    if o.prefers_at(f, g, menu, d) == o.sign(*mixed):
        return "pass"
    mixed_menu = [_mixed(k, m - k, v, z) for v in menu]
    return Finding({
        "f": o.rate_at(f, menu, d), "g": o.rate_at(g, menu, d),
        "mixed_f": o.rate_at(f, mixed_menu, m * d), "mixed_g": o.rate_at(g, mixed_menu, m * d),
    })


def _draw_constants_in_two_menus(o: PreferenceOracle, s: Sampler) -> IntInstance:
    (c1, l1), (c2, l2) = s.constant(), s.constant()
    acts, labels = s.menu()
    other, other_labels = s.menu()
    n = len(acts)
    return IntInstance(
        acts + [c1, c2] + other, s.denominator, labels + [l1, l2] + other_labels, n + 2, {"f": n, "g": n + 1},
        {"other_menu": (*range(n + 2, n + 2 + len(other)), n, n + 1)},
    )


def _draw_added(extra: Callable[[Sampler, list], tuple]) -> Draw:
    """A sampled menu with two picked members, enlarged by one or two `extra` acts."""

    def draw(o: PreferenceOracle, s: Sampler) -> IntInstance:
        acts, labels = s.menu(min_size=2)
        n = len(acts)
        f, g = s.pick(range(n), 2)
        added = [extra(s, acts) for _ in range(1 + s.below(2))]
        return IntInstance(
            acts + [a for a, _ in added], s.denominator, labels + [label for _, label in added],
            n + len(added), {"f": f, "g": g}, {"base_menu": tuple(range(n))},
        )

    return draw


def _same_in(other: str, scored: bool = False) -> Judge:
    """A judge that f compares with g in the menu as in the menu param `other`;
    `scored` findings show both scores in both menus."""

    def judge(o: PreferenceOracle, s: IntInstance) -> Verdict:
        f, g, menu, d, positions = s.roles["f"], s.roles["g"], s.menu, s.denominator, s.params[other]
        small, fs, gs = [s.acts[k] for k in positions], positions.index(f), positions.index(g)
        if o.prefers_at(fs, gs, small, d) == o.prefers_at(f, g, menu, d):
            return "pass"
        if not scored:
            return Finding()
        return Finding({
            "f_small": o.rate_at(fs, small, d), "g_small": o.rate_at(gs, small, d),
            "f_large": o.rate_at(f, menu, d), "g_large": o.rate_at(g, menu, d),
        })

    return judge


def _judge_boundedness(o: PreferenceOracle, s: IntInstance) -> Verdict:
    hi, _ = utility_span(o.utility)
    bound = hi * s.denominator
    return "pass" if all(n <= bound for x in s.menu for n in x) else Finding()


def _draw_indifferent_to(menu_with: Callable[[Sampler], tuple[list, list, int]]) -> Draw:
    """A menu with its constant member h, a member f indifferent to h, and
    their mixture."""

    def draw(o: PreferenceOracle, s: Sampler) -> Optional[IntInstance]:
        acts, labels, h = menu_with(s)
        n, d = len(acts), s.denominator
        f = next((f for f in range(n) if f != h and o.prefers_at(h, f, acts, d) == 0), None)
        if f is None:
            return None
        return _with_mixture(IntInstance(acts, d, labels, n, {"f": f, "h": h}, {}), s.mixture(), f, h)

    return draw


def _judge_constant_mix(o: PreferenceOracle, s: IntInstance) -> Verdict:
    f, h, mixed, menu, d = s.roles["f"], s.roles["h"], s.roles["mixture"], s.menu, s.denominator
    if _prefers_in(o, s, h, f, [k for k in range(s.size) if k != mixed]) != 0:
        return "vacuous"
    if o.prefers_at(mixed, f, menu, d) == 0:
        return "pass"
    return Finding({"f": o.rate_at(f, menu, d), "h": o.rate_at(h, menu, d), "mixture": o.rate_at(mixed, menu, d)})


@record
class Axiom:
    draw: Draw
    judge: Judge
    description: str  # of a finding on a sampled instance
    kind: str = "violation"  # the kind of witness a finding makes


_AXIOMS: dict[str, Axiom] = {
    "1": Axiom(_draw_picks("fgh", 3), _judge_transitivity, "f>=g and g>=h but not f>=h"),
    "2": Axiom(_draw_picks("fg", 2), _judge_completeness, "comparison is not a complete order"),
    "3": Axiom(_draw_extremes, _judge_nontriviality, "no strict preference between prize extremes"),
    "4": Axiom(
        _draw_dominated, _judge_monotonicity, "statewise-dominating act ranked strictly worse"
    ),
    "5": Axiom(
        _draw_strict_chain, _judge_mixture_continuity,
        "no mixture coefficient in the grid witnesses the existential", "no-witness-in-grid",
    ),
    "6": Axiom(_draw_hedge, _judge_hedging, "hedge between indifferent acts ranked strictly worse"),
    "7": Axiom(
        _draw_mixed_with(lambda s: s.act("h")), _judge_independence,
        "mixing with a common act changes the comparison",
    ),
    "8": Axiom(
        _draw_constants_in_two_menus, _same_in("other_menu"),
        "constant-act comparison depends on the menu",
    ),
    "9": Axiom(
        _draw_added(Sampler.never_optimal), _same_in("base_menu"),
        "adding never-strictly-optimal acts changes the comparison",
    ),
    "10": Axiom(
        _draw_picks("", 2), _judge_boundedness, "menu utilities exceed every lottery bound"
    ),
    "11": Axiom(
        _draw_mixed_with(lambda s: s.constant("h")), _judge_independence,
        "mixing with a common act changes the comparison",
    ),
    "12": Axiom(
        _draw_indifferent_to(Sampler.state_independent_menu), _judge_constant_mix,
        "mixing an act with an indifferent constant act breaks the indifference",
    ),
    "12u": Axiom(
        _draw_indifferent_to(Sampler.menu_with_constant), _judge_constant_mix,
        "mixing an act with an indifferent constant act breaks the indifference",
    ),
    "menu": Axiom(
        _draw_added(lambda s, menu: s.act()), _same_in("base_menu", scored=True),
        "enlarging the menu reverses the comparison",
    ),
}

AXIOM_IDS = tuple(_AXIOMS)

_STRUCTURAL = ("3", "10")


# -- curated corpus ----------------------------------------------------------------
# The paper's standard counterexamples over the delivery states, as the int
# instances a draw makes (of tuples, so no run changes them): axiom id ->
# (description, instance).  A half mixture of cont (act 0) and back (act 2)
# carries a sampled mixture's label, so it is named 1/2*cont+1/2*back.

DELIVERY_STATES = ("one_broken", "ten_broken")

_CURATED: dict[str, tuple[str, IntInstance]] = {
    "menu": (
        "known delivery instance: an added dominated-nowhere act reverses the ranking",
        IntInstance(
            ((10000, -10000), (0, 0), (5001, -4999), (20000, -20000)), 1,
            ("cont", "back", "check", "new"), 4, {"f": 2, "g": 0}, {"base_menu": (0, 1, 2)},
        ),
    ),
    "12": (
        "known state-independent instance: the half mixture beats both parents",
        # state-independent outcome distributions, mirrored payoffs around zero
        IntInstance(
            ((10000, -10000), (5000, -5000), (0, 0), (-5000, 5000), (-10000, 10000)), 1,
            ("cont", (Fraction(1, 2), 0, 2), "back", "check1", "check2"), 5,
            {"f": 0, "h": 2, "mixture": 1}, {"p": Fraction(1, 2)},
        ),
    ),
    "12u": (
        "known instance without state-independent distributions",
        IntInstance(
            ((10000, -10000), (5000, -5000), (0, 0), (5001, -4999)), 1,
            ("cont", (Fraction(1, 2), 0, 2), "back", "check"), 4,
            {"f": 0, "h": 2, "mixture": 1}, {"p": Fraction(1, 2)},
        ),
    ),
    "7": (
        "pinned instance: hedging with a mirrored act reverses the comparison",
        # steep, flat and mirror are (1, 0), (2/5, 2/5) and (0, 1)
        IntInstance(
            ((5, 0), (2, 2), (0, 5)), 5, ("steep", "flat", "mirror"), 2,
            {"f": 0, "g": 1, "h": 2}, {"p": Fraction(1, 2)},
        ),
    ),
}


def _fits(o: PreferenceOracle, s: IntInstance) -> bool:
    """Does the corpus instance fit the oracle: the utility table's range
    [lo, hi] holds every value (lo*d <= v*U <= hi*d for v over d, lo and hi
    over U), and a belief, if any, is over the delivery states (the
    probability-free rule judges the corpus over any states)?"""
    if o.belief is not None and o.state_space != DELIVERY_STATES:
        return False
    u, d = o.utility, s.denominator
    lo, hi = min(u.numerators) * d, max(u.numerators) * d
    return all(lo <= v * u.denominator <= hi for x in s.acts for v in x)


# -- entry points -------------------------------------------------------------------

def check_axiom(
    axiom: Union[int, str],
    oracle: PreferenceOracle,
    config: GeneratorConfig | None = None,
    seed: int = 0,
) -> AxiomReport:
    """Check one axiom against an oracle: curated corpus first, then sampling."""
    axiom = str(axiom)
    if axiom not in _AXIOMS:
        raise UnknownAxiom(f"unknown axiom id {axiom!r}")
    if len(oracle.state_space) > 6:
        raise ValueError("axiom checking is capped at 6 states")
    return _check(axiom, _AXIOMS[axiom], oracle, config, seed)


def _check(
    axiom: str, entry: Axiom, oracle: PreferenceOracle, config: GeneratorConfig | None, seed: int
) -> AxiomReport:
    """Judge the axiom's curated instance, if it has one, then the sampled draws."""
    config = config or GeneratorConfig()

    def report(verdict: str, samples: int, applicable: int, **rest) -> AxiomReport:
        return AxiomReport(axiom, oracle.rule, verdict, samples, applicable, curated, seed, **rest)

    def witness(instance: IntInstance, finding: Finding, description: str) -> Witness:
        named = _named(instance, finding)
        return Witness(axiom, oracle.rule, entry.kind, finding.description or description, *named, finding.scores)

    description, instance = _CURATED.get(axiom, ("", None))
    curated = int(config.include_curated and instance is not None and _fits(oracle, instance))
    if curated:
        verdict = entry.judge(oracle, instance)
        if isinstance(verdict, Finding):
            return report("violated", 0, curated, counterexample=witness(instance, verdict, description))

    sampler = Sampler(random.Random(seed), oracle)
    samples = 1 if axiom in _STRUCTURAL else config.samples
    applicable = curated
    unwitnessed = 0
    unwitnessed_example: Optional[Witness] = None
    for _ in range(samples):
        instance = entry.draw(oracle, sampler)
        verdict = "vacuous" if instance is None else entry.judge(oracle, instance)
        if verdict == "vacuous":
            continue
        applicable += 1
        if verdict == "pass":
            continue
        if entry.kind == "violation":
            found = witness(instance, verdict, entry.description)
            return report("violated", samples, applicable, counterexample=found)
        unwitnessed += 1
        if unwitnessed_example is None:
            unwitnessed_example = witness(instance, verdict, entry.description)
    return report(
        "no-violation-found", samples, applicable,
        unwitnessed=unwitnessed, unwitnessed_example=unwitnessed_example,
    )


def replay(report: AxiomReport, oracle: PreferenceOracle) -> bool:
    """Re-judge a violated report's witness against the oracle.

    Returns True when the stored instance still exhibits the violating
    pattern, making `violated` verdicts independently reproducible.
    """
    w = report.counterexample
    return w is not None and w.axiom in _AXIOMS and _replay(_AXIOMS[w.axiom], w, oracle)


def _replay(entry: Axiom, w: Witness, oracle: PreferenceOracle) -> bool:
    """Re-judge a witness of the entry's axiom: True if it still shows a violation."""
    if w.kind != "violation":
        return False
    # a belief fixes the states; the probability-free rule judges profiles of any length
    if oracle.belief is not None and any(len(a.numerators) != len(oracle.state_space) for a in w.menu):
        raise DimensionMismatch("the witness is not over the belief's states")
    return isinstance(entry.judge(oracle, _int_form(w.menu, w.acts, w.params)), Finding)


# -- menu-dependent dynamic consistency -----------------------------------------------
# Splicing f on an event E with an off-event act h takes f's utilities inside
# E and h's outside.  The entry's oracle is a family's unconditional one.

def _spliced_signs(
    o: PreferenceOracle, f: int, g: int, menu: Sequence[IntProfile], denominator: int, event: Event
) -> list[int]:
    """The comparison of menu[f] against menu[g], both spliced off the event
    with each menu act in turn, in menu order (the profiles over the denominator)."""
    inside = [s in event.members for s in o.state_space]
    return [
        o.prefers_at(f, g, [[x if i else y for x, y, i in zip(a, h, inside)] for a in menu], denominator)
        for h in menu
    ]


def _mdc(family: OracleFamily) -> Axiom:
    """Dynamic consistency as an entry: the family's comparison of f and g on an
    event must equal their unconditional comparison spliced off it with each
    menu act.  The family is asked once per distinct event; where it raises
    NullEvent, it has no conditional preference to disagree with."""
    conditionals: dict[Event, Optional[PreferenceOracle]] = {}

    def draw(o: PreferenceOracle, s: Sampler) -> IntInstance:
        acts, labels = s.menu(min_size=2)
        n = len(acts)
        f, g = s.pick(range(n), 2)
        event = [x for x in s.states if s.rng.random() < 0.5] or [s.states[s.below(len(s.states))]]
        return IntInstance(acts, s.denominator, labels, n, {"f": f, "g": g}, {"event": event})

    def judge(o: PreferenceOracle, s: IntInstance) -> Verdict:
        f, g, menu, d, event = s.roles["f"], s.roles["g"], s.menu, s.denominator, Event(s.params["event"])
        if event not in conditionals:
            try:
                conditionals[event] = family(event)
            except NullEvent:
                conditionals[event] = None
        if conditionals[event] is None:
            return "vacuous"
        signs = _spliced_signs(o, f, g, menu, d, event)
        if len(set(signs)) > 1:
            return Finding(
                params={"signs": {_name(s.labels, k): sign for k, sign in enumerate(signs)}},
                description="the spliced comparison depends on the off-event act",
            )
        conditional = conditionals[event].prefers_at(f, g, menu, d)
        if conditional == signs[0]:
            return "pass"
        return Finding(params={"conditional": conditional, "spliced": signs[0]}, acts={"h": 0})

    return Axiom(draw, judge, "conditional and spliced comparisons disagree")


def check_mdc(
    family: OracleFamily,
    wset: WeightedMeasureSet,
    config: GeneratorConfig | None = None,
    seed: int = 0,
) -> AxiomReport:
    """Probe menu-dependent dynamic consistency on sampled instances over
    the weighted set's states.

    For each sampled menu, act pair and event that the family does not
    reject as null (by raising NullEvent), the conditional comparison must
    agree with the unconditional comparison of the spliced acts in the
    spliced menu, for every choice of the off-event act; the checker also
    verifies that the right-hand side does not depend on that choice.
    Unlike `check_axiom`, it has no cap on the states.
    """
    return _check("mdc", _mdc(family), family(Event(sorted(wset.state_space))), config, seed)


def replay_mdc(report: AxiomReport, family: OracleFamily) -> bool:
    """Re-run a violated dynamic-consistency report against its family."""
    w = report.counterexample
    if w is None:
        return False
    try:
        conditional = family(Event(w.params["event"]))  # the one event the judge asks about
    except NullEvent:  # the family has no conditional preference there to violate
        return False
    return _replay(_mdc(lambda event: conditional), w, family(Event(conditional.state_space)))


# -- the rule-by-axiom matrix ---------------------------------------------------------

@record
class BeliefFixtures:
    """Beliefs (and the utility table) used to instantiate each rule's oracle:
    the measures (the first alone for a single-measure rule) and a weighted
    set."""

    utility: UtilitySpec
    state_space: Sequence[str]
    measures: tuple[Measure, ...]
    weighted: WeightedMeasureSet

    def _check(self) -> None:
        if len(self.measures) < 2:
            raise ValueError("fixtures need a multi-measure belief")
        if all(w == 1 for _, w in self.weighted.entries):
            raise ValueError("fixtures need a weighted belief with a non-unit weight")

    def oracle(self, rule: str) -> PreferenceOracle:
        """The rule's oracle, with the belief of the kind the rule takes."""
        belief = belief_for(rule, lambda: self.measures[0], lambda: self.measures, lambda: self.weighted)
        return PreferenceOracle(rule, belief, self.utility, self.state_space)


def belief_fixtures(doc: ProblemDoc) -> BeliefFixtures:
    """A problem document's fixtures: its utility table and states, its
    hypotheses' measures in name order, and its weighted set."""
    measures = doc.measures()
    if len(measures) < 2:
        raise ValueError("axiom fixtures need at least two hypotheses")
    return BeliefFixtures(doc.utility, doc.states, measures, doc.weighted_set())


def delivery_fixtures() -> BeliefFixtures:
    """The checker's default fixtures, those of the bundled
    `delivery_weighted.dp`.  Only this reads a bundled file, so the
    resource machinery `fixtures` imports is loaded here, not with the CLI."""
    from .fixtures import fixture_text

    return belief_fixtures(parse_problem(fixture_text("delivery_weighted.dp")))


MATRIX_RULES = ("seu", "regret", "mer", "mwer", "mmeu")

MATRIX_COLUMNS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("ax1-6,8-10", ("1", "2", "3", "4", "5", "6", "8", "9", "10")),
    ("independence", ("7",)),
    ("c-independence", ("11",)),
    ("ax12", ("12",)),
)


@record
class AxiomMatrix:
    """Each (rule, axiom)'s report in the order checked, and the seed; cells are read from the reports."""

    reports: Mapping[tuple[str, str], AxiomReport]
    seed: int

    @property
    def rules(self) -> tuple[str, ...]:
        """The rules the matrix was built with, in order: its rows."""
        return tuple(dict.fromkeys(rule for rule, _ in self.reports))

    @property
    def cells(self) -> dict[tuple[str, str], str]:
        """The verdict of every (rule, column), rows and columns in order."""
        return {
            (rule, column): "violated"
            if any(self.reports[(rule, axiom)].verdict == "violated" for axiom in axioms)
            else "no-violation-found"
            for rule in self.rules
            for column, axioms in MATRIX_COLUMNS
        }

    def to_obj(self) -> dict:
        cells = self.cells
        return {
            "seed": self.seed,
            "cells": {rule: {col: cells[(rule, col)] for col, _ in MATRIX_COLUMNS} for rule in self.rules},
            "reports": [r.to_obj() for r in self.reports.values()],
        }

    def to_text(self) -> str:
        marks = {"no-violation-found": "yes", "violated": "VIOLATED"}
        headers = ["rule"] + [col for col, _ in MATRIX_COLUMNS]
        cells = self.cells
        rows = [[rule] + [marks[cells[(rule, col)]] for col, _ in MATRIX_COLUMNS] for rule in self.rules]
        widths = [max(len(r[i]) for r in [headers] + rows) for i in range(len(headers))]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for row in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines) + "\n"


def axiom_matrix(
    rules: Sequence[str] = MATRIX_RULES,
    fixtures: BeliefFixtures | None = None,
    seed: int = 0,
    config: GeneratorConfig | None = None,
) -> AxiomMatrix:
    """Check every rule against every matrix column and aggregate verdicts."""
    fixtures = fixtures or delivery_fixtures()
    config = config or GeneratorConfig()
    reports: dict[tuple[str, str], AxiomReport] = {}
    for ri, rule in enumerate(rules):
        oracle = fixtures.oracle(rule)
        for ci, (_, axioms) in enumerate(MATRIX_COLUMNS):
            for ai, axiom in enumerate(axioms):
                child_seed = seed * 10007 + ri * 997 + ci * 101 + ai
                reports[(rule, axiom)] = check_axiom(axiom, oracle, config, seed=child_seed)
    return AxiomMatrix(reports, seed)
