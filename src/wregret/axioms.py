"""Property-based verification of the preference axioms.

Each axiom is checked against a preference oracle (a decision rule plus a
fixed belief; `decisions.PreferenceOracle` does all of the scoring) over
seeded random instances together with a small curated corpus of known
counterexamples.  A `violated` verdict always carries a replayable witness;
`no-violation-found` is evidence, not proof, and the reports expose sample
counts so callers can calibrate.  The existential
clause of mixture continuity is searched over a finite mixture grid, and a
fruitless search is reported as `no-witness-in-grid` rather than `violated`.

Each axiom has one table entry: `draw` samples an `Instance` of utility
profiles (`Alternative`s) and `judge` decides it.  Curated instances, sampled
draws and `replay` of a witness all go through that one judge.  One sampling
loop and one replay serve the static axioms and menu-dependent dynamic
consistency alike: `check_mdc` builds an entry around a family of
conditional preferences from `dynamics`.  Sampled profiles are ints over the
sampler's denominator and mix, splice and give constant acts on ints, so a
sampled instance builds no `Fraction`; `Alternative.profile` gives the exact
utilities to a custom oracle or a witness's reader.  Derived menus are judged
on ints too: utility is linear in mixtures, so the mixture judges (axioms 5,
7 and 11) mix the members' int profiles and per-state best, taken from
the oracle's converted menu by `PreferenceOracle.profiles`, and compare
through its `sign`, building mixtures only for a witness.
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
from itertools import combinations
from math import lcm
from typing import Callable, Mapping, Optional, Sequence, Union

from .decisions import (
    Alternative,
    IntProfile,
    PreferenceOracle,
    Profile,
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
class Finding:
    """A judge's evidence against an instance: scores to show, params it
    found, roles it adds, and a description replacing the axiom's when set."""

    scores: Mapping[str, Fraction] = {}
    params: Mapping[str, object] = {}
    acts: Mapping[str, Alternative] = {}
    description: str = ""


Verdict = Union[str, Finding]  # "pass", "vacuous" or a Finding


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


def _reachable(values, lo: Fraction, hi: Fraction) -> Profile:
    """The values as a profile, if lotteries with utilities in [lo, hi] reach them."""
    profile = tuple(values)
    for value in profile:
        if not (lo <= value <= hi):
            raise ValueError(f"utility {value} outside the representable range [{lo}, {hi}]")
    return profile


def _mixed(a: int, b: int, x: IntProfile, h: IntProfile) -> list[int]:
    """a*x + b*h: x and h, both over L, mixed at k/m are `_mixed(k, m - k, x, h)` over m*L."""
    return [a * u + b * v for u, v in zip(x, h)]


def _mix(p: Fraction, f: Alternative, h: Alternative, named: bool = False) -> Alternative:
    """The mixture p*f + (1-p)*h; utility is linear in lotteries, so profiles
    mix.  Only a mixture a witness may show is `named` (by `mixture_name`)."""
    name = mixture_name(p, f.name, h.name) if named else "mixture"
    k, m = p.numerator, p.denominator
    common, (x, z) = over_common((f, h))
    return Alternative.from_ints(name, tuple(_mixed(k, m - k, x, z)), m * common)


def _enlarge(menu: AltMenu, *acts: Alternative) -> AltMenu:
    """The menu with each act appended unless it is already a member."""
    for act in acts:
        if act not in menu:
            menu += (act,)
    return menu


def _without(menu: AltMenu, act: Alternative) -> AltMenu:
    return tuple(a for a in menu if a != act)


class Sampler:
    """Seeded draws of alternatives, menus of them and mixture coefficients.

    Utilities lie on the grid k/d in [-1, 1] (d = UTILITY_DENOMINATOR),
    shrunk and shifted only as far as needed to fit the utility table's range.
    Every grid value is (a + b*k)/D over the one `denominator` D, and so is
    every numerator drawn: `lowered` and `never_optimal` depend on it, as they
    step and compare sampled numerators without reading their denominators.
    """

    def __init__(self, rng: random.Random, oracle: PreferenceOracle):
        self.rng = rng
        self.states = oracle.state_space
        self.hi, self.lo = utility_span(oracle.utility)
        self._counter = 0
        d = UTILITY_DENOMINATOR
        scale = min(Fraction(1), (self.hi - self.lo) / 2)
        shift = min(max(Fraction(0), self.lo + scale), self.hi - scale)
        self.denominator = lcm(shift.denominator, scale.denominator * d)
        a = shift.numerator * (self.denominator // shift.denominator)
        b = scale.numerator * (self.denominator // (scale.denominator * d))
        self._values = [a + b * k for k in range(-d, d + 1)]
        self._steps = [b * k for k in range(d + 1)]

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def alternative(self, name: str, numerators: IntProfile) -> Alternative:
        """The alternative with the numerators over the sampler's denominator."""
        return Alternative.from_ints(name, numerators, self.denominator)

    def grid_value(self) -> int:
        """A grid value, as its numerator over the sampler's denominator."""
        return self.rng.choice(self._values)

    def act(self, prefix: str = "a") -> Alternative:
        return self.alternative(self._fresh(prefix), tuple([self.grid_value() for _ in self.states]))

    def constant(self, prefix: str = "c") -> Alternative:
        value = self.grid_value()
        return self.alternative(self._fresh(prefix), (value,) * len(self.states))

    def lowered(self, numerators: IntProfile) -> IntProfile:
        """The numerators with each utility lowered by a random grid step, not below the grid."""
        floor = self._values[0]
        return tuple([max(floor, v - self.rng.choice(self._steps)) for v in numerators])

    def mixture(self) -> Fraction:
        d = self.rng.randint(2, MIXTURE_DENOMINATOR)
        k = self.rng.randint(1, d - 1)
        return Fraction(k, d)

    def menu(self, min_size: int = 2) -> AltMenu:
        size = self.rng.randint(min_size, max(min_size, MENU_SIZE))
        acts = [self.act() for _ in range(size)]
        if self.rng.random() < 0.5:
            base = self.rng.choice(acts)
            acts.append(self.alternative(self._fresh("m"), base.numerators[::-1]))
        if self.rng.random() < 0.4:
            acts.append(self.constant())
        return tuple(acts)

    def state_independent_menu(self) -> tuple[AltMenu, Alternative]:
        """A menu whose per-state outcome set is state-independent, plus a
        constant member act (cyclic assignments of one value tuple)."""
        k = len(self.states)
        values = [self.grid_value() for _ in range(max(k, 2))]
        n = len(values)
        acts = tuple(
            self.alternative(self._fresh("cyc"), tuple([values[(i + j) % n] for j in range(k)]))
            for i in range(n)
        )
        h = self.constant("h")
        return acts + (h,), h

    def menu_with_constant(self) -> tuple[AltMenu, Alternative]:
        """A menu with a constant member act, drawn first."""
        h = self.constant("h")
        return _enlarge(self.menu(), h), h

    def never_optimal(self, menu: AltMenu) -> Alternative:
        """An act never strictly optimal in a sampled menu: its per-state best, lowered."""
        best = per_state_best(a.numerators for a in menu)
        return self.alternative(self._fresh("nso"), self.lowered(best))

    def pick(self, menu: Sequence, n: int) -> list:
        return [menu[i] for i in self.rng.sample(range(len(menu)), n)]


# -- the axioms: how to draw an instance, and how to judge one ----------------------
# A draw may consult the oracle to find an instance worth judging and returns
# None when it finds none.  A judge sees only the oracle and the instance, so
# it decides sampled, curated and replayed instances alike; it re-checks every
# precondition the instance must meet.

Draw = Callable[[PreferenceOracle, Sampler], Optional[Instance]]
Judge = Callable[[PreferenceOracle, Instance], Verdict]


def _draw_picks(roles: str, min_size: int) -> Draw:
    """A sampled menu with distinct members picked for the one-letter roles."""

    def draw(o: PreferenceOracle, s: Sampler) -> Instance:
        menu = s.menu(min_size)
        return Instance(menu, dict(zip(roles, s.pick(menu, len(roles)))))

    return draw


def _judge_transitivity(o: PreferenceOracle, inst: Instance) -> Verdict:
    f, g, h, menu = inst.acts["f"], inst.acts["g"], inst.acts["h"], inst.menu
    if o.prefers(f, g, menu) < 0 or o.prefers(g, h, menu) < 0:
        return "vacuous"
    return "pass" if o.prefers(f, h, menu) >= 0 else Finding()


def _judge_completeness(o: PreferenceOracle, inst: Instance) -> Verdict:
    f, g, menu = inst.acts["f"], inst.acts["g"], inst.menu
    return "pass" if o.prefers(f, g, menu) == -o.prefers(g, f, menu) else Finding()


def _draw_extremes(o: PreferenceOracle, s: Sampler) -> Instance:
    k = len(s.states)
    better = Alternative("nontrivial_hi", (s.hi,) * k)
    worse = Alternative("nontrivial_lo", (s.lo,) * k)
    return Instance((better, worse), {"f": better, "g": worse})


def _judge_nontriviality(o: PreferenceOracle, inst: Instance) -> Verdict:
    return "pass" if o.prefers(inst.acts["f"], inst.acts["g"], inst.menu) > 0 else Finding()


def _draw_dominated(o: PreferenceOracle, s: Sampler) -> Instance:
    f = s.act("f")
    g = s.alternative("gdom", s.lowered(f.numerators))
    return Instance(_enlarge(s.menu(), f, g), {"f": f, "g": g})


def _constants(a: Alternative, name: str) -> list[Alternative]:
    """For each state, the constant alternative at a's utility there."""
    k = len(a.numerators)
    return [Alternative.from_ints(name, (n,) * k, a.denominator) for n in a.numerators]


def _judge_monotonicity(o: PreferenceOracle, inst: Instance) -> Verdict:
    f, g = inst.acts["f"], inst.acts["g"]
    # statewise precondition, queried through the oracle on constant-act pairs
    for cf, cg in zip(_constants(f, "mono_f"), _constants(g, "mono_g")):
        if o.prefers(cf, cg, (cf, cg)) < 0:
            return "vacuous"
    return "pass" if o.prefers(f, g, inst.menu) >= 0 else Finding()


def _draw_strict_chain(o: PreferenceOracle, s: Sampler) -> Optional[Instance]:
    menu = s.menu(min_size=3)
    for _ in range(8):
        f, g, h = s.pick(menu, 3)
        if o.prefers(f, g, menu) > 0 and o.prefers(g, h, menu) > 0:
            return Instance(menu, {"f": f, "g": g, "h": h})
    return None


def _judge_mixture_continuity(o: PreferenceOracle, inst: Instance) -> Verdict:
    f, g, h, menu = inst.acts["f"], inst.acts["g"], inst.acts["h"], inst.menu
    if o.prefers(f, g, menu) <= 0 or o.prefers(g, h, menu) <= 0:
        return "vacuous"
    _, (x, y, z), best = o.profiles(menu, (f, g, h))

    def first(grid, g_first: bool) -> Optional[Fraction]:
        """The first p at which p*f + (1-p)*h, over m*L for p = k/m, is strictly
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


def _draw_hedge(o: PreferenceOracle, s: Sampler) -> Optional[Instance]:
    menu = s.menu(min_size=2)
    acts = list(menu)
    s.rng.shuffle(acts)
    pair = next((pair for pair in combinations(acts, 2) if o.prefers(*pair, menu) == 0), None)
    if pair is None:
        return None
    f, g = pair
    p = s.mixture()
    mixed = _mix(p, f, g, named=True)
    return Instance(_enlarge(menu, mixed), {"f": f, "g": g, "mixture": mixed}, {"p": p})


def _judge_hedging(o: PreferenceOracle, inst: Instance) -> Verdict:
    f, g, mixed, menu = inst.acts["f"], inst.acts["g"], inst.acts["mixture"], inst.menu
    if o.prefers(f, g, _without(menu, mixed)) != 0:
        return "vacuous"
    if o.prefers(mixed, g, menu) >= 0:
        return "pass"
    return Finding({"mixture": o.rate(mixed, menu), "g": o.rate(g, menu)})


def _draw_mixed_with(common: Callable[[Sampler], Alternative]) -> Draw:
    """A sampled menu, two picked members and a mixture weight, plus the
    common act h that `common` draws first."""

    def draw(o: PreferenceOracle, s: Sampler) -> Instance:
        h = common(s)
        menu = s.menu(min_size=2)
        f, g = s.pick(menu, 2)
        return Instance(menu, {"f": f, "g": g, "h": h}, {"p": s.mixture()})

    return draw


def _judge_independence(o: PreferenceOracle, inst: Instance) -> Verdict:
    f, g, h, menu, p = inst.acts["f"], inst.acts["g"], inst.acts["h"], inst.menu, inst.params["p"]
    scale, (x, y), best = o.profiles(menu, (f, g))
    # members over L and h (not a member) over e mix at k/m over m*L*e; each
    # member mixes with h at k/m > 0, so the mixed menu's best is best mixed with h
    a, b = p.numerator * h.denominator, (p.denominator - p.numerator) * scale
    if o.prefers(f, g, menu) == o.sign(*[_mixed(a, b, v, h.numerators) for v in (x, y, best)]):
        return "pass"
    mixed_menu = tuple(_mix(p, a, h) for a in menu)
    mf, mg = _mix(p, f, h), _mix(p, g, h)
    return Finding({
        "f": o.rate(f, menu), "g": o.rate(g, menu),
        "mixed_f": o.rate(mf, mixed_menu), "mixed_g": o.rate(mg, mixed_menu),
    })


def _draw_constants_in_two_menus(o: PreferenceOracle, s: Sampler) -> Instance:
    c1, c2 = s.constant(), s.constant()
    menu = _enlarge(s.menu(), c1, c2)
    return Instance(menu, {"f": c1, "g": c2}, {"other_menu": _enlarge(s.menu(), c1, c2)})


def _draw_added(extra: Callable[[Sampler, AltMenu], Alternative]) -> Draw:
    """A sampled menu with two picked members, enlarged by one or two `extra` acts."""

    def draw(o: PreferenceOracle, s: Sampler) -> Instance:
        menu = s.menu(min_size=2)
        f, g = s.pick(menu, 2)
        added = [extra(s, menu) for _ in range(s.rng.randint(1, 2))]
        return Instance(_enlarge(menu, *added), {"f": f, "g": g}, {"base_menu": menu})

    return draw


def _same_in(other: str, scored: bool = False) -> Judge:
    """A judge that f compares with g in the menu as in the menu param `other`;
    `scored` findings show both scores in both menus."""

    def judge(o: PreferenceOracle, inst: Instance) -> Verdict:
        f, g, menu, small = inst.acts["f"], inst.acts["g"], inst.menu, inst.params[other]
        if o.prefers(f, g, small) == o.prefers(f, g, menu):
            return "pass"
        if not scored:
            return Finding()
        return Finding({
            "f_small": o.rate(f, small), "g_small": o.rate(g, small),
            "f_large": o.rate(f, menu), "g_large": o.rate(g, menu),
        })

    return judge


def _judge_boundedness(o: PreferenceOracle, inst: Instance) -> Verdict:
    hi, _ = utility_span(o.utility)
    fits = all(n <= hi * a.denominator for a in inst.menu for n in a.numerators)
    return "pass" if fits else Finding()


def _draw_indifferent_to(menu_with: Callable[[Sampler], tuple[AltMenu, Alternative]]) -> Draw:
    """A menu with its constant member h, a member f indifferent to h, and
    their mixture."""

    def draw(o: PreferenceOracle, s: Sampler) -> Optional[Instance]:
        menu, h = menu_with(s)
        f = next((f for f in menu if f != h and o.prefers(h, f, menu) == 0), None)
        if f is None:
            return None
        p = s.mixture()
        mixed = _mix(p, f, h, named=True)
        return Instance(_enlarge(menu, mixed), {"f": f, "h": h, "mixture": mixed}, {"p": p})

    return draw


def _judge_constant_mix(o: PreferenceOracle, inst: Instance) -> Verdict:
    f, h, mixed, menu = inst.acts["f"], inst.acts["h"], inst.acts["mixture"], inst.menu
    if o.prefers(h, f, _without(menu, mixed)) != 0:
        return "vacuous"
    if o.prefers(mixed, f, menu) == 0:
        return "pass"
    return Finding({"f": o.rate(f, menu), "h": o.rate(h, menu), "mixture": o.rate(mixed, menu)})


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

DELIVERY_STATES = ("one_broken", "ten_broken")


def _pair(o: PreferenceOracle, name: str, one: Fraction, ten: Fraction) -> Alternative:
    """A delivery alternative; the corpus fits only oracles whose utility range
    reaches its values and whose belief (if any) is over the delivery states."""
    if o.belief is not None and o.state_space != DELIVERY_STATES:
        raise DimensionMismatch("the curated corpus is over the delivery states")
    hi, lo = utility_span(o.utility)
    return Alternative(name, _reachable((Fraction(one), Fraction(ten)), lo, hi))


def _menu_dependence_instance(o: PreferenceOracle) -> Instance:
    cont = _pair(o, "cont", 10000, -10000)
    back = _pair(o, "back", 0, 0)
    check = _pair(o, "check", 5001, -4999)
    base = (cont, back, check)
    extended = base + (_pair(o, "new", 20000, -20000),)
    return Instance(extended, {"f": check, "g": cont}, {"base_menu": base})


def _half_mixture_of(*others: tuple[str, int, int]) -> Callable[[PreferenceOracle], Instance]:
    """The instance mixing cont and back half and half, in a menu of cont,
    that mixture, back and the `others`."""

    def build(o: PreferenceOracle) -> Instance:
        cont, back = _pair(o, "cont", 10000, -10000), _pair(o, "back", 0, 0)
        p = Fraction(1, 2)
        mixed = _mix(p, cont, back, named=True)
        menu = (cont, mixed, back) + tuple(_pair(o, *other) for other in others)
        return Instance(menu, {"f": cont, "h": back, "mixture": mixed}, {"p": p})

    return build


def _mmeu_independence_instance(o: PreferenceOracle) -> Instance:
    """Pinned hedging instance: mixing with a mirrored act reverses worst cases."""
    f = _pair(o, "steep", 1, 0)
    g = _pair(o, "flat", Fraction(2, 5), Fraction(2, 5))
    h = _pair(o, "mirror", 0, 1)
    return Instance((f, g), {"f": f, "g": g, "h": h}, {"p": Fraction(1, 2)})


# axiom id -> (description, the instance built for an oracle); building raises
# DimensionMismatch or ValueError when the corpus does not fit the oracle
_CURATED: dict[str, tuple[str, Callable[[PreferenceOracle], Instance]]] = {
    "menu": (
        "known delivery instance: an added dominated-nowhere act reverses the ranking",
        _menu_dependence_instance,
    ),
    "12": (
        "known state-independent instance: the half mixture beats both parents",
        # state-independent outcome distributions, mirrored payoffs around zero
        _half_mixture_of(("check1", -5000, 5000), ("check2", -10000, 10000)),
    ),
    "12u": (
        "known instance without state-independent distributions",
        _half_mixture_of(("check", 5001, -4999)),
    ),
    "7": (
        "pinned instance: hedging with a mirrored act reverses the comparison",
        _mmeu_independence_instance,
    ),
}


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

    def witness(instance: Instance, finding: Finding, description: str) -> Witness:
        return Witness(
            axiom, oracle.rule, entry.kind, finding.description or description, instance.menu,
            {**instance.acts, **finding.acts}, {**instance.params, **finding.params},
            finding.scores,
        )

    curated = 0
    if config.include_curated and axiom in _CURATED:
        description, build = _CURATED[axiom]
        try:
            instance = build(oracle)
        except (DimensionMismatch, ValueError):
            pass  # the corpus's utilities or states don't fit this oracle
        else:
            curated = 1
            verdict = entry.judge(oracle, instance)
            if isinstance(verdict, Finding):
                found = witness(instance, verdict, description)
                return report("violated", 0, curated, counterexample=found)

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
    return isinstance(entry.judge(oracle, Instance(w.menu, w.acts, w.params)), Finding)


# -- menu-dependent dynamic consistency -----------------------------------------------
# Splicing f on an event E with an off-event act h takes f's utilities inside
# E and h's outside.  The entry's oracle is a family's unconditional one.

def _spliced_signs(
    o: PreferenceOracle, f: Alternative, g: Alternative, menu: AltMenu, event: Event
) -> dict[Alternative, int]:
    """The comparison of f against g, both spliced off the event with each menu act."""
    inside = [s in event.members for s in o.state_space]

    def splice(a: Alternative, h: Alternative) -> Alternative:
        common, (xa, xh) = over_common((a, h))
        return Alternative.from_ints(a.name, [x if i else y for x, y, i in zip(xa, xh, inside)], common)

    return {
        h: o.prefers(splice(f, h), splice(g, h), [splice(a, h) for a in menu]) for h in menu
    }


def _mdc(family: OracleFamily) -> Axiom:
    """Dynamic consistency as an entry: the family's comparison of f and g on an
    event must equal their unconditional comparison spliced off it with each
    menu act.  The family is asked once per distinct event; where it raises
    NullEvent, it has no conditional preference to disagree with."""
    conditionals: dict[Event, Optional[PreferenceOracle]] = {}

    def draw(o: PreferenceOracle, s: Sampler) -> Instance:
        menu = s.menu(min_size=2)
        f, g = s.pick(menu, 2)
        event = [x for x in s.states if s.rng.random() < 0.5] or [s.rng.choice(s.states)]
        return Instance(menu, {"f": f, "g": g}, {"event": event})

    def judge(o: PreferenceOracle, inst: Instance) -> Verdict:
        f, g, menu, event = inst.acts["f"], inst.acts["g"], inst.menu, Event(inst.params["event"])
        if event not in conditionals:
            try:
                conditionals[event] = family(event)
            except NullEvent:
                conditionals[event] = None
        if conditionals[event] is None:
            return "vacuous"
        spliced = _spliced_signs(o, f, g, menu, event)
        signs = set(spliced.values())
        if len(signs) > 1:
            return Finding(
                params={"signs": {h.name: sign for h, sign in spliced.items()}},
                description="the spliced comparison depends on the off-event act",
            )
        conditional = conditionals[event].prefers(f, g, menu)
        if conditional == signs.pop():
            return "pass"
        h, sign = next(iter(spliced.items()))
        return Finding(params={"conditional": conditional, "spliced": sign}, acts={"h": h})

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
