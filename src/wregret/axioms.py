"""Property-based verification of the preference axioms.

Each axiom is checked against a preference oracle (a decision rule plus a
fixed belief) over seeded random instances together with a small curated
corpus of known counterexamples.  A `violated` verdict always carries a
replayable witness; `no-violation-found` is evidence, not proof, and the
reports expose sample counts so callers can calibrate.  The existential
clause of mixture continuity is searched over a finite mixture grid, and a
fruitless search is reported as `no-witness-in-grid` rather than `violated`.
Instances are drawn, mixed and compared as utility profiles (`Alternative`);
acts made of two-prize lotteries are built only for witnesses, and `replay`
turns a witness back into profiles once.  `check_mdc` probes the dynamic
axiom, menu-dependent dynamic consistency, on profiles spliced on events.

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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from .decisions import (
    Act,
    Lottery,
    Menu,
    Profile,
    UtilitySpec,
    belief_entries,
    mixture_name,
    per_state_best,
    rule_named,
)
from .errors import ActNotInMenu, DimensionMismatch, UnknownAxiom
from .measures import (
    Event,
    Measure,
    WeightedMeasureSet,
    likelihood_update,
    normalize,
    point_mass,
    upper_likelihood,
)
from .rational import format_rational

AXIOM_IDS = tuple(str(i) for i in range(1, 13)) + ("12u", "menu")


@dataclass(frozen=True)
class GeneratorConfig:
    """Bounds for random instance generation (kept small so arithmetic stays exact)."""

    samples: int = 200
    menu_size: int = 4
    utility_denominator: int = 10
    mixture_denominator: int = 20
    include_curated: bool = True

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.menu_size > 6:
            raise ValueError("menu_size is capped at 6")
        if self.mixture_denominator > 20:
            raise ValueError("mixture_denominator is capped at 20")
        if self.utility_denominator > 10:
            raise ValueError("utility_denominator is capped at 10")


class Alternative(NamedTuple):
    """An act as the rules see it: a name and a utility profile (one exact
    utility per state, in sorted state order).  Two alternatives are the same
    menu member when both name and profile agree, as for acts."""

    name: str
    profile: Profile


AltMenu = tuple[Alternative, ...]


class PreferenceOracle:
    """A decision rule with a fixed belief, answering menu-relative comparisons.

    `prefers` compares alternatives within a menu of alternatives; `score`
    and `compare` answer the same questions for acts of a `Menu`.
    """

    def __init__(
        self,
        rule: str,
        belief,
        utility: UtilitySpec,
        state_space: Sequence[str] | None = None,
    ):
        self.rule = rule
        self.belief = belief
        self.utility = utility
        if state_space is not None:
            self.state_space = tuple(state_space)
        elif isinstance(belief, (Measure, WeightedMeasureSet)):
            self.state_space = belief.state_space
        elif belief is not None:
            self.state_space = tuple(belief)[0].state_space
        else:
            raise ValueError("state_space is required when the rule takes no belief")
        spec = rule_named(rule)
        self.lower_is_better = spec.lower_is_better
        self._score = spec.score
        self._states = tuple(sorted(self.state_space))
        self._entries = belief_entries(rule, belief, self._states)

    def rate(self, f: Alternative, menu: Sequence[Alternative]) -> Fraction:
        """The rule's score of f against the menu."""
        return self._score(f.profile, per_state_best(a.profile for a in menu), self._entries)

    def prefers(self, f: Alternative, g: Alternative, menu: Sequence[Alternative]) -> int:
        """+1 if f is strictly preferred to g in the menu, -1 if dispreferred, 0 if indifferent."""
        best = per_state_best(a.profile for a in menu)
        sf = self._score(f.profile, best, self._entries)
        sg = self._score(g.profile, best, self._entries)
        if sf == sg:
            return 0
        return 1 if (sf < sg) == self.lower_is_better else -1

    def to_alternative(self, act: Act) -> Alternative:
        """The act as the rule sees it: its name and utility profile."""
        if self.belief is not None and act.state_space != self._states:
            raise DimensionMismatch(f"act {act.name!r} is not defined over the belief's states")
        return Alternative(act.name, tuple(act.utility_profile(self.utility).values()))

    def score(self, act: Act, menu: Menu) -> Fraction:
        if act not in menu:
            raise ActNotInMenu(f"act {act.name!r} is not in the menu")
        return self.rate(self.to_alternative(act), [self.to_alternative(a) for a in menu])

    def compare(self, f: Act, g: Act, menu: Menu) -> int:
        """+1 if f is strictly preferred to g in the menu, -1 if dispreferred, 0 if indifferent."""
        for act in (f, g):
            if act not in menu:
                raise ActNotInMenu(f"act {act.name!r} is not in the menu")
        alternatives = [self.to_alternative(a) for a in menu]
        return self.prefers(self.to_alternative(f), self.to_alternative(g), alternatives)


@dataclass
class Witness:
    """A concrete instance exhibiting (or failing to witness) an axiom."""

    axiom: str
    rule: str
    kind: str  # "violation" or "no-witness-in-grid"
    description: str
    menu: Menu
    acts: dict[str, Act]
    params: dict[str, object] = field(default_factory=dict)
    scores: dict[str, Fraction] = field(default_factory=dict)

    def to_obj(self) -> dict:
        return {
            "axiom": self.axiom,
            "rule": self.rule,
            "kind": self.kind,
            "description": self.description,
            "menu": [a.name for a in self.menu],
            "acts": {role: a.name for role, a in self.acts.items()},
            "params": {k: str(v) for k, v in self.params.items()},
            "scores": {k: format_rational(v) for k, v in self.scores.items()},
        }


@dataclass
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
            "axiom": self.axiom,
            "rule": self.rule,
            "verdict": self.verdict,
            "samples": self.samples,
            "applicable": self.applicable,
            "curated": self.curated,
            "seed": self.seed,
            "counterexample": self.counterexample.to_obj() if self.counterexample else None,
            "unwitnessed": self.unwitnessed,
            "unwitnessed_example": (
                self.unwitnessed_example.to_obj() if self.unwitnessed_example else None
            ),
        }


# -- utility profiles and the lotteries that realize them ---------------------------

def utility_span(u: UtilitySpec) -> tuple[str, str, Fraction, Fraction]:
    """The best and worst prizes and their utilities: (hi_prize, lo_prize, hi, lo)."""
    items = u.items()
    lo_prize, lo = min(items, key=lambda kv: kv[1])
    hi_prize, hi = max(items, key=lambda kv: kv[1])
    return hi_prize, lo_prize, hi, lo


def _reachable(values, lo: Fraction, hi: Fraction) -> Profile:
    """The values as a profile, if lotteries with utilities in [lo, hi] reach them."""
    profile = tuple(values)
    for value in profile:
        if not (lo <= value <= hi):
            raise ValueError(f"utility {value} outside the representable range [{lo}, {hi}]")
    return profile


def value_lottery(value: Fraction, u: UtilitySpec) -> Lottery:
    """A two-prize lottery whose expected utility is exactly `value`."""
    hi_prize, lo_prize, hi, lo = utility_span(u)
    (value,) = _reachable((value,), lo, hi)
    p = (value - lo) / (hi - lo)
    return Lottery({hi_prize: p, lo_prize: 1 - p})


def profile_act(name: str, profile: Mapping[str, Fraction], u: UtilitySpec) -> Act:
    return Act(name, {s: value_lottery(Fraction(v), u) for s, v in profile.items()})


def realize(alternative: Alternative, states: Sequence[str], u: UtilitySpec) -> Act:
    """The act over the sorted `states` with the alternative's name and profile."""
    return profile_act(alternative.name, dict(zip(states, alternative.profile)), u)


def _mix(p: Fraction, f: Alternative, h: Alternative) -> Alternative:
    """The mixture p*f + (1-p)*h; utility is linear in lotteries, so profiles mix."""
    q = 1 - p
    return Alternative(
        mixture_name(p, f.name, h.name),
        tuple(p * a + q * b for a, b in zip(f.profile, h.profile)),
    )


def _enlarge(menu: AltMenu, *acts: Alternative) -> AltMenu:
    """The menu with each act appended unless it is already a member."""
    for act in acts:
        if act not in menu:
            menu += (act,)
    return menu


class Sampler:
    """Seeded draws of alternatives, menus of them and mixture coefficients.

    Utilities lie on the grid k/d in [-1, 1] (d the utility denominator),
    shrunk and shifted only as far as needed to fit the utility table's range.
    """

    def __init__(self, rng: random.Random, oracle: PreferenceOracle, config: GeneratorConfig):
        self.rng = rng
        self.config = config
        self.states = tuple(sorted(oracle.state_space))
        _, _, self.hi, self.lo = utility_span(oracle.utility)
        self._counter = 0
        d = config.utility_denominator
        scale = min(Fraction(1), (self.hi - self.lo) / 2)
        shift = min(max(Fraction(0), self.lo + scale), self.hi - scale)
        self._values = [shift + scale * Fraction(k, d) for k in range(-d, d + 1)]
        self._steps = [scale * Fraction(k, d) for k in range(d + 1)]

    @cached_property
    def grid(self) -> list[Fraction]:
        """The mixture coefficients in (0, 1) with denominators up to the bound, ascending."""
        bound = self.config.mixture_denominator
        return sorted({Fraction(k, d) for d in range(2, bound + 1) for k in range(1, d)})

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def grid_value(self) -> Fraction:
        d = self.config.utility_denominator
        return self._values[self.rng.randint(-d, d) + d]

    def act(self, prefix: str = "a") -> Alternative:
        return Alternative(self._fresh(prefix), tuple(self.grid_value() for _ in self.states))

    def constant(self, prefix: str = "c") -> Alternative:
        value = self.grid_value()
        return Alternative(self._fresh(prefix), (value,) * len(self.states))

    def lowered(self, profile: Profile) -> Profile:
        """The profile with each utility lowered by a random grid step, not below the grid."""
        d, floor = self.config.utility_denominator, self._values[0]
        return tuple(max(floor, v - self._steps[self.rng.randint(0, d)]) for v in profile)

    def mixture(self) -> Fraction:
        d = self.rng.randint(2, self.config.mixture_denominator)
        k = self.rng.randint(1, d - 1)
        return Fraction(k, d)

    def menu(self, min_size: int = 2) -> AltMenu:
        size = self.rng.randint(min_size, max(min_size, self.config.menu_size))
        acts = [self.act() for _ in range(size)]
        if self.rng.random() < 0.5:
            base = self.rng.choice(acts)
            acts.append(Alternative(self._fresh("m"), base.profile[::-1]))
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
            Alternative(self._fresh("cyc"), tuple(values[(i + j) % n] for j in range(k)))
            for i in range(n)
        )
        h = self.constant("h")
        return acts + (h,), h

    def pick(self, menu: Sequence, n: int) -> list:
        return [menu[i] for i in self.rng.sample(range(len(menu)), n)]


def _witness(
    o: PreferenceOracle, states: Sequence[str], axiom: str, description: str,
    menu: AltMenu, acts: dict[str, Alternative], params: Optional[dict] = None,
    scores: Optional[dict[str, Fraction]] = None, kind: str = "violation",
) -> Witness:
    """A witness with its alternatives realized as acts over the sorted
    `states`; params named "...menu" hold menus and are realized too."""

    def as_menu(alternatives: AltMenu) -> Menu:
        return Menu(realize(a, states, o.utility) for a in alternatives)

    params = {k: as_menu(v) if k.endswith("menu") else v for k, v in (params or {}).items()}
    acts = {role: realize(a, states, o.utility) for role, a in acts.items()}
    return Witness(axiom, o.rule, kind, description, as_menu(menu), acts, params, dict(scores or {}))


# -- per-axiom checkers ------------------------------------------------------------
# Each checker draws one instance and returns a (status, witness) pair where
# status is "pass", "vacuous", "violated" or "no-witness".

Check = tuple[str, Optional[Witness]]


def _check_transitivity(o: PreferenceOracle, s: Sampler) -> Check:
    menu = s.menu(min_size=3)
    f, g, h = s.pick(menu, 3)
    if o.prefers(f, g, menu) >= 0 and o.prefers(g, h, menu) >= 0:
        if o.prefers(f, h, menu) >= 0:
            return "pass", None
        return "violated", _witness(
            o, s.states, "1", "f>=g and g>=h but not f>=h", menu, {"f": f, "g": g, "h": h},
        )
    return "vacuous", None


def _check_completeness(o: PreferenceOracle, s: Sampler) -> Check:
    menu = s.menu(min_size=2)
    f, g = s.pick(menu, 2)
    forward, backward = o.prefers(f, g, menu), o.prefers(g, f, menu)
    if forward == -backward:
        return "pass", None
    return "violated", _witness(
        o, s.states, "2", "comparison is not a complete order", menu, {"f": f, "g": g},
    )


def _check_nontriviality(o: PreferenceOracle, s: Sampler) -> Check:
    k = len(s.states)
    better = Alternative("nontrivial_hi", (s.hi,) * k)
    worse = Alternative("nontrivial_lo", (s.lo,) * k)
    menu = (better, worse)
    if o.prefers(better, worse, menu) > 0:
        return "pass", None
    return "violated", _witness(
        o, s.states, "3", "no strict preference between prize extremes", menu,
        {"f": better, "g": worse},
    )


def _check_monotonicity(o: PreferenceOracle, s: Sampler) -> Check:
    f = s.act("f")
    g = Alternative("gdom", s.lowered(f.profile))
    menu = _enlarge(s.menu(), f, g)
    # statewise precondition, queried through the oracle on constant-act pairs
    k = len(s.states)
    for fv, gv in zip(f.profile, g.profile):
        cf, cg = Alternative("mono_f", (fv,) * k), Alternative("mono_g", (gv,) * k)
        if o.prefers(cf, cg, (cf, cg)) < 0:
            return "vacuous", None
    if o.prefers(f, g, menu) >= 0:
        return "pass", None
    return "violated", _witness(
        o, s.states, "4", "statewise-dominating act ranked strictly worse",
        menu, {"f": f, "g": g},
    )


def _check_mixture_continuity(o: PreferenceOracle, s: Sampler) -> Check:
    menu = s.menu(min_size=3)
    chain = None
    for _ in range(8):
        f, g, h = s.pick(menu, 3)
        if o.prefers(f, g, menu) > 0 and o.prefers(g, h, menu) > 0:
            chain = (f, g, h)
            break
    if chain is None:
        return "vacuous", None
    f, g, h = chain
    q_found = None
    for q in reversed(s.grid):  # near 1 first: mixtures close to f
        mixed = _mix(q, f, h)
        if o.prefers(mixed, g, _enlarge(menu, mixed)) > 0:
            q_found = q
            break
    r_found = None
    for r in s.grid:  # near 0 first: mixtures close to h
        mixed = _mix(r, f, h)
        if o.prefers(g, mixed, _enlarge(menu, mixed)) > 0:
            r_found = r
            break
    if q_found is not None and r_found is not None:
        return "pass", None
    return "no-witness", _witness(
        o, s.states, "5", "no mixture coefficient in the grid witnesses the existential",
        menu, {"f": f, "g": g, "h": h},
        {"q": q_found, "r": r_found, "grid_denominator": s.config.mixture_denominator},
        kind="no-witness-in-grid",
    )


def _indifferent_pair(
    o: PreferenceOracle, s: Sampler, menu: AltMenu
) -> Optional[tuple[Alternative, Alternative]]:
    acts = list(menu)
    s.rng.shuffle(acts)
    for i in range(len(acts)):
        for j in range(i + 1, len(acts)):
            if o.prefers(acts[i], acts[j], menu) == 0:
                return acts[i], acts[j]
    return None


def _check_hedging(o: PreferenceOracle, s: Sampler) -> Check:
    menu = s.menu(min_size=2)
    pair = _indifferent_pair(o, s, menu)
    if pair is None:
        return "vacuous", None
    f, g = pair
    p = s.mixture()
    mixed = _mix(p, f, g)
    enlarged = _enlarge(menu, mixed)
    if o.prefers(mixed, g, enlarged) >= 0:
        return "pass", None
    return "violated", _witness(
        o, s.states, "6", "hedge between indifferent acts ranked strictly worse",
        enlarged, {"f": f, "g": g, "mixture": mixed}, {"p": p},
        {"mixture": o.rate(mixed, enlarged), "g": o.rate(g, enlarged)},
    )


def _independence_instance(o: PreferenceOracle, s: Sampler, h: Alternative, axiom: str) -> Check:
    menu = s.menu(min_size=2)
    f, g = s.pick(menu, 2)
    p = s.mixture()
    lhs = o.prefers(f, g, menu)
    mixed_menu = tuple(_mix(p, a, h) for a in menu)
    mf, mg = _mix(p, f, h), _mix(p, g, h)
    rhs = o.prefers(mf, mg, mixed_menu)
    if lhs == rhs:
        return "pass", None
    return "violated", _witness(
        o, s.states, axiom, "mixing with a common act changes the comparison",
        menu, {"f": f, "g": g, "h": h}, {"p": p},
        {
            "f": o.rate(f, menu), "g": o.rate(g, menu),
            "mixed_f": o.rate(mf, mixed_menu), "mixed_g": o.rate(mg, mixed_menu),
        },
    )


def _check_independence(o: PreferenceOracle, s: Sampler) -> Check:
    return _independence_instance(o, s, s.act("h"), "7")


def _check_constant_menu_independence(o: PreferenceOracle, s: Sampler) -> Check:
    c1, c2 = s.constant(), s.constant()
    menu_a = _enlarge(s.menu(), c1, c2)
    menu_b = _enlarge(s.menu(), c1, c2)
    if o.prefers(c1, c2, menu_a) == o.prefers(c1, c2, menu_b):
        return "pass", None
    return "violated", _witness(
        o, s.states, "8", "constant-act comparison depends on the menu",
        menu_a, {"f": c1, "g": c2}, {"other_menu": menu_b},
    )


def _check_ina(o: PreferenceOracle, s: Sampler) -> Check:
    menu = s.menu(min_size=2)
    f, g = s.pick(menu, 2)
    best = per_state_best(a.profile for a in menu)
    extras = [Alternative(s._fresh("nso"), s.lowered(best)) for _ in range(s.rng.randint(1, 2))]
    enlarged = _enlarge(menu, *extras)
    if o.prefers(f, g, menu) == o.prefers(f, g, enlarged):
        return "pass", None
    return "violated", _witness(
        o, s.states, "9", "adding never-strictly-optimal acts changes the comparison",
        enlarged, {"f": f, "g": g}, {"base_menu": menu},
    )


def _check_boundedness(o: PreferenceOracle, s: Sampler) -> Check:
    menu = s.menu()
    if all(v <= s.hi for v in per_state_best(a.profile for a in menu)):
        return "pass", None
    return "violated", _witness(
        o, s.states, "10", "menu utilities exceed every lottery bound", menu, {},
    )


def _check_c_independence(o: PreferenceOracle, s: Sampler) -> Check:
    return _independence_instance(o, s, s.constant("h"), "11")


def _state_independent(menu: AltMenu) -> bool:
    per_state = [frozenset(values) for values in zip(*(a.profile for a in menu))]
    return all(p == per_state[0] for p in per_state)


def _constant_mix_instance(
    o: PreferenceOracle, s: Sampler, menu: AltMenu, h: Alternative, axiom: str
) -> Check:
    f = next((f for f in menu if f != h and o.prefers(h, f, menu) == 0), None)
    if f is None:
        return "vacuous", None
    p = s.mixture()
    mixed = _mix(p, f, h)
    enlarged = _enlarge(menu, mixed)
    if o.prefers(mixed, f, enlarged) == 0:
        return "pass", None
    return "violated", _witness(
        o, s.states, axiom,
        "mixing an act with an indifferent constant act breaks the indifference",
        enlarged, {"f": f, "h": h, "mixture": mixed}, {"p": p},
        {
            "f": o.rate(f, enlarged),
            "h": o.rate(h, enlarged),
            "mixture": o.rate(mixed, enlarged),
        },
    )


def _check_constant_mix(o: PreferenceOracle, s: Sampler) -> Check:
    menu, h = s.state_independent_menu()
    if not _state_independent(menu):  # defensive: the construction guarantees it
        return "vacuous", None
    return _constant_mix_instance(o, s, menu, h, "12")


def _check_constant_mix_unrestricted(o: PreferenceOracle, s: Sampler) -> Check:
    h = s.constant("h")
    menu = _enlarge(s.menu(), h)
    return _constant_mix_instance(o, s, menu, h, "12u")


def _check_menu_independence(o: PreferenceOracle, s: Sampler) -> Check:
    menu = s.menu(min_size=2)
    f, g = s.pick(menu, 2)
    enlarged = _enlarge(menu, *[s.act() for _ in range(s.rng.randint(1, 2))])
    if o.prefers(f, g, menu) == o.prefers(f, g, enlarged):
        return "pass", None
    return "violated", _witness(
        o, s.states, "menu", "enlarging the menu reverses the comparison",
        enlarged, {"f": f, "g": g}, {"base_menu": menu},
        scores={
            "f_small": o.rate(f, menu), "g_small": o.rate(g, menu),
            "f_large": o.rate(f, enlarged), "g_large": o.rate(g, enlarged),
        },
    )


_CHECKERS: dict[str, Callable[[PreferenceOracle, Sampler], Check]] = {
    "1": _check_transitivity,
    "2": _check_completeness,
    "3": _check_nontriviality,
    "4": _check_monotonicity,
    "5": _check_mixture_continuity,
    "6": _check_hedging,
    "7": _check_independence,
    "8": _check_constant_menu_independence,
    "9": _check_ina,
    "10": _check_boundedness,
    "11": _check_c_independence,
    "12": _check_constant_mix,
    "12u": _check_constant_mix_unrestricted,
    "menu": _check_menu_independence,
}

_STRUCTURAL = ("3", "10")


# -- curated corpus ----------------------------------------------------------------

DELIVERY_STATES = ("one_broken", "ten_broken")

DELIVERY_UTILITY = UtilitySpec(
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


def _pair(o: PreferenceOracle, name: str, one: Fraction, ten: Fraction) -> Alternative:
    """A delivery alternative; the corpus fits only oracles whose utility range
    reaches its values and whose belief (if any) is over the delivery states."""
    if o.belief is not None and tuple(sorted(o.state_space)) != DELIVERY_STATES:
        raise DimensionMismatch("the curated corpus is over the delivery states")
    _, _, hi, lo = utility_span(o.utility)
    return Alternative(name, _reachable((Fraction(one), Fraction(ten)), lo, hi))


def delivery_fixtures() -> "BeliefFixtures":
    """Standard fixtures on the two-class delivery state space."""
    one = point_mass("one_broken", DELIVERY_STATES)
    ten = point_mass("ten_broken", DELIVERY_STATES)
    return BeliefFixtures(
        utility=DELIVERY_UTILITY,
        state_space=DELIVERY_STATES,
        seu=one,
        mer=(one, ten),
        mmeu=(one, ten),
        mwer=WeightedMeasureSet([(one, 1), (ten, Fraction(1, 2))]),
    )


def _curated_menu_dependence(o: PreferenceOracle) -> Optional[Witness]:
    cont = _pair(o, "cont", 10000, -10000)
    back = _pair(o, "back", 0, 0)
    check = _pair(o, "check", 5001, -4999)
    new = _pair(o, "new", 20000, -20000)
    base = (cont, back, check)
    extended = base + (new,)
    if o.prefers(check, cont, base) == o.prefers(check, cont, extended):
        return None
    return _witness(
        o, DELIVERY_STATES, "menu",
        "known delivery instance: an added dominated-nowhere act reverses the ranking",
        extended, {"f": check, "g": cont}, {"base_menu": base},
        scores={
            "f_small": o.rate(check, base), "g_small": o.rate(cont, base),
            "f_large": o.rate(check, extended), "g_large": o.rate(cont, extended),
        },
    )


def _constant_mix_corpus(
    o: PreferenceOracle, menu: AltMenu, axiom: str, description: str
) -> Optional[Witness]:
    cont, back = menu[0], menu[2]
    if o.prefers(back, cont, menu) != 0:
        return None
    p = Fraction(1, 2)
    mixed = _mix(p, cont, back)
    enlarged = _enlarge(menu, mixed)
    if o.prefers(mixed, cont, enlarged) == 0:
        return None
    return _witness(
        o, DELIVERY_STATES, axiom, description,
        enlarged, {"f": cont, "h": back, "mixture": mixed}, {"p": p},
        {
            "f": o.rate(cont, enlarged),
            "h": o.rate(back, enlarged),
            "mixture": o.rate(mixed, enlarged),
        },
    )


def _curated_constant_mix(o: PreferenceOracle) -> Optional[Witness]:
    """State-independent outcome distributions, mirrored payoffs around zero."""
    menu = (
        _pair(o, "cont", 10000, -10000),
        _pair(o, mixture_name(Fraction(1, 2), "cont", "back"), 5000, -5000),
        _pair(o, "back", 0, 0),
        _pair(o, "check1", -5000, 5000),
        _pair(o, "check2", -10000, 10000),
    )
    if not _state_independent(menu):
        return None
    return _constant_mix_corpus(
        o, menu, "12", "known state-independent instance: the half mixture beats both parents",
    )


def _curated_constant_mix_unrestricted(o: PreferenceOracle) -> Optional[Witness]:
    menu = (
        _pair(o, "cont", 10000, -10000),
        _pair(o, mixture_name(Fraction(1, 2), "cont", "back"), 5000, -5000),
        _pair(o, "back", 0, 0),
        _pair(o, "check", 5001, -4999),
    )
    return _constant_mix_corpus(
        o, menu, "12u", "known instance without state-independent distributions",
    )


def _curated_mmeu_independence(o: PreferenceOracle) -> Optional[Witness]:
    """Pinned hedging instance: mixing with a mirrored act reverses worst cases."""
    f = _pair(o, "steep", 1, 0)
    g = _pair(o, "flat", Fraction(2, 5), Fraction(2, 5))
    h = _pair(o, "mirror", 0, 1)
    menu = (f, g)
    p = Fraction(1, 2)
    mixed_menu = (_mix(p, f, h), _mix(p, g, h))
    mf, mg = mixed_menu
    if o.prefers(f, g, menu) == o.prefers(mf, mg, mixed_menu):
        return None
    return _witness(
        o, DELIVERY_STATES, "7",
        "pinned instance: hedging with a mirrored act reverses the comparison",
        menu, {"f": f, "g": g, "h": h}, {"p": p},
        {
            "f": o.rate(f, menu), "g": o.rate(g, menu),
            "mixed_f": o.rate(mf, mixed_menu), "mixed_g": o.rate(mg, mixed_menu),
        },
    )


_CURATED: dict[str, tuple[Callable[[PreferenceOracle], Optional[Witness]], ...]] = {
    "menu": (_curated_menu_dependence,),
    "12": (_curated_constant_mix,),
    "12u": (_curated_constant_mix_unrestricted,),
    "7": (_curated_mmeu_independence,),
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
    if axiom not in _CHECKERS:
        raise UnknownAxiom(f"unknown axiom id {axiom!r}")
    config = config or GeneratorConfig()
    if len(oracle.state_space) > 6:
        raise ValueError("axiom checking is capped at 6 states")
    checker = _CHECKERS[axiom]
    sampler = Sampler(random.Random(seed), oracle, config)

    curated_count = 0
    if config.include_curated:
        for builder in _CURATED.get(axiom, ()):
            try:
                witness = builder(oracle)
            except (DimensionMismatch, ValueError):
                continue  # the corpus's utilities or states don't fit this oracle
            curated_count += 1
            if witness is not None:
                return AxiomReport(
                    axiom, oracle.rule, "violated",
                    samples=0, applicable=curated_count,
                    curated=curated_count, seed=seed, counterexample=witness,
                )

    samples = 1 if axiom in _STRUCTURAL else config.samples
    applicable = 0
    unwitnessed = 0
    unwitnessed_example: Optional[Witness] = None
    for _ in range(samples):
        status, witness = checker(oracle, sampler)
        if status == "vacuous":
            continue
        applicable += 1
        if status == "violated":
            return AxiomReport(
                axiom, oracle.rule, "violated",
                samples=samples, applicable=applicable + curated_count,
                curated=curated_count, seed=seed, counterexample=witness,
            )
        if status == "no-witness":
            unwitnessed += 1
            if unwitnessed_example is None:
                unwitnessed_example = witness
    return AxiomReport(
        axiom, oracle.rule, "no-violation-found",
        samples=samples, applicable=applicable + curated_count,
        curated=curated_count, seed=seed,
        unwitnessed=unwitnessed, unwitnessed_example=unwitnessed_example,
    )


def replay(report: AxiomReport, oracle: PreferenceOracle) -> bool:
    """Re-run a violated report's witness against the oracle.

    Returns True when the stored instance still exhibits the violating
    pattern, making `violated` verdicts independently reproducible.
    """
    w = report.counterexample
    if w is None or w.kind != "violation":
        return False
    alt = oracle.to_alternative
    menu = tuple(map(alt, w.menu))
    acts = {role: alt(a) for role, a in w.acts.items()}
    prefers = oracle.prefers
    if w.axiom == "1":
        f, g, h = acts["f"], acts["g"], acts["h"]
        return prefers(f, g, menu) >= 0 and prefers(g, h, menu) >= 0 and prefers(f, h, menu) < 0
    if w.axiom == "2":
        f, g = acts["f"], acts["g"]
        return prefers(f, g, menu) != -prefers(g, f, menu)
    if w.axiom == "3":
        return prefers(acts["f"], acts["g"], menu) <= 0
    if w.axiom == "4":
        return prefers(acts["f"], acts["g"], menu) < 0
    if w.axiom == "6":
        f, g, mixed = acts["f"], acts["g"], acts["mixture"]
        base = tuple(a for a in menu if a != mixed)  # the mixture is the one added act
        return prefers(f, g, base) == 0 and prefers(mixed, g, menu) < 0
    if w.axiom == "8":
        f, g = acts["f"], acts["g"]
        return prefers(f, g, menu) != prefers(f, g, tuple(map(alt, w.params["other_menu"])))
    if w.axiom == "10":
        _, _, hi, _ = utility_span(oracle.utility)
        return any(v > hi for v in per_state_best(a.profile for a in menu))
    if w.axiom in ("7", "11"):
        f, g, h, p = acts["f"], acts["g"], acts["h"], w.params["p"]
        mixed_menu = tuple(_mix(p, a, h) for a in menu)
        return prefers(f, g, menu) != prefers(_mix(p, f, h), _mix(p, g, h), mixed_menu)
    if w.axiom in ("9", "menu"):
        f, g = acts["f"], acts["g"]
        return prefers(f, g, tuple(map(alt, w.params["base_menu"]))) != prefers(f, g, menu)
    if w.axiom in ("12", "12u"):
        f, h, mixed = acts["f"], acts["h"], acts["mixture"]
        return prefers(h, f, menu) == 0 and prefers(mixed, f, menu) != 0
    return False


# -- menu-dependent dynamic consistency -----------------------------------------------
# A family gives the conditional preference on each event.  Splicing f on an
# event E with an off-event act h takes f's utilities inside E and h's outside.

OracleFamily = Callable[[Event], PreferenceOracle]


def likelihood_family(wset: WeightedMeasureSet, u: UtilitySpec) -> OracleFamily:
    """Conditional preferences driven by likelihood updating of the weights."""

    def family(event: Event) -> PreferenceOracle:
        return PreferenceOracle("mwer", likelihood_update(wset, event), u, wset.state_space)

    return family


def frozen_weight_family(wset: WeightedMeasureSet, u: UtilitySpec) -> OracleFamily:
    """Measure-by-measure conditioning: weights frozen, zero-likelihood entries dropped."""

    def family(event: Event) -> PreferenceOracle:
        kept = [(m.condition(event), w) for m, w in wset.entries if m.event_prob(event) != 0]
        belief = normalize(WeightedMeasureSet(kept, wset.state_space))  # merges duplicates
        return PreferenceOracle("mwer", belief, u, wset.state_space)

    return family


def _spliced_signs(
    o: PreferenceOracle, f: Alternative, g: Alternative, menu: AltMenu, event: Event
) -> dict[Alternative, int]:
    """The comparison of f against g, both spliced off the event with each menu act."""
    inside = [s in event.members for s in sorted(o.state_space)]

    def splice(a: Alternative, h: Alternative) -> Alternative:
        profile = tuple(x if i else y for x, y, i in zip(a.profile, h.profile, inside))
        return Alternative(a.name, profile)

    return {
        h: o.prefers(splice(f, h), splice(g, h), [splice(a, h) for a in menu]) for h in menu
    }


def check_mdc(
    family: OracleFamily,
    wset: WeightedMeasureSet,
    u: UtilitySpec,
    config: GeneratorConfig | None = None,
    seed: int = 0,
) -> AxiomReport:
    """Probe menu-dependent dynamic consistency on sampled instances.

    For each sampled menu, act pair and non-null event the conditional
    comparison must agree with the unconditional comparison of the spliced
    acts in the spliced menu, for every choice of the off-event act; the
    checker also verifies that the right-hand side does not depend on that
    choice.
    """
    config = config or GeneratorConfig()
    rng = random.Random(seed)
    states = tuple(sorted(wset.state_space))
    unconditional = family(Event(states))
    sampler = Sampler(rng, unconditional, config)

    applicable = 0
    for _ in range(config.samples):
        menu = sampler.menu(min_size=2)
        f, g = sampler.pick(menu, 2)
        members = [s for s in states if rng.random() < 0.5]
        if not members:
            members = [rng.choice(states)]
        event = Event(members)
        if upper_likelihood(wset, event) == 0:
            continue
        applicable += 1
        conditional = family(event).prefers(f, g, menu)
        spliced_signs = _spliced_signs(unconditional, f, g, menu, event)
        signs = set(spliced_signs.values())
        if len(signs) > 1:
            description = "the spliced comparison depends on the off-event act"
            acts = {"f": f, "g": g}
            params = {"signs": {h.name: sign for h, sign in spliced_signs.items()}}
        elif conditional != signs.pop():
            description = "conditional and spliced comparisons disagree"
            h, spliced = next(iter(spliced_signs.items()))
            acts = {"f": f, "g": g, "h": h}
            params = {"conditional": conditional, "spliced": spliced}
        else:
            continue
        witness = _witness(
            unconditional, states, "mdc", description, menu, acts,
            {"event": sorted(event.members), **params},
        )
        return AxiomReport(
            "mdc", unconditional.rule, "violated", config.samples, applicable, 0, seed, witness
        )
    return AxiomReport(
        "mdc", unconditional.rule, "no-violation-found",
        config.samples, applicable, 0, seed, None,
    )


def replay_mdc(report: AxiomReport, family: OracleFamily) -> bool:
    """Re-run a violated dynamic-consistency report against its family."""
    w = report.counterexample
    if w is None or w.kind != "violation":
        return False
    unconditional = family(Event(w.menu.state_space))
    menu = tuple(map(unconditional.to_alternative, w.menu))
    f, g = (unconditional.to_alternative(w.acts[role]) for role in ("f", "g"))
    event = Event(w.params["event"])
    signs = set(_spliced_signs(unconditional, f, g, menu, event).values())
    return len(signs) > 1 or family(event).prefers(f, g, menu) != signs.pop()


# -- the rule-by-axiom matrix ---------------------------------------------------------

@dataclass
class BeliefFixtures:
    """Beliefs (and the utility table) used to instantiate each rule's oracle."""

    utility: UtilitySpec
    state_space: Sequence[str]
    seu: Measure
    mer: tuple[Measure, ...]
    mmeu: tuple[Measure, ...]
    mwer: WeightedMeasureSet

    def __post_init__(self) -> None:
        if len(self.mer) < 2 and len(self.mmeu) < 2:
            raise ValueError("fixtures need a multi-measure belief")
        if all(w == 1 for _, w in self.mwer.entries):
            raise ValueError("fixtures need a weighted belief with a non-unit weight")

    def oracle(self, rule: str) -> PreferenceOracle:
        """The rule's oracle, with the fixture field named after the rule as its
        belief when the rule takes one."""
        belief = getattr(self, rule) if rule_named(rule).belief else None
        return PreferenceOracle(rule, belief, self.utility, self.state_space)


MATRIX_RULES = ("seu", "regret", "mer", "mwer", "mmeu")

MATRIX_COLUMNS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("ax1-6,8-10", ("1", "2", "3", "4", "5", "6", "8", "9", "10")),
    ("independence", ("7",)),
    ("c-independence", ("11",)),
    ("ax12", ("12",)),
)

_VERDICT_ORDER = {"no-violation-found": 0, "violated": 1}


@dataclass
class AxiomMatrix:
    reports: dict[tuple[str, str], AxiomReport]
    cells: dict[tuple[str, str], str]
    seed: int

    def to_obj(self) -> dict:
        return {
            "seed": self.seed,
            "cells": {
                rule: {col: self.cells[(rule, col)] for col, _ in MATRIX_COLUMNS}
                for rule in MATRIX_RULES
            },
            "reports": [r.to_obj() for r in self.reports.values()],
        }

    def to_text(self) -> str:
        marks = {"no-violation-found": "yes", "violated": "VIOLATED"}
        headers = ["rule"] + [col for col, _ in MATRIX_COLUMNS]
        rows = [
            [rule] + [marks[self.cells[(rule, col)]] for col, _ in MATRIX_COLUMNS]
            for rule in MATRIX_RULES
        ]
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
    cells: dict[tuple[str, str], str] = {}
    for ri, rule in enumerate(rules):
        oracle = fixtures.oracle(rule)
        for ci, (column, axioms) in enumerate(MATRIX_COLUMNS):
            worst = "no-violation-found"
            for ai, axiom in enumerate(axioms):
                child_seed = seed * 10007 + ri * 997 + ci * 101 + ai
                report = check_axiom(axiom, oracle, config, seed=child_seed)
                reports[(rule, axiom)] = report
                if _VERDICT_ORDER[report.verdict] > _VERDICT_ORDER[worst]:
                    worst = report.verdict
            cells[(rule, column)] = worst
    return AxiomMatrix(reports=reports, cells=cells, seed=seed)
