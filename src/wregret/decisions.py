"""Acts, lotteries, menus and the regret-based decision rules.

An act maps every state to a finite-support lottery over prizes; a utility
table turns lotteries into exact expected utilities, so every rule sees an
act only through its utility profile.  Regret of an act in a state is the
gap to the best utility any menu act achieves there, which makes every
regret-family score menu-dependent.  Five rules are provided:

  seu    expected utility under a single measure            (maximize)
  mmeu   worst-case expected utility over a set             (maximize)
  regret worst-case regret over states, no probabilities    (minimize)
  mer    worst-case expected regret over a set of measures  (minimize)
  mwer   worst case of weight-scaled expected regrets       (minimize)

`RULES` maps each name to its kernel, belief kind and orientation, and
`belief_for` picks the belief of the kind a rule takes.  A
`PreferenceOracle` binds a rule to a belief and is the one place where
utility profiles become scores: with `measures.weighted_rows` it reads its
belief once into integer entries (D, rows), puts each menu's profiles over
the LCM L of their denominators, and runs a kernel that returns an int N
whose score is N/(D*L), so no rounding is ever needed, `rank` ties on the
ints N, and a `Fraction` is built only for a returned score.  It scores
`Alternative`s (a name and a profile), so `rank`, the per-act rules, the axiom checker,
decision-tree plans and the simulator's probe table all score through it.
An `Alternative` holds its profile as ints over one denominator (a whole
menu's, from `as_alternatives`); its exact `Fraction` `profile`, which
custom oracles read, is built only when something reads it.
The rules share kernels (mer is mwer with every weight one), so their
degeneration identities are tested against an independent re-derivation of
the five rules kept in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import ActNotInMenu, BeliefKindMismatch, DimensionMismatch, UnknownPrize
from .measures import Measure, WeightedMeasureSet, weighted_rows
from .rational import as_integers, format_decimal, format_rational

Rational = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


class UtilitySpec:
    """Utility table over prizes; needs at least two distinct values."""

    __slots__ = ("_utils",)

    def __init__(self, prize_utils: Mapping[str, Rational]):
        utils = {prize: Fraction(v) for prize, v in prize_utils.items()}
        if len(set(utils.values())) < 2:
            raise ValueError("a utility table needs two prizes with distinct utilities")
        self._utils = utils

    def __getitem__(self, prize: str) -> Fraction:
        try:
            return self._utils[prize]
        except KeyError:
            raise UnknownPrize(f"no utility assigned to prize {prize!r}") from None

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple(sorted(self._utils.items()))

    def utility(self, lottery: "Lottery") -> Fraction:
        return sum((p * self[prize] for prize, p in lottery.items()), ZERO)

    def rescaled(self, scale: Rational, shift: Rational) -> "UtilitySpec":
        scale = Fraction(scale)
        shift = Fraction(shift)
        return UtilitySpec({prize: scale * v + shift for prize, v in self._utils.items()})


class Lottery:
    """A finite-support probability over prizes."""

    __slots__ = ("_items",)

    def __init__(self, probs: Mapping[str, Rational]):
        converted = {prize: Fraction(p) for prize, p in probs.items()}
        for prize, p in converted.items():
            if p < 0:
                raise ValueError(f"negative probability {p} for prize {prize!r}")
        total = sum(converted.values(), ZERO)
        if total != 1:
            raise ValueError(f"lottery probabilities sum to {format_rational(total)}")
        self._items = tuple(sorted((prize, p) for prize, p in converted.items() if p))

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        return self._items

    def mix(self, weight: Rational, other: "Lottery") -> "Lottery":
        weight = Fraction(weight)
        probs: dict[str, Fraction] = {}
        for prize, p in self._items:
            probs[prize] = weight * p
        for prize, p in other._items:
            probs[prize] = probs.get(prize, ZERO) + (1 - weight) * p
        return Lottery(probs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lottery) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{prize}: {format_rational(p)}" for prize, p in self._items)
        return f"Lottery({{{inner}}})"


def sure(prize: str) -> Lottery:
    """The degenerate lottery on one prize."""
    return Lottery({prize: 1})


class Act:
    """A named assignment of one lottery to every state."""

    __slots__ = ("name", "_outcomes", "_items", "_profiles")

    def __init__(self, name: str, outcomes: Mapping[str, Lottery]):
        if not name:
            raise ValueError("acts need a nonempty name")
        self.name = name
        self._outcomes = dict(outcomes)
        self._items = tuple(sorted(self._outcomes.items(), key=lambda kv: kv[0]))
        self._profiles: dict[UtilitySpec, Mapping[str, Fraction]] = {}

    @property
    def state_space(self) -> tuple[str, ...]:
        return tuple(state for state, _ in self._items)

    def __getitem__(self, state: str) -> Lottery:
        return self._outcomes[state]

    def items(self) -> tuple[tuple[str, Lottery], ...]:
        return self._items

    def utility_profile(self, u: UtilitySpec) -> Mapping[str, Fraction]:
        """Expected utility per state, in sorted state order (read-only)."""
        profile = self._profiles.get(u)
        if profile is None:
            profile = MappingProxyType({state: u.utility(lottery) for state, lottery in self._items})
            self._profiles[u] = profile
        return profile

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Act) and self.name == other.name and self._items == other._items

    def __hash__(self) -> int:
        return hash((self.name, self._items))

    def __repr__(self) -> str:
        return f"Act({self.name!r})"


def constant_act(name: str, lottery: Lottery, state_space: Sequence[str]) -> Act:
    return Act(name, {state: lottery for state in state_space})


class Menu:
    """A finite, explicitly listed set of named acts over one state space."""

    __slots__ = ("_acts",)

    def __init__(self, acts: Iterable[Act]):
        acts = tuple(acts)
        if not acts:
            raise ValueError("a menu needs at least one act")
        space = acts[0].state_space
        names = set()
        for act in acts:
            if act.state_space != space:
                raise DimensionMismatch(
                    f"act {act.name!r} is not defined over the menu's state space"
                )
            if act.name in names:
                raise ValueError(f"duplicate act name {act.name!r} in menu")
            names.add(act.name)
        self._acts = acts

    @property
    def acts(self) -> tuple[Act, ...]:
        return self._acts

    @property
    def state_space(self) -> tuple[str, ...]:
        return self._acts[0].state_space

    def __iter__(self):
        return iter(self._acts)

    def __len__(self) -> int:
        return len(self._acts)

    def __contains__(self, act: Act) -> bool:
        return any(a == act for a in self._acts)

    def with_act(self, act: Act) -> "Menu":
        """The menu enlarged by one act (identity if already present)."""
        if act in self:
            return self
        return Menu(self._acts + (act,))

    def best_profile(self, u: UtilitySpec) -> Mapping[str, Fraction]:
        """Per-state maximum utility achieved by any menu act (read-only)."""
        profiles = [act.utility_profile(u) for act in self._acts]
        return MappingProxyType(
            {state: max(profile[state] for profile in profiles) for state in self.state_space}
        )

    def __repr__(self) -> str:
        return f"Menu([{', '.join(a.name for a in self._acts)}])"


# -- the regret calculus -------------------------------------------------------

def act_utility(act: Act, u: UtilitySpec, state: str) -> Fraction:
    """Expected utility of the lottery the act assigns to the state."""
    if state not in act.state_space:
        raise DimensionMismatch(f"state {state!r} is not in the act's state space")
    return u.utility(act[state])


def _position(menu: Sequence, member) -> int:
    """The index of an act or alternative in a menu of them."""
    try:
        return menu.index(member)
    except ValueError:
        raise ActNotInMenu(f"act {member.name!r} is not in the menu") from None


def regret(act: Act, state: str, menu: Menu, u: UtilitySpec) -> Fraction:
    """Gap between the best menu utility in the state and the act's utility."""
    _position(menu.acts, act)  # raises ActNotInMenu for a non-member
    best = max(act_utility(g, u, state) for g in menu)
    return best - act_utility(act, u, state)


def regret_profile(act: Act, menu: Menu, u: UtilitySpec) -> dict[str, Fraction]:
    _position(menu.acts, act)  # raises ActNotInMenu for a non-member
    best = menu.best_profile(u)
    profile = act.utility_profile(u)
    return {state: best[state] - profile[state] for state in menu.state_space}


def max_regret(act: Act, menu: Menu, u: UtilitySpec) -> Fraction:
    """Probability-free worst-case regret, the maximum over states."""
    return _score_of("regret", act, menu, u, None)


def expected_regret(act: Act, menu: Menu, u: UtilitySpec, pr: Measure) -> Fraction:
    return _score_of("mer", act, menu, u, (pr,))


def mer(act: Act, menu: Menu, u: UtilitySpec, measures: Iterable[Measure]) -> Fraction:
    """Worst-case expected regret over an (unweighted) set of measures."""
    return _score_of("mer", act, menu, u, tuple(measures))


def mwer(act: Act, menu: Menu, u: UtilitySpec, wset: WeightedMeasureSet) -> Fraction:
    """Worst-case weight-scaled expected regret over a weighted set."""
    return _score_of("mwer", act, menu, u, wset)


def seu(act: Act, u: UtilitySpec, pr: Measure) -> Fraction:
    """Subjective expected utility under a single measure."""
    return _score_of("seu", act, Menu([act]), u, pr)


def mmeu(act: Act, u: UtilitySpec, measures: Iterable[Measure]) -> Fraction:
    """Worst-case expected utility over a set of measures."""
    return _score_of("mmeu", act, Menu([act]), u, tuple(measures))


def _score_of(rule: str, act: Act, menu: Menu, u: UtilitySpec, belief: Belief) -> Fraction:
    return PreferenceOracle(rule, belief, u, menu.state_space).score(act, menu)


# -- the rule table --------------------------------------------------------------
# A profile is a tuple of exact utilities in sorted state order; a kernel sees
# it over the menu's denominator L.  An entry row is one measure's
# weight x probability x D, in sorted state order.

Profile = tuple[Fraction, ...]
IntProfile = tuple[int, ...]


def _worst_utility(x: IntProfile, best: IntProfile, rows: Sequence[IntProfile]) -> int:
    return min(sum(map(mul, row, x)) for row in rows)


def _worst_regret(x: IntProfile, best: IntProfile, rows: Sequence[IntProfile]) -> int:
    return max(map(sub, best, x))


def _worst_weighted_regret(x: IntProfile, best: IntProfile, rows: Sequence[IntProfile]) -> int:
    regrets = list(map(sub, best, x))
    return max(sum(map(mul, row, regrets)) for row in rows)


class Rule(NamedTuple):
    """A decision rule: its integer kernel, the belief kind it takes
    ("measure", "measures", "weighted" or None for no belief), and its
    orientation.  The kernel takes an act's profile and the menu's per-state
    best, both as ints over the menu's denominator L, and the rows of the
    belief's integer entries (D, rows); it returns an int N, and the score is
    N/(D*L)."""

    score: Callable[[IntProfile, IntProfile, Sequence[IntProfile]], int]
    belief: Optional[str]
    lower_is_better: bool


RULES: dict[str, Rule] = {
    "seu": Rule(_worst_utility, "measure", False),
    "mmeu": Rule(_worst_utility, "measures", False),
    "regret": Rule(_worst_regret, None, True),
    "mer": Rule(_worst_weighted_regret, "measures", True),
    "mwer": Rule(_worst_weighted_regret, "weighted", True),
}


def rule_named(rule: str) -> Rule:
    try:
        return RULES[rule]
    except KeyError:
        raise BeliefKindMismatch(f"unknown rule {rule!r}") from None


def belief_for(
    rule: str,
    measure: Callable[[], Measure],
    measures: Callable[[], Sequence[Measure]],
    weighted: Callable[[], WeightedMeasureSet],
) -> Belief:
    """The belief of the kind the rule takes: None for a probability-free
    rule, else what that kind's callable returns (the others are not called)."""
    builders = {"measure": measure, "measures": measures, "weighted": weighted}
    kind = rule_named(rule).belief
    return None if kind is None else builders[kind]()


def per_state_best(profiles: Iterable[Profile]) -> Profile:
    """The per-state maximum of a menu's profiles."""
    return tuple(map(max, zip(*profiles)))


def _belief_entries(
    rule: str, belief: Belief, state_space: Optional[Sequence[str]]
) -> tuple[tuple[str, ...], int, tuple[IntProfile, ...]]:
    """The sorted states and the belief read as integer entries (D, rows)
    over them, after checking that the belief's kind fits the rule and that
    its measures live on `state_space` (the belief's own when None)."""
    kind = rule_named(rule).belief
    if kind is None:
        if belief is not None:
            raise BeliefKindMismatch(f"probability-free {rule} takes no belief")
        pairs = []
    elif kind == "measure":
        if not isinstance(belief, Measure):
            raise BeliefKindMismatch(f"{rule} needs a single Measure belief")
        pairs = [(ONE, belief)]
    elif kind == "weighted":
        if not isinstance(belief, WeightedMeasureSet):
            raise BeliefKindMismatch(f"{rule} needs a WeightedMeasureSet belief")
        pairs = [(w, m) for m, w in belief.entries]
    else:
        pairs = [(ONE, m) for m in belief] if isinstance(belief, Iterable) else []
        if not pairs or not all(isinstance(m, Measure) for _, m in pairs):
            raise BeliefKindMismatch(f"{rule} needs a collection of Measures")
    if state_space is None:
        if not pairs:
            raise ValueError("state_space is required when the rule takes no belief")
        state_space = pairs[0][1].state_space
    states = tuple(sorted(state_space))
    if any(m.state_space != states for _, m in pairs):
        raise DimensionMismatch(f"the {rule} belief and the acts use different state spaces")
    common, rows = weighted_rows(pairs)
    return states, common, tuple(rows)


# -- the oracle ----------------------------------------------------------------

class Alternative:
    """An act as the rules see it: a name and a utility profile (one exact
    utility per state, in sorted state order), held as the ints `numerators`
    over one positive `denominator`.

    `Alternative(name, profile)` converts int or `Fraction` utilities once;
    `from_ints` keeps its ints as given, unreduced, so a sampler's draws stay
    over its denominator.  Any other type raises TypeError.  The `Fraction`
    `profile` is built only when read.  An alternative is immutable, hashable
    and equal to any with the same name and rational profile.
    """

    __slots__ = ("name", "numerators", "denominator", "_profile")

    def __init__(self, name: str, profile: Sequence[Union[int, Fraction]]):
        profile = tuple(profile)
        for v in profile:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"utility {v!r} of {name!r} is not an int or a Fraction")
        denominator, (numerators,) = as_integers([profile])
        _set_name(self, name)
        _set_numerators(self, numerators)
        _set_denominator(self, denominator)
        _set_profile(self, None)

    @classmethod
    def from_ints(cls, name: str, numerators: IntProfile, denominator: int) -> "Alternative":
        """The alternative whose utilities are the numerators over the denominator."""
        numerators = tuple(numerators)
        for n in numerators:
            if type(n) is not int:
                raise TypeError(f"numerator {n!r} of {name!r} is not an int")
        if denominator < 1:
            raise ValueError(f"the denominator {denominator} is not positive")
        self = object.__new__(cls)
        _set_name(self, name)
        _set_numerators(self, numerators)
        _set_denominator(self, denominator)
        _set_profile(self, None)
        return self

    @property
    def profile(self) -> Profile:
        profile = self._profile
        if profile is None:
            d = self.denominator
            profile = tuple([Fraction(n, d) for n in self.numerators])
            _set_profile(self, profile)
        return profile

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"an Alternative is immutable (cannot set {key!r})")

    def __delattr__(self, key: str) -> None:
        raise AttributeError(f"an Alternative is immutable (cannot delete {key!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alternative):
            return NotImplemented
        x, y, d, e = self.numerators, other.numerators, self.denominator, other.denominator
        if self.name != other.name or len(x) != len(y):
            return False
        return all(a * e == b * d for a, b in zip(x, y))

    def __hash__(self) -> int:
        d = self.denominator
        g = gcd(d, *self.numerators)
        return hash((self.name, d // g, tuple([n // g for n in self.numerators])))

    def __reduce__(self):
        return Alternative.from_ints, (self.name, self.numerators, self.denominator)

    def __repr__(self) -> str:
        return f"Alternative(name={self.name!r}, profile={self.profile!r})"


# An immutable Alternative sets its own slots through their descriptors.
_set_name, _set_numerators, _set_denominator, _set_profile = (
    Alternative.__dict__[slot].__set__ for slot in Alternative.__slots__
)


def as_alternatives(names: Sequence[str], profiles: Sequence[Profile]) -> tuple[Alternative, ...]:
    """The named profiles as alternatives over one denominator (`as_integers`)."""
    denominator, rows = as_integers(profiles)
    return tuple([Alternative.from_ints(name, row, denominator) for name, row in zip(names, rows)])


class PreferenceOracle:
    """A decision rule with a fixed belief: the one place where utility
    profiles become scores.

    A menu here is a sequence of alternatives over the oracle's sorted
    `state_space`.  `scores` scores a whole menu; `rate` and `prefers` put
    the menu over one denominator and score only the members asked about,
    which must be in the menu.  `score` and `compare` answer the same
    questions for the acts of a `Menu`.
    """

    def __init__(
        self,
        rule: str,
        belief: Belief,
        utility: UtilitySpec,
        state_space: Sequence[str] | None = None,
    ):
        self.rule = rule
        self.belief = belief
        self.utility = utility
        self.state_space, self._common, self._rows = _belief_entries(rule, belief, state_space)
        self._score, _, self.lower_is_better = RULES[rule]
        self._last_menu: Optional[tuple] = None  # the last tuple menu, converted
        self._last_over: tuple = ()

    def _over_menu(self, menu: Sequence[Alternative]) -> tuple[int, IntProfile, Sequence[IntProfile]]:
        """The denominator D*L of every score in the menu, the menu's per-state
        best and its profiles, all as ints over the LCM L of the members'
        denominators.  The conversion of a tuple menu is kept for the next
        call that asks about the same tuple (the members are immutable)."""
        if menu is self._last_menu:
            return self._last_over
        scale = lcm(*{a.denominator for a in menu})
        profiles = [
            a.numerators if a.denominator == scale
            else tuple([n * (scale // a.denominator) for n in a.numerators])
            for a in menu
        ]
        over = (self._common * scale, per_state_best(profiles), profiles)
        if type(menu) is tuple:
            self._last_menu, self._last_over = menu, over
        return over

    def scores(self, menu: Sequence[Alternative]) -> dict[str, Fraction]:
        """The rule's score of every member of a menu with unique names;
        a repeated name raises ValueError."""
        return self._scored(menu)[1]

    def _scored(self, menu: Sequence[Alternative]) -> tuple[dict[str, int], dict[str, Fraction]]:
        """Each member's score numerator over one denominator, and its score, by name."""
        denominator, best, profiles = self._over_menu(menu)
        numerators: dict[str, int] = {}
        for a, x in zip(menu, profiles):
            if a.name in numerators:
                raise ValueError(f"duplicate name {a.name!r} in the menu")
            numerators[a.name] = self._score(x, best, self._rows)
        return numerators, {name: Fraction(n, denominator) for name, n in numerators.items()}

    def rate(self, f: Alternative, menu: Sequence[Alternative]) -> Fraction:
        """The rule's score of the member f against the menu."""
        i = _position(menu, f)
        denominator, best, profiles = self._over_menu(menu)
        return Fraction(self._score(profiles[i], best, self._rows), denominator)

    def prefers(self, f: Alternative, g: Alternative, menu: Sequence[Alternative]) -> int:
        """+1 if f is strictly preferred to g in the menu, -1 if dispreferred, 0 if indifferent."""
        i, j = _position(menu, f), _position(menu, g)
        _, best, profiles = self._over_menu(menu)
        nf = self._score(profiles[i], best, self._rows)
        ng = self._score(profiles[j], best, self._rows)
        if nf == ng:
            return 0
        return 1 if (nf < ng) == self.lower_is_better else -1

    def alternatives(self, menu: Menu) -> tuple[Alternative, ...]:
        """The menu's acts as the rule sees them: names and utility profiles."""
        if menu.state_space != self.state_space:
            states = ", ".join(self.state_space)
            raise DimensionMismatch(f"the menu is not over the oracle's states {states}")
        return as_alternatives(
            [act.name for act in menu],
            [tuple(act.utility_profile(self.utility).values()) for act in menu],
        )

    def score(self, act: Act, menu: Menu) -> Fraction:
        """The rule's score of a menu act."""
        alternatives = self.alternatives(menu)
        return self.rate(alternatives[_position(menu.acts, act)], alternatives)

    def compare(self, f: Act, g: Act, menu: Menu) -> int:
        """+1 if f is strictly preferred to g in the menu, -1 if dispreferred, 0 if indifferent."""
        alternatives = self.alternatives(menu)
        i, j = _position(menu.acts, f), _position(menu.acts, g)
        return self.prefers(alternatives[i], alternatives[j], alternatives)


# -- ranking -------------------------------------------------------------------

def group_ties(
    scores: Mapping[str, Fraction | float | int], lower_is_better: bool
) -> tuple[tuple[str, ...], ...]:
    """The names grouped by exactly equal score, best group first and names
    sorted within a group."""
    ordered = sorted(scores.items(), key=lambda kv: (kv[1] if lower_is_better else -kv[1], kv[0]))
    groups: list[list[str]] = []
    last = None
    for name, score in ordered:
        if groups and score == last:
            groups[-1].append(name)
        else:
            groups.append([name])
            last = score
    return tuple(tuple(g) for g in groups)


class Ranking:
    """A total preorder of menu acts induced by one rule's scores.

    Groups are ordered best first; acts inside a group have exactly equal
    scores (`rank` finds them with `group_ties` on integer numerators).
    `lower_is_better` records the orientation so consumers never re-derive
    it from the rule name.
    """

    __slots__ = ("rule", "lower_is_better", "groups", "scores")

    def __init__(self, rule: str, lower_is_better: bool, scores: Mapping[str, Fraction], groups: tuple):
        self.rule = rule
        self.lower_is_better = lower_is_better
        self.scores = dict(scores)
        self.groups = groups

    @property
    def best(self) -> tuple[str, ...]:
        return self.groups[0]

    def to_tsv(self) -> str:
        lines = ["rank\tact\tscore\tdecimal"]
        for rank, group in enumerate(self.groups, start=1):
            for name in group:
                score = self.scores[name]
                lines.append(
                    f"{rank}\t{name}\t{format_rational(score)}\t{format_decimal(score)}"
                )
        return "\n".join(lines) + "\n"

    def to_obj(self) -> dict:
        return {
            "rule": self.rule,
            "lower_is_better": self.lower_is_better,
            "groups": [
                {
                    "rank": rank,
                    "acts": [
                        {
                            "name": name,
                            "score": format_rational(self.scores[name]),
                            "decimal": format_decimal(self.scores[name]),
                        }
                        for name in group
                    ],
                }
                for rank, group in enumerate(self.groups, start=1)
            ],
        }

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ranking)
            and self.rule == other.rule
            and self.groups == other.groups
            and self.scores == other.scores
        )

    def __repr__(self) -> str:
        chain = " > ".join("{" + ", ".join(g) + "}" for g in self.groups)
        return f"Ranking({self.rule}: {chain})"


Belief = Union[None, Measure, tuple, list, frozenset, WeightedMeasureSet]


def rank(rule: str, menu: Menu, u: UtilitySpec, belief: Belief = None) -> Ranking:
    """Score every menu act under the rule and group exact ties.

    The belief kind must match the rule: a Measure for seu, a collection of
    Measures for mer and mmeu, a WeightedMeasureSet for mwer, and nothing for
    probability-free regret.
    """
    oracle = PreferenceOracle(rule, belief, u, menu.state_space)
    numerators, scores = oracle._scored(oracle.alternatives(menu))
    return Ranking(rule, oracle.lower_is_better, scores, group_ties(numerators, oracle.lower_is_better))


# -- mixtures ------------------------------------------------------------------

def mixture_name(weight: Fraction, first: str, second: str) -> str:
    return f"{format_rational(weight)}*{first}+{format_rational(1 - weight)}*{second}"


def mix(weight: Rational, f: Act, g: Act, name: str | None = None) -> Act:
    """Statewise lottery mixture weight*f + (1-weight)*g."""
    weight = Fraction(weight)
    if not (0 <= weight <= 1):
        raise ValueError("mixture weight must lie in [0, 1]")
    if f.state_space != g.state_space:
        raise DimensionMismatch("cannot mix acts over different state spaces")
    if name is None:
        name = mixture_name(weight, f.name, g.name)
    return Act(name, {s: f[s].mix(weight, g[s]) for s in f.state_space})


def mix_menu(weight: Rational, menu: Menu, h: Act) -> Menu:
    """Elementwise mixture of every menu act with a fixed act."""
    weight = Fraction(weight)
    return Menu(tuple(mix(weight, act, h) for act in menu))
