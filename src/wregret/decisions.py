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
profiles become scores: it reads its belief once into integer rows over D
(`measures.weighted_rows`), puts a menu's profiles over the LCM L of their
denominators and runs a kernel whose int N is the score N/(D*L), so `rank`
ties on ints and builds a `Fraction` only for a returned score.  What it
scores is an `Alternative`, a name and a profile, or, through its int entry
points (`prefers_at`, `rate_at`, `sign`), a menu of int profiles over one
denominator.  Lotteries and utility tables are `rational.IntVector`s.  A
`Menu` sums its acts' profiles as int dot products and keeps them (see
`Menu`), so `rank` and the oracle's `alternatives` read a menu once per
table; decision-tree plans are born as ints.  `numerators` gives a menu's
score numerators over one denominator without building a `Fraction`, for a
large enough menu and belief in one packed-integer pass over the whole
menu.  The rules share kernels (mer is
mwer with every weight one); their degeneration identities are tested
against an independent re-derivation of the five rules kept in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from itertools import groupby
from operator import itemgetter, mul, sub
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import ActNotInMenu, BeliefKindMismatch, DimensionMismatch, UnknownPrize
from .measures import Measure, Rational, WeightedMeasureSet, weighted_rows
from .rational import IntVector, as_integers, exact, format_decimal, format_rational, over_common
from .records import Frozen, record


class UtilitySpec(IntVector):
    """Utility table over prizes, an `IntVector` with two distinct values at
    least.  `[prize]` and `utility()` build exact `Fraction`s when read."""

    __slots__ = ("__weakref__", "_utils")
    _value_name, _key_name = "utility", "prize"

    def _fill(self, keys: tuple[str, ...], numerators: tuple[int, ...], denominator: int) -> None:
        super()._fill(keys, numerators, denominator)
        object.__setattr__(self, "_utils", dict(zip(keys, numerators)))  # prize -> numerator, for `_dot`

    def _check(self) -> None:
        if len(set(self.numerators)) < 2:
            raise ValueError("a utility table needs two prizes with distinct utilities")

    def __getitem__(self, prize: str) -> Fraction:
        return self.utility(sure(prize))

    def utility(self, lottery: "Lottery") -> Fraction:
        return Fraction(self._dot(lottery), lottery.denominator * self.denominator)

    def _dot(self, lottery: "Lottery") -> int:
        """The lottery's expected utility times both denominators."""
        utils = self._utils
        try:
            return sum([n * utils[prize] for prize, n in zip(lottery.keys, lottery.numerators)])
        except KeyError as missing:
            raise UnknownPrize(f"no utility assigned to prize {missing.args[0]!r}") from None


class Lottery(IntVector):
    """A finite-support probability over prizes: an `IntVector` over its
    support, since a prize of probability zero is left out."""

    __slots__ = ()
    _value_name, _key_name = "probability", "prize"

    def _fill(self, keys: tuple[str, ...], numerators: tuple[int, ...], denominator: int) -> None:
        support = [(key, n) for key, n in zip(keys, numerators) if n]
        super()._fill(tuple([key for key, _ in support]), tuple([n for _, n in support]), denominator)

    def _check(self) -> None:
        self._nonnegative()
        if sum(self.numerators) != self.denominator:
            raise ValueError(f"lottery probabilities sum to {format_rational(self.total())}, expected 1/1")

    def mix(self, weight: Rational, other: "Lottery") -> "Lottery":
        weight = exact(weight, "mixture weight")
        if not (0 <= weight <= 1):
            raise ValueError("mixture weight must lie in [0, 1]")
        probs = {prize: (1 - weight) * p for prize, p in other.items()}
        for prize, p in self.items():
            probs[prize] = weight * p + probs.get(prize, 0)
        return Lottery(probs)


def sure(prize: str) -> Lottery:
    """The degenerate lottery on one prize."""
    return Lottery({prize: 1})


class Act(Frozen):
    """A named, immutable assignment of one `Lottery` to every state."""

    __slots__ = ("name", "_items")

    def __init__(self, name: str, outcomes: Mapping[str, Lottery]):
        if not name:
            raise ValueError("acts need a nonempty name")
        items = tuple(sorted(outcomes.items(), key=lambda kv: kv[0]))
        if not items:
            raise ValueError(f"act {name!r} needs a lottery for at least one state")
        for state, lottery in items:
            if not isinstance(lottery, Lottery):
                raise TypeError(f"act {name!r} gives state {state!r} the outcome {lottery!r}, not a Lottery")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_items", items)

    @property
    def state_space(self) -> tuple[str, ...]:
        return tuple(state for state, _ in self._items)

    def __getitem__(self, state: str) -> Lottery:
        return dict(self._items)[state]

    def items(self) -> tuple[tuple[str, Lottery], ...]:
        return self._items

    def utility_profile(self, u: UtilitySpec) -> Mapping[str, Fraction]:
        """Expected utility per state, in sorted state order (read-only)."""
        denominator, (profile,) = Menu([self]).profiles(u)
        return MappingProxyType({s: Fraction(n, denominator) for s, n in zip(self.state_space, profile)})

    def _args(self) -> tuple:
        return self.name, dict(self._items)

    def _key(self) -> tuple:
        return self.name, self._items

    def __repr__(self) -> str:
        return f"Act({self.name!r})"


def constant_act(name: str, lottery: Lottery, state_space: Sequence[str]) -> Act:
    return Act(name, {state: lottery for state in state_space})


class Menu(Frozen):
    """A finite, explicitly listed set of named acts over one state space.

    A menu is immutable.  It keeps its acts' utility profiles under the last
    utility table it was scored under (compared by identity), as ints over
    one denominator L, the table's times the LCM of every lottery's:
    `profiles(u)` gives (L, one int tuple per act, in menu order).
    """

    __slots__ = ("acts", "_last")

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
        object.__setattr__(self, "acts", acts)
        object.__setattr__(self, "_last", (None, None))

    def profiles(self, u: UtilitySpec) -> tuple[int, tuple[IntProfile, ...]]:
        last, matrix = self._last
        if last is not u:
            # one int dot product per lottery object, however many acts share it
            lotteries = {id(lottery): lottery for act in self.acts for _, lottery in act._items}
            scale = lcm(*{lottery.denominator for lottery in lotteries.values()})
            value = {key: u._dot(lottery) * (scale // lottery.denominator) for key, lottery in lotteries.items()}
            rows = tuple([tuple([value[id(lottery)] for _, lottery in act._items]) for act in self.acts])
            matrix = scale * u.denominator, rows
            object.__setattr__(self, "_last", (u, matrix))
        return matrix

    @property
    def state_space(self) -> tuple[str, ...]:
        return self.acts[0].state_space

    def __iter__(self):
        return iter(self.acts)

    def __len__(self) -> int:
        return len(self.acts)

    def __contains__(self, act: Act) -> bool:
        return any(a == act for a in self.acts)

    def best_profile(self, u: UtilitySpec) -> Mapping[str, Fraction]:
        """Per-state maximum utility achieved by any menu act (read-only)."""
        denominator, profiles = self.profiles(u)
        best = per_state_best(profiles)
        return MappingProxyType({s: Fraction(n, denominator) for s, n in zip(self.state_space, best)})

    def _args(self) -> tuple:
        return (self.acts,)

    def __repr__(self) -> str:
        return f"Menu([{', '.join(a.name for a in self.acts)}])"


# -- the regret calculus -------------------------------------------------------

def _position(menu: Sequence, member) -> int:
    """The index of an act or alternative in a menu of them."""
    try:
        return menu.index(member)
    except ValueError:
        raise ActNotInMenu(f"act {member.name!r} is not in the menu") from None


def regret_profile(act: Act, menu: Menu, u: UtilitySpec) -> dict[str, Fraction]:
    """The act's regret in every state, from the menu's int profiles."""
    i = _position(menu.acts, act)  # raises ActNotInMenu for a non-member
    scale, profiles = menu.profiles(u)
    best = per_state_best(profiles)
    return {state: Fraction(b - n, scale) for state, b, n in zip(menu.state_space, best, profiles[i])}


def max_regret(act: Act, menu: Menu, u: UtilitySpec) -> Fraction:
    """Probability-free worst-case regret, the maximum over states."""
    return _score_of("regret", act, menu, u, None)


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
# weight x probability x D, in sorted state order.  Every rule has a per-act
# kernel.  The belief rules' kernels also have a whole-menu form, on one
# packed-integer kernel (`_packed_max`), which `PreferenceOracle._numerators`
# takes for a menu and belief of at least the sizes `_WHOLE_MENU` gives each
# form, where it measured faster (mer/mwer from 8 acts, mmeu from 16, under
# at least 4 rows; seu's one measure is one row, so it never does).  Two
# paths enter `_numerators`: `numerators` (behind `scores` and the tree
# nodes) with alternatives put over their LCM, and `rank` with a `Menu`'s
# kept `profiles`.  Smaller inputs, the per-member entry points
# (`prefers_at`, `rate_at`, `sign`) and probability-free regret keep the
# per-act kernels.

Profile = tuple[Fraction, ...]
IntProfile = tuple[int, ...]


def _worst_utility(x: IntProfile, best: IntProfile, rows: Sequence[IntProfile]) -> int:
    return min([sum(map(mul, row, x)) for row in rows])


def _worst_regret(x: IntProfile, best: IntProfile, rows: Sequence[IntProfile]) -> int:
    return max(map(sub, best, x))


def _worst_weighted_regret(x: IntProfile, best: IntProfile, rows: Sequence[IntProfile]) -> int:
    regrets = list(map(sub, best, x))
    return max([sum(map(mul, row, regrets)) for row in rows])


def _packed_max(profiles: Sequence[IntProfile], tops: Sequence[int], rows: Sequence[IntProfile]) -> list[int]:
    """The max over rows of row·(tops - x) for every profile x, where every
    tops - x is >= 0 (so with the per-state best for tops, the whole-menu
    form of the weighted-regret kernel), all at once by SIMD within a register:
    each state's column of tops - x is packed into one int of byte-aligned
    fields, each wide enough for the largest value times the largest row sum
    with a guard bit on top, so a row costs one multiply-add per state for
    the whole menu.  A column is its fields' little-endian bytes joined once,
    so packing is linear in the menu size.  The running max keeps a row's
    field where the guard bit of (row | guards) - max is set, as no field
    borrows from the next."""
    n, frombytes, by_state = len(profiles), int.from_bytes, list(zip(*profiles))
    largest = max(map(sub, tops, map(min, by_state))) * max(1, *map(sum, rows))
    size = largest.bit_length() // 8 + 1
    top = 8 * size - 1  # each field's guard bit
    columns = [
        frombytes(b"".join([(t - x).to_bytes(size, "little") for x in xs]), "little") for t, xs in zip(tops, by_state)
    ]
    guards = frombytes((bytes(size - 1) + b"\x80") * n, "little")
    acc = 0
    for row in rows:
        d = sum(map(mul, row, columns))
        g = ((d | guards) - acc) & guards  # set in the fields where d >= acc
        acc ^= (acc ^ d) & (g - (g >> top))
    packed = acc.to_bytes(n * size, "little")
    return [frombytes(packed[i:i + size], "little") for i in range(0, n * size, size)]


def _menu_worst_utility(profiles: Sequence[IntProfile], best: IntProfile, rows: Sequence[IntProfile]) -> list[int]:
    # each row is a measure's, summing to D, so row·x = top*D - row·(top - x)
    top = max(best)
    return [top * sum(rows[0]) - n for n in _packed_max(profiles, [top] * len(best), rows)]


# the whole-menu form of a per-act kernel, and the least menu and belief sizes
# at which `numerators` takes it (each form's crossover measured on random problems)
_WHOLE_MENU = {_worst_utility: (_menu_worst_utility, 16, 4), _worst_weighted_regret: (_packed_max, 8, 4)}


@record
class Rule:
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
        pairs = [(1, belief)]
    elif kind == "weighted":
        if not isinstance(belief, WeightedMeasureSet):
            raise BeliefKindMismatch(f"{rule} needs a WeightedMeasureSet belief")
        pairs = [(w, m) for m, w in belief.entries]
    else:
        pairs = [(1, m) for m in belief] if isinstance(belief, Iterable) else []
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

class Alternative(Frozen):
    """An act as the rules see it: a name and a utility profile (one exact
    utility per state, in sorted state order), held as the ints `numerators`
    over one positive `denominator`.

    `Alternative(name, profile)` converts int or `Fraction` utilities once;
    `from_ints` keeps its ints as given, unreduced, so a sampler's draws stay
    over its denominator.  Any other type raises TypeError.  The `Fraction`
    `profile` is built each time it is read.  An alternative is immutable,
    hashable and equal to any with the same name and rational profile.
    """

    __slots__ = ("name", "numerators", "denominator")

    def __init__(self, name: str, profile: Sequence[Union[int, Fraction]]):
        profile = tuple(profile)
        for v in profile:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"utility {v!r} of {name!r} is not an int or a Fraction")
        denominator, (numerators,) = as_integers([profile])
        _set_name(self, name)
        _set_numerators(self, numerators)
        _set_denominator(self, denominator)

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
        return self

    @property
    def profile(self) -> Profile:
        d = self.denominator
        return tuple([Fraction(n, d) for n in self.numerators])

    _build = from_ints

    def _args(self) -> tuple:
        return self.name, self.numerators, self.denominator

    def _key(self) -> tuple:
        d = self.denominator
        g = gcd(d, *self.numerators)
        return self.name, d // g, tuple([n // g for n in self.numerators])

    def __repr__(self) -> str:
        return f"Alternative(name={self.name!r}, profile={self.profile!r})"


# An immutable Alternative sets its own slots through their descriptors.
_set_name, _set_numerators, _set_denominator = (
    Alternative.__dict__[slot].__set__ for slot in Alternative.__slots__
)


class PreferenceOracle:
    """A decision rule with a fixed belief: the one place where utility
    profiles become scores.

    Its per-member entry points are on ints: `prefers_at` compares two
    members, by position, of a menu of int profiles over one positive
    denominator, `rate_at` scores one, and `sign` compares two int profiles
    against a per-state best.  `prefers` and `rate` put a menu of
    alternatives over the oracle's sorted `state_space` over the LCM of their
    denominators and find the members (by identity, else by equality); nothing
    is kept between calls.  `scores` scores a whole menu, `score` an act of a
    `Menu`.  A subclass defines its own order by overriding `prefers_at` and
    `sign` in one class, so that they agree; one that overrides only one of
    them, or `prefers`, raises TypeError when defined.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        prefers_at, sign = (next(c for c in cls.__mro__ if name in c.__dict__) for name in ("prefers_at", "sign"))
        if prefers_at is not sign or cls.prefers is not PreferenceOracle.prefers:
            raise TypeError(f"{cls.__name__} must define prefers_at and sign together, so they agree, not prefers")

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

    def scores(self, menu: Sequence[Alternative]) -> dict[str, Fraction]:
        """The rule's score of every member of a menu with unique names;
        a repeated name raises ValueError."""
        denominator, values = self.numerators(menu)
        scores: dict[str, Fraction] = {}
        for a, n in zip(menu, values):
            if a.name in scores:
                raise ValueError(f"duplicate name {a.name!r} in the menu")
            scores[a.name] = Fraction(n, denominator)
        return scores

    def numerators(self, menu: Sequence[Alternative]) -> tuple[int, list[int]]:
        """The denominator of every score in the menu, and each member's
        score numerator over it, in menu order (names are not read)."""
        return self._numerators(*over_common(menu))

    def _numerators(self, scale: int, profiles: Sequence[IntProfile]) -> tuple[int, list[int]]:
        """`numerators` of int profiles over `scale`: where a kernel, per act or whole-menu, is chosen."""
        best = per_state_best(profiles)
        score, rows = self._score, self._rows
        whole, least_acts, least_rows = _WHOLE_MENU.get(score, (None, 0, 0))
        if whole is not None and len(profiles) >= least_acts and len(rows) >= least_rows:
            return self._common * scale, whole(profiles, best, rows)
        return self._common * scale, [score(x, best, rows) for x in profiles]

    def rate(self, f: Alternative, menu: Sequence[Alternative]) -> Fraction:
        """The rule's score of the member f against the menu."""
        scale, profiles = over_common(menu)
        return self.rate_at(_position(menu, f), profiles, scale)

    def rate_at(self, i: int, menu: Sequence[IntProfile], denominator: int) -> Fraction:
        """The rule's score of menu[i], the menu's profiles ints over the denominator."""
        return Fraction(self._score(menu[i], per_state_best(menu), self._rows), self._common * denominator)

    def _order(self, nf: int, ng: int) -> int:
        """+1 if the score numerator nf is strictly better than ng, -1 if worse, 0 if equal."""
        if nf == ng:
            return 0
        return 1 if (nf < ng) == self.lower_is_better else -1

    def prefers(self, f: Alternative, g: Alternative, menu: Sequence[Alternative]) -> int:
        """+1 if f is strictly preferred to g in the menu, -1 if dispreferred, 0 if indifferent."""
        scale, profiles = over_common(menu)
        return self.prefers_at(_position(menu, f), _position(menu, g), profiles, scale)

    def prefers_at(self, i: int, j: int, menu: Sequence[IntProfile], denominator: int) -> int:
        """`prefers` for menu[i] and menu[j], the menu's profiles ints over the
        positive denominator (which a rule does not read; a custom order may)."""
        best, score, rows = per_state_best(menu), self._score, self._rows
        return self._order(score(menu[i], best, rows), score(menu[j], best, rows))

    def sign(self, x: IntProfile, y: IntProfile, best: IntProfile) -> int:
        """`prefers` for the profiles x and y in a menu whose per-state best is
        `best`, all three ints over one positive denominator: a rule reads a
        menu only through that best, and its order does not depend on which."""
        return self._order(self._score(x, best, self._rows), self._score(y, best, self._rows))

    def _read(self, menu: Menu) -> tuple[int, tuple[IntProfile, ...]]:
        """The menu's `profiles` under the oracle's utility table."""
        if menu.state_space != self.state_space:
            states = ", ".join(self.state_space)
            raise DimensionMismatch(f"the menu is not over the oracle's states {states}")
        return menu.profiles(self.utility)

    def alternatives(self, menu: Menu) -> tuple[Alternative, ...]:
        """The menu's acts as the rule sees them: names and utility profiles."""
        denominator, profiles = self._read(menu)
        return tuple([Alternative.from_ints(act.name, x, denominator) for act, x in zip(menu.acts, profiles)])

    def score(self, act: Act, menu: Menu) -> Fraction:
        """The rule's score of a menu act."""
        alternatives = self.alternatives(menu)
        return self.rate(alternatives[_position(menu.acts, act)], alternatives)


# -- ranking -------------------------------------------------------------------

def group_ties(
    scores: Mapping[str, Fraction | float | int], lower_is_better: bool
) -> tuple[tuple[str, ...], ...]:
    """The names grouped by exactly equal score, best group first and names
    sorted within a group, by one sort of (score or its negation, name) pairs."""
    keys = scores.values() if lower_is_better else [-v for v in scores.values()]
    ordered = groupby(sorted(zip(keys, scores)), key=itemgetter(0))
    return tuple([tuple([name for _, name in group]) for _, group in ordered])


@record
class Ranking:
    """A total preorder of menu acts induced by one rule's scores.

    Groups are ordered best first; acts inside a group have exactly equal
    scores (`rank` finds them with `group_ties` on integer numerators).
    `lower_is_better` records the orientation so consumers never re-derive
    it from the rule name.  `scores`, a `Mapping` field, is a read-only copy.
    """

    rule: str
    lower_is_better: bool
    scores: Mapping[str, Fraction]
    groups: tuple[tuple[str, ...], ...]

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
    denominator, values = oracle._numerators(*oracle._read(menu))
    numerators = dict(zip([act.name for act in menu.acts], values))
    scores = {name: Fraction(n, denominator) for name, n in numerators.items()}
    return Ranking(rule, oracle.lower_is_better, scores, group_ties(numerators, oracle.lower_is_better))


# -- mixtures ------------------------------------------------------------------

def mixture_name(weight: Fraction, first: str, second: str) -> str:
    return f"{format_rational(weight)}*{first}+{format_rational(1 - weight)}*{second}"


def mix(weight: Rational, f: Act, g: Act) -> Act:
    """Statewise lottery mixture weight*f + (1-weight)*g, for an exact weight in [0, 1]."""
    weight = exact(weight, "mixture weight")
    if f.state_space != g.state_space:
        raise DimensionMismatch("cannot mix acts over different state spaces")
    return Act(mixture_name(weight, f.name, g.name), {s: f[s].mix(weight, g[s]) for s in f.state_space})


def mix_menu(weight: Rational, menu: Menu, h: Act) -> Menu:
    """Elementwise mixture of every menu act with a fixed act."""
    return Menu(tuple(mix(weight, act, h) for act in menu))
