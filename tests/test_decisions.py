"""Acts, menus, the regret calculus, the five rules, and their algebra."""

import copy
import pickle
import random
import statistics
import time
import weakref
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wregret import (
    Act,
    Lottery,
    Measure,
    Menu,
    UtilitySpec,
    WeightedMeasureSet,
    constant_act,
    max_regret,
    mer,
    mix,
    mix_menu,
    mmeu,
    mwer,
    rank,
    regret_profile,
    seu,
    sure,
    to_hull,
    support_value,
)
from wregret.decisions import (
    RULES,
    _WHOLE_MENU,
    Alternative,
    PreferenceOracle,
    Ranking,
    _packed_max,
    _worst_weighted_regret,
    per_state_best,
)
from wregret.errors import ActNotInMenu, BeliefKindMismatch, DimensionMismatch, UnknownPrize

from conftest import DELIVERY_STATES, counting_whole_menu, profile_act, random_measure, random_wset
import rule_reference as reference

F = Fraction


class TestLotteryAndUtility:
    def test_degenerate_constant_utility(self):
        u = UtilitySpec({"y": 5, "z": 0})
        act = constant_act("five", sure("y"), ("s1", "s2"))
        assert act.utility_profile(u)["s1"] == 5

    def test_fifty_fifty_cancels(self):
        u = UtilitySpec({"up": 1, "down": -1})
        lottery = Lottery({"up": F(1, 2), "down": F(1, 2)})
        act = constant_act("even", lottery, ("s1",))
        assert act.utility_profile(u)["s1"] == 0

    def test_delivery_check_in_one_broken(self, delivery_acts, delivery_utility):
        assert delivery_acts["check"].utility_profile(delivery_utility)["one_broken"] == 5001

    def test_unknown_prize(self):
        u = UtilitySpec({"y": 5, "z": 0})
        act = constant_act("odd", sure("mystery"), ("s1",))
        with pytest.raises(UnknownPrize):
            act.utility_profile(u)["s1"]

    def test_lottery_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            Lottery({"win": F(1, 2), "lose": F(1, 3)})

    def test_utility_needs_two_distinct_values(self):
        with pytest.raises(ValueError, match="distinct"):
            UtilitySpec({"y": 1, "z": 1})


class TestRegretTable:
    def test_base_menu_regrets(self, delivery_acts, base_menu, delivery_utility):
        u = delivery_utility
        expect = {
            ("cont", "one_broken"): 0, ("cont", "ten_broken"): 10000,
            ("back", "one_broken"): 10000, ("back", "ten_broken"): 0,
            ("check", "one_broken"): 4999, ("check", "ten_broken"): 4999,
        }
        for (name, state), value in expect.items():
            assert regret_profile(delivery_acts[name], base_menu, u)[state] == value

    def test_extended_menu_regrets(self, delivery_acts, extended_menu, delivery_utility):
        u = delivery_utility
        expect = {
            ("cont", "one_broken"): 10000, ("cont", "ten_broken"): 10000,
            ("back", "one_broken"): 20000, ("back", "ten_broken"): 0,
            ("check", "one_broken"): 14999, ("check", "ten_broken"): 4999,
            ("new", "one_broken"): 0, ("new", "ten_broken"): 20000,
        }
        for (name, state), value in expect.items():
            assert regret_profile(delivery_acts[name], extended_menu, u)[state] == value

    def test_regret_requires_membership(self, delivery_acts, base_menu, delivery_utility):
        with pytest.raises(ActNotInMenu):
            regret_profile(delivery_acts["new"], base_menu, delivery_utility)

    def test_regret_zero_for_per_state_best(self, delivery_acts, base_menu, delivery_utility):
        assert regret_profile(delivery_acts["cont"], base_menu, delivery_utility)["one_broken"] == 0


class TestRuleScores:
    def test_mer_base_menu(self, delivery_acts, base_menu, delivery_utility, delivery_measures):
        scores = {
            name: mer(delivery_acts[name], base_menu, delivery_utility, delivery_measures)
            for name in ("cont", "back", "check")
        }
        assert scores == {"cont": 10000, "back": 10000, "check": 4999}

    def test_mwer_state_independent_half_mix(self, delivery_utility, delivery_wset):
        # mirrored payoffs: the menu has state-independent outcome distributions
        def mirrored(name, x):
            return profile_act(
                name, {"one_broken": F(x), "ten_broken": F(-x)}, delivery_utility
            )

        cont, back = mirrored("cont", 10000), mirrored("back", 0)
        half = mix(F(1, 2), cont, back)
        menu = Menu(
            [cont, half, back, mirrored("check1", -5000), mirrored("check2", -10000)]
        )
        assert mwer(cont, menu, delivery_utility, delivery_wset) == 10000
        assert mwer(back, menu, delivery_utility, delivery_wset) == 10000
        assert mwer(half, menu, delivery_utility, delivery_wset) == 7500

    def test_singleton_weight_one_equals_expected_regret(
        self, delivery_acts, base_menu, delivery_utility, delivery_measures
    ):
        # the reference derives expected regret under the one measure from
        # the plain lotteries, utilities and probabilities
        one, _ = delivery_measures
        wset = WeightedMeasureSet([(one, 1)], DELIVERY_STATES)
        acts = {act.name: {s: dict(lottery.items()) for s, lottery in act.items()} for act in base_menu}
        expected = reference.scores("mer", acts, dict(delivery_utility.items()), [dict(one.items())])
        assert {act.name: mwer(act, base_menu, delivery_utility, wset) for act in base_menu} == expected
        assert expected == {"cont": 0, "back": 10000, "check": 4999}

    def test_seu_values(self, delivery_acts, delivery_utility, delivery_measures):
        one, ten = delivery_measures
        fifty_fifty = Measure({"one_broken": F(1, 2), "ten_broken": F(1, 2)})
        assert seu(delivery_acts["cont"], delivery_utility, fifty_fifty) == 0
        assert seu(delivery_acts["back"], delivery_utility, one) == 0
        assert seu(delivery_acts["back"], delivery_utility, ten) == 0

    def test_mmeu_constant_act_is_its_utility(self, delivery_utility, delivery_measures):
        act = constant_act("sit", sure("nothing"), DELIVERY_STATES)
        assert mmeu(act, delivery_utility, delivery_measures) == 0


class TestRank:
    def test_mer_base_ranking(self, base_menu, delivery_utility, delivery_measures):
        ranking = rank("mer", base_menu, delivery_utility, delivery_measures)
        assert ranking.groups == (("check",), ("back", "cont"))
        assert ranking.lower_is_better

    def test_mer_extended_ranking(self, extended_menu, delivery_utility, delivery_measures):
        ranking = rank("mer", extended_menu, delivery_utility, delivery_measures)
        assert ranking.groups[0] == ("cont",)
        assert ranking.scores["cont"] == 10000
        assert ranking.scores["check"] == 14999

    def test_mwer_ranking_after_inspection_update(
        self, base_menu, delivery_utility, delivery_measures
    ):
        # weights (1, w) with w the exact relative likelihood of the
        # ten-broken hypothesis given a clean hundred-item prefix; by hand:
        #   cont  -> max(0, 10000 w) = 10000 w
        #   back  -> max(10000, 0)   = 10000
        #   check -> 4999 max(1, w)  = 4999
        # and 10000 w < 4999 iff w < 0.4999, which holds.
        one, ten = delivery_measures
        w = F(comb(900, 10) * 10, 9 * comb(1000, 10))
        wset = WeightedMeasureSet([(one, 1), (ten, w)], DELIVERY_STATES)
        ranking = rank("mwer", base_menu, delivery_utility, wset)
        assert w < F(4999, 10000)
        assert ranking.groups == (("cont",), ("check",), ("back",))
        assert ranking.scores["cont"] == 10000 * w

    def test_belief_kind_mismatch(self, base_menu, delivery_utility, delivery_measures):
        one, _ = delivery_measures
        with pytest.raises(BeliefKindMismatch):
            rank("seu", base_menu, delivery_utility, delivery_measures)
        with pytest.raises(BeliefKindMismatch):
            rank("mer", base_menu, delivery_utility, one)
        with pytest.raises(BeliefKindMismatch):
            rank("mwer", base_menu, delivery_utility, delivery_measures)
        with pytest.raises(BeliefKindMismatch):
            rank("regret", base_menu, delivery_utility, one)

    def test_ranking_serialization(self, base_menu, delivery_utility, delivery_measures):
        ranking = rank("mer", base_menu, delivery_utility, delivery_measures)
        assert ranking.to_tsv() == (
            "rank\tact\tscore\tdecimal\n"
            "1\tcheck\t4999/1\t4999.000000\n"
            "2\tback\t10000/1\t10000.000000\n"
            "2\tcont\t10000/1\t10000.000000\n"
        )
        obj = ranking.to_obj()
        assert obj["rule"] == "mer"
        assert obj["groups"][0]["acts"][0]["name"] == "check"
        assert obj["groups"][0]["acts"][0]["score"] == "4999/1"


class TestPreferenceOracle:
    @pytest.mark.parametrize("belief", [(), [1, 2], 5])
    def test_belief_kind_is_checked_first(self, delivery_utility, belief):
        # the kind is checked before the state space is read off the belief
        with pytest.raises(BeliefKindMismatch):
            PreferenceOracle("mer", belief, delivery_utility)

    def test_rate_and_prefers_need_menu_members(self, delivery_utility, delivery_wset):
        oracle = PreferenceOracle("mwer", delivery_wset, delivery_utility)
        f, g = Alternative("f", (F(1), F(0))), Alternative("g", (F(0), F(1)))
        outsider = Alternative("f", (F(1), F(1)))  # f's name with another profile
        menu = (f, g)
        assert oracle.prefers(f, g, menu) == -oracle.prefers(g, f, menu)
        for call in (
            lambda: oracle.rate(outsider, menu),
            lambda: oracle.prefers(outsider, g, menu),
            lambda: oracle.prefers(f, outsider, menu),
        ):
            with pytest.raises(ActNotInMenu):
                call()

    def test_scores_rejects_a_repeated_name(self, delivery_utility):
        # used to merge the two into {"a": 1}, the second member's score
        oracle = PreferenceOracle("regret", None, delivery_utility, DELIVERY_STATES)
        menu = (Alternative("a", (1, 0)), Alternative("a", (0, 1)))
        with pytest.raises(ValueError, match="'a'"):
            oracle.scores(menu)


class TestProfiles:
    def test_returned_profiles_are_read_only(
        self, base_menu, delivery_acts, delivery_utility, delivery_measures
    ):
        before = rank("mer", base_menu, delivery_utility, delivery_measures)
        profile = delivery_acts["check"].utility_profile(delivery_utility)
        best = base_menu.best_profile(delivery_utility)
        for returned in (profile, best):
            with pytest.raises(TypeError):
                returned["one_broken"] = F(-10**6)
        assert profile["one_broken"] == 5001 and best["one_broken"] == 10000
        assert rank("mer", base_menu, delivery_utility, delivery_measures) == before
        assert regret_profile(delivery_acts["check"], base_menu, delivery_utility) == {
            "one_broken": 4999, "ten_broken": 4999,
        }


def _reference_instance(rng: random.Random, size=None, entries=None):
    """A random problem as library objects and as the reference's plain
    dicts, with `size` acts and `entries` measures (random when None)."""
    states = [f"s{i}" for i in range(rng.randint(3, 6))]
    utility = {f"z{i}": F(v, 2) for i, v in enumerate(rng.sample(range(-12, 13), 4))}
    acts = {}
    for i in range(size or rng.randint(2, 16)):
        act = {}
        for s in states:
            cut = rng.randint(0, 4)
            act[s] = {"z0": F(cut, 4), rng.choice(["z1", "z2", "z3"]): F(4 - cut, 4)}
        acts[f"a{i}"] = act
    measures = []
    for _ in range(entries or rng.randint(1, 8)):
        raw = [rng.randint(0, 3) for _ in states]
        raw[rng.randrange(len(raw))] += 1
        measures.append({s: F(r, sum(raw)) for s, r in zip(states, raw)})
    weights = [F(1)] + [F(rng.randint(0, 4), 4) for _ in measures[1:]]
    u = UtilitySpec(utility)
    menu = Menu(
        Act(name, {s: Lottery(lottery) for s, lottery in act.items()})
        for name, act in acts.items()
    )
    library = [Measure(m) for m in measures]
    beliefs = {
        "seu": (library[0], measures[0]),
        "mmeu": (library, measures),
        "regret": (None, None),
        "mer": (library, measures),
        "mwer": (
            WeightedMeasureSet(list(zip(library, weights)), states),
            list(zip(measures, weights)),
        ),
    }
    return menu, u, acts, utility, beliefs


# each rule's per-act function, called with (act, menu, utility, belief)
PER_ACT = {
    "seu": lambda act, menu, u, belief: seu(act, u, belief),
    "mmeu": lambda act, menu, u, belief: mmeu(act, u, belief),
    "regret": lambda act, menu, u, belief: max_regret(act, menu, u),
    "mer": mer,
    "mwer": mwer,
}


# menu and belief sizes on both sides of those at which `numerators` takes
# each whole-menu form
BOUNDARY_SIZES = sorted({
    (acts + d_acts, rows + d_rows)
    for _, acts, rows in _WHOLE_MENU.values()
    for d_acts in (-1, 0, 1)
    for d_rows in (-1, 0, 1)
})


class TestAgainstReference:
    def test_rank_matches_the_reference_rules(self):
        for seed in range(60 + len(BOUNDARY_SIZES)):
            rng = random.Random(seed)
            sizes = BOUNDARY_SIZES[seed - 60] if seed >= 60 else (None, None)
            menu, u, acts, utility, beliefs = _reference_instance(rng, *sizes)
            for rule, (belief, plain) in beliefs.items():
                ranking = rank(rule, menu, u, belief)
                expected = reference.scores(rule, acts, utility, plain)
                assert ranking.scores == expected, (seed, rule)
                assert ranking.lower_is_better == reference.LOWER_IS_BETTER[rule]
                assert ranking.groups == reference.groups(expected, ranking.lower_is_better)
                per_act = {act.name: PER_ACT[rule](act, menu, u, belief) for act in menu}
                assert per_act == expected, (seed, rule)


def _packed_instance(rng: random.Random, size: int, entries: int, magnitude: int):
    """A menu of alternatives over 1-5 states and the belief of each rule,
    as library objects and as the reference's plain dicts: utilities that
    are negative, zero and positive, up to `magnitude`, over mixed
    denominators, some acts repeating another's profile (ties), and
    measures over mixed denominators, with weights that may be zero."""
    states = [f"s{i}" for i in range(rng.randint(1, 5))]
    profiles = {}
    for i in range(size):
        if profiles and rng.random() < 0.2:
            profiles[f"a{i}"] = dict(rng.choice(list(profiles.values())))
        else:
            profiles[f"a{i}"] = {
                s: F(rng.randint(-magnitude, magnitude), rng.choice((1, 2, 3, 7, 12))) for s in states
            }
    measures = []
    for _ in range(entries):
        raw = [rng.choice((0, 0, 1, 2, 5, 9)) for _ in states]
        raw[rng.randrange(len(raw))] += 1
        scale = rng.choice((1, 2, 3))
        measures.append({s: F(r * scale, sum(raw) * scale) for s, r in zip(states, raw)})
    weights = [F(1)] + [F(rng.choice((0, 0, 1, 3, 5)), 5) for _ in measures[1:]]
    library = [Measure(m) for m in measures]
    beliefs = {
        "seu": (library[0], measures[0]),
        "mmeu": (library, measures),
        "regret": (None, None),
        "mer": (library, measures),
        "mwer": (WeightedMeasureSet(list(zip(library, weights)), states), list(zip(measures, weights))),
    }
    alternatives = [Alternative(name, [p[s] for s in sorted(states)]) for name, p in profiles.items()]
    return states, alternatives, profiles, beliefs


class TestPackedKernel:
    """`numerators` scores a menu and belief of at least the sizes that
    `_WHOLE_MENU` gives a rule's kernel in one packed pass; it must equal the
    per-member path, which keeps the per-act kernels, and the reference."""

    def _check(self, states, alternatives, profiles, beliefs, calls) -> None:
        u = UtilitySpec({"z0": 0, "z1": 1})
        for rule, (belief, plain) in beliefs.items():
            oracle = PreferenceOracle(rule, belief, u, states)
            calls[0] = 0
            denominator, values = oracle.numerators(alternatives)
            rows = 0 if belief is None else 1 if rule == "seu" else len(plain)
            whole = _WHOLE_MENU.get(RULES[rule].score)
            packs = whole is not None and len(alternatives) >= whole[1] and rows >= whole[2]
            assert calls[0] == packs, rule
            got = [F(n, denominator) for n in values]
            assert got == [oracle.rate(a, alternatives) for a in alternatives], rule
            expected = reference.profile_scores(rule, profiles, plain)
            assert got == [expected[a.name] for a in alternatives], rule

    def test_numerators_match_the_per_member_path_and_the_reference(self, monkeypatch):
        calls = counting_whole_menu(monkeypatch)
        rng = random.Random(32)
        sizes = BOUNDARY_SIZES + [(rng.randint(1, 70), rng.randint(1, 40)) for _ in range(20)]
        for size, entries in sizes:
            for magnitude in (1, 40, 10**9):
                self._check(*_packed_instance(rng, size, entries, magnitude), calls)

    def test_a_dot_product_as_wide_as_the_field_bound(self, monkeypatch):
        # point-mass rows put the largest row sum, D = 1, on one state, where
        # the acts' values span [0, 2**bits - 1]: the largest dot product is
        # the largest value times the largest row sum, the bound a field is
        # sized by, for every bit length around the byte boundaries
        calls = counting_whole_menu(monkeypatch)
        rng = random.Random(8)
        states = ["s0", "s1", "s2", "s3"]
        points = [{s: F(int(s == t)) for s in states} for t in states]
        library = [Measure(m) for m in points]
        beliefs = {
            "seu": (library[0], points[0]),
            "mmeu": (library, points),
            "regret": (None, None),
            "mer": (library, points),
            "mwer": (WeightedMeasureSet([(m, 1) for m in library], states), [(m, F(1)) for m in points]),
        }
        for bits in range(1, 42):
            top = 2**bits - 1
            profiles = {"low": {s: F(0) for s in states}, "high": {s: F(top) for s in states}}
            for i in range(max(acts for _, acts, _ in _WHOLE_MENU.values())):
                profiles[f"a{i}"] = {s: F(rng.choice((0, 1, top - 1, top, rng.randint(0, top)))) for s in states}
            alternatives = [Alternative(name, [p[s] for s in states]) for name, p in profiles.items()]
            assert all(len(alternatives) >= acts and len(points) >= rows for _, acts, rows in _WHOLE_MENU.values())
            self._check(states, alternatives, profiles, beliefs, calls)


def test_packing_a_menu_is_linear_in_its_size():
    # linear packing costs about 4x the CPU at 4x the acts; packing that copies
    # the growing column at every field it adds costs 13-15x, above the bound
    rng = random.Random(22)
    rows = [tuple(rng.randint(0, 50) for _ in range(6)) for _ in range(8)]

    def cpu(n: int, calls: int) -> float:
        """The median of three CPU times of packing n acts, per packing."""
        profiles = [tuple(rng.randint(-1000, 1000) for _ in range(6)) for _ in range(n)]
        best = per_state_best(profiles)
        assert _packed_max(profiles, best, rows) == [_worst_weighted_regret(x, best, rows) for x in profiles]
        times = []
        for _ in range(3):
            start = time.process_time()
            for _ in range(calls):
                _packed_max(profiles, best, rows)
            times.append((time.process_time() - start) / calls)
        return statistics.median(times)

    n = 4096
    assert cpu(4 * n, 1) < 8 * cpu(n, 4)


def _int_profile_instance(rng: random.Random):
    """Seeded utility tables and acts as plain dicts: utilities that are
    negative, zero and positive over mixed denominators, lotteries with
    explicit zero-probability prizes and mixed denominators."""
    states = [f"s{i}" for i in range(rng.randint(2, 5))]
    prizes = [f"z{i}" for i in range(rng.randint(2, 5))]

    def table():
        while True:
            utility = {z: F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12))) for z in prizes}
            if len(set(utility.values())) > 1:
                return utility

    def lottery():
        raw = [rng.choice((0, 0, 1, 2, 5)) for _ in prizes]
        raw[rng.randrange(len(raw))] += 1
        scale = rng.choice((1, 2, 3, 5))
        return {z: F(r * scale, sum(raw) * scale) for z, r in zip(prizes, raw)}

    acts = {f"a{i}": {s: lottery() for s in states} for i in range(rng.randint(1, 9))}
    return states, table(), table(), acts


def _library_menu(acts: dict) -> Menu:
    return Menu(Act(name, {s: Lottery(lot) for s, lot in act.items()}) for name, act in acts.items())


class TestIntProfiles:
    """An act's profile is an int dot product, kept as one Alternative per
    utility table; it must equal the Fraction sum of p * u state by state."""

    def test_profiles_match_the_fraction_sum(self):
        for seed in range(80):
            states, first, second, acts = _int_profile_instance(random.Random(seed))
            menu = _library_menu(acts)
            u, v = UtilitySpec(first), UtilitySpec(second)
            for act in menu:
                # one act under two tables, asked in both orders
                for spec, plain in ((u, first), (v, second), (u, first)):
                    expected = {s: reference.expected_utility(acts[act.name][s], plain) for s in states}
                    assert act.utility_profile(spec) == expected, seed
                    assert act.alternative(spec).profile == tuple(expected[s] for s in sorted(states))
                    for s in states:
                        assert spec.utility(act[s]) == expected[s]
                assert act.alternative(u) is act.alternative(u)
                assert act.alternative(v) is not act.alternative(u)

    def test_rank_matches_the_reference_rules(self):
        for seed in range(40):
            rng = random.Random(1000 + seed)
            states, first, second, acts = _int_profile_instance(rng)
            menu = _library_menu(acts)
            plain = [{s: F(r, 10) for s, r in zip(states, _split(rng, 10, len(states)))} for _ in range(3)]
            weights = [F(1), F(rng.randint(0, 6), 6), F(rng.randint(0, 6), 6)]
            measures = [Measure(m) for m in plain]
            beliefs = {
                "seu": (measures[0], plain[0]),
                "mmeu": (measures, plain),
                "regret": (None, None),
                "mer": (measures, plain),
                "mwer": (WeightedMeasureSet(list(zip(measures, weights)), states), list(zip(plain, weights))),
            }
            for table in (first, second):
                u = UtilitySpec(table)
                for rule, (belief, reference_belief) in beliefs.items():
                    ranking = rank(rule, menu, u, belief)
                    expected = reference.scores(rule, acts, table, reference_belief)
                    assert ranking.scores == expected, (seed, rule)
                    assert ranking.groups == reference.groups(expected, ranking.lower_is_better)

    def test_the_oracle_reads_the_cached_alternatives(self, base_menu, delivery_utility):
        oracle = PreferenceOracle("regret", None, delivery_utility, DELIVERY_STATES)
        alternatives = oracle.alternatives(base_menu)
        assert all(a is act.alternative(delivery_utility) for a, act in zip(alternatives, base_menu))
        assert oracle.alternatives(base_menu) == alternatives

    def test_unknown_prize_raises_on_every_path(self, delivery_utility):
        act = Act("odd", {"one_broken": sure("mystery"), "ten_broken": sure("nothing")})
        menu = Menu([act])
        for call in (
            lambda: act.alternative(delivery_utility),
            lambda: act.utility_profile(delivery_utility),
            lambda: rank("regret", menu, delivery_utility),
            lambda: delivery_utility["mystery"],
        ):
            with pytest.raises(UnknownPrize, match="'mystery'"):
                call()
        # a prize of probability zero is not part of the lottery
        half = Lottery({"nothing": 1, "mystery": 0})
        assert half == sure("nothing") and delivery_utility.utility(half) == 0


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """`parts` nonnegative ints summing to `total`."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


class TestFloatsRejected:
    """A float would be stored as its binary expansion (0.1 as
    3602879701896397/2**55), so the exact types raise TypeError instead."""

    def test_utility_spec(self):
        with pytest.raises(TypeError, match="utility 0.1 for prize 'a'"):
            UtilitySpec({"a": 0.1, "b": 1})
        assert UtilitySpec({"a": "0.1", "b": 1}).items() == (("a", F(1, 10)), ("b", F(1)))

    def test_lottery(self):
        with pytest.raises(TypeError, match="probability 0.5 for prize 'a'"):
            Lottery({"a": 0.5, "b": 0.5})
        assert Lottery({"a": "1/2", "b": "0.5"}) == Lottery({"a": F(1, 2), "b": F(1, 2)})

    def test_mixture_weights(self, delivery_acts, base_menu):
        cont, back = delivery_acts["cont"], delivery_acts["back"]
        for build in (lambda w: mix(w, cont, back), lambda w: mix_menu(w, base_menu, back),
                      lambda w: cont["one_broken"].mix(w, back["one_broken"])):
            with pytest.raises(TypeError, match="mixture weight 0.1 is not"):
                build(0.1)
            assert build("1/10") == build("0.1") == build(F(1, 10))
            assert build(1) == build(F(1))
            # a weight outside [0, 1] would extrapolate, past a prize's probability
            for weight in (2, F(-1, 2)):
                with pytest.raises(ValueError, match=r"mixture weight must lie in \[0, 1\]"):
                    build(weight)
        assert mix("0.1", cont, back).name == "1/10*cont+9/10*back"


class TestLotteryAndActValues:
    def test_lottery_equality_is_on_reduced_ints(self):
        first = Lottery({"a": F(1, 3), "b": F(2, 3)})
        second = Lottery({"b": F(4, 6), "a": "1/3", "c": 0})
        assert first == second and hash(first) == hash(second)
        assert first.items() == (("a", F(1, 3)), ("b", F(2, 3)))
        assert first != Lottery({"a": F(2, 3), "b": F(1, 3)})

    def test_act_is_immutable_and_copyable(self, delivery_acts, delivery_utility):
        act = delivery_acts["check"]
        before = act.alternative(delivery_utility)
        for change in (lambda: setattr(act, "name", "x"), lambda: delattr(act, "name"),
                       lambda: setattr(act, "_alternatives", {}), lambda: setattr(act, "extra", 1)):
            with pytest.raises(AttributeError):
                change()
        assert act.name == "check" and act.alternative(delivery_utility) is before
        for twin in (copy.copy(act), copy.deepcopy(act), pickle.loads(pickle.dumps(act))):
            assert twin == act and hash(twin) == hash(act)
            assert twin.utility_profile(delivery_utility) == act.utility_profile(delivery_utility)

    def test_a_menu_equals_its_copies_and_a_menu_of_the_same_acts(self, delivery_acts, base_menu):
        same = Menu([delivery_acts[n] for n in ("cont", "back", "check")])
        for twin in (same, copy.copy(base_menu), copy.deepcopy(base_menu),
                     pickle.loads(pickle.dumps(base_menu))):
            assert twin == base_menu and hash(twin) == hash(base_menu)
        reordered = Menu([delivery_acts[n] for n in ("back", "cont", "check")])
        for other in (reordered, Menu([delivery_acts["cont"], delivery_acts["back"]]),
                      Menu([delivery_acts[n] for n in ("cont", "back", "new")])):
            assert other != base_menu
        assert base_menu != base_menu.acts

    def test_ranking_scores_are_read_only(self, base_menu, delivery_utility):
        ranking = rank("regret", base_menu, delivery_utility)
        shown = ranking.to_tsv()
        given = {"a": F(1, 2)}
        built = Ranking("mer", True, given, (("a",),))
        given["a"] = F(99)  # the ranking keeps its own copy
        twins = (ranking._replace(scores=dict(ranking.scores)), copy.copy(ranking),
                 copy.deepcopy(ranking), pickle.loads(pickle.dumps(ranking)))
        for value in (ranking, built, *twins):
            with pytest.raises(TypeError):
                value.scores["check"] = 99
        assert built.scores == {"a": F(1, 2)}
        assert all(type(twin) is Ranking and twin == ranking for twin in twins)
        assert ranking.to_tsv() == shown

    def test_an_act_keeps_only_its_last_table(self):
        # the act caches the alternative of the last table it was scored
        # under, so fresh tables do not pile up, and alternating tables
        # still score right
        acts = [constant_act("low", sure("lo"), ("s1", "s2")),
                Act("mixed", {"s1": sure("hi"), "s2": Lottery({"lo": F(1, 3), "hi": F(2, 3)})})]
        menu = Menu(acts)
        first = UtilitySpec({"lo": 0, "hi": 1})
        earlier = weakref.ref(first)
        for k in range(10_000):
            table = first if k == 0 else UtilitySpec({"lo": 0, "hi": k + 1})
            assert rank("regret", menu, table).scores == {"low": k + 1, "mixed": 0}
        del first, table
        assert earlier() is None
        u, v = UtilitySpec({"lo": -1, "hi": 2}), UtilitySpec({"lo": 3, "hi": F(1, 2)})
        for _ in range(3):
            assert acts[1].utility_profile(u) == {"s1": 2, "s2": 1}
            assert acts[1].utility_profile(v) == {"s1": F(1, 2), "s2": F(4, 3)}
            assert rank("regret", menu, v).scores == {"low": 0, "mixed": F(5, 2)}


class TestMixtures:
    def test_full_weight_is_identity(self, delivery_acts):
        mixed = mix(1, delivery_acts["cont"], delivery_acts["back"])
        assert mixed.items() == delivery_acts["cont"].items()

    def test_half_cont_half_back_profile(self, delivery_acts, delivery_utility):
        mixed = mix(F(1, 2), delivery_acts["cont"], delivery_acts["back"])
        profile = mixed.utility_profile(delivery_utility)
        assert profile == {"one_broken": 5000, "ten_broken": -5000}

    def test_self_mix_is_identity(self, delivery_acts):
        f = delivery_acts["check"]
        assert mix(F(1, 3), f, f).items() == f.items()

    def test_mix_menu_full_weight(self, base_menu, delivery_acts):
        mixed = mix_menu(1, base_menu, delivery_acts["back"])
        assert [a.items() for a in mixed] == [a.items() for a in base_menu]

    def test_mix_menu_half_with_back_matches_known_rows(
        self, base_menu, delivery_acts, delivery_utility
    ):
        mixed = mix_menu(F(1, 2), base_menu, delivery_acts["back"])
        profiles = {a.name: a.utility_profile(delivery_utility) for a in mixed}
        by_source = {name.split("*")[1].split("+")[0]: p for name, p in profiles.items()}
        assert by_source["cont"] == {"one_broken": 5000, "ten_broken": -5000}
        assert by_source["back"] == {"one_broken": 0, "ten_broken": 0}
        assert by_source["check"] == {
            "one_broken": F(5001, 2), "ten_broken": F(-4999, 2)
        }

    def test_mix_menu_affine_image(self, base_menu, delivery_acts, delivery_utility):
        h = delivery_acts["back"]
        mixed = mix_menu(F(1, 2), base_menu, h)
        for original, image in zip(base_menu, mixed):
            source = original.utility_profile(delivery_utility)
            target = image.utility_profile(delivery_utility)
            for s in DELIVERY_STATES:
                assert target[s] == source[s] / 2


STATES4 = ("s1", "s2", "s3", "s4")


def _random_act(rng: random.Random, name: str, u: UtilitySpec, states=STATES4) -> Act:
    hi, lo = "top", "bot"
    outcomes = {}
    for s in states:
        p = F(rng.randint(0, 10), 10)
        outcomes[s] = Lottery({hi: p, lo: 1 - p})
    return Act(name, outcomes)


@pytest.fixture(scope="module")
def grid_utility() -> UtilitySpec:
    return UtilitySpec({"top": 1, "bot": -1})


def _random_menu(rng, u, size=4, states=STATES4) -> Menu:
    return Menu([_random_act(rng, f"a{i}", u, states) for i in range(size)])


def _with_act(menu: Menu, act: Act) -> Menu:
    """The menu enlarged by one act (the menu itself if already present)."""
    return menu if act in menu else Menu(menu.acts + (act,))


def _rescaled(u: UtilitySpec, scale: Fraction, shift: Fraction) -> UtilitySpec:
    """The utility table scale * u + shift."""
    return UtilitySpec({prize: scale * v + shift for prize, v in u.items()})


class TestFractionBudget:
    def test_rank_builds_one_fraction_per_act(self, grid_utility, monkeypatch):
        # belief rows, profiles and ties are ints; the Fraction form built
        # seu 132, mmeu 256, mer 192, mwer 192 and regret 64 on a 64-act,
        # 32-measure, 4-state instance
        rng = random.Random(15)
        menu = _random_menu(rng, grid_utility, size=64)
        entries = [(random_measure(rng, STATES4), F(rng.randint(0, 8), 8)) for _ in range(32)]
        measures = tuple(m for m, _ in entries)
        beliefs = {"seu": measures[0], "mmeu": measures, "regret": None, "mer": measures,
                   "mwer": WeightedMeasureSet(entries, STATES4)}
        rank("regret", menu, grid_utility)  # caches every act's utility profile
        original = Fraction.__new__
        built = [0]

        def counting_new(cls, *args, **kwargs):
            built[0] += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        counts = {}
        for rule, belief in beliefs.items():
            built[0] = 0
            rank(rule, menu, grid_utility, belief)
            counts[rule] = built[0]
        monkeypatch.undo()
        assert counts == dict.fromkeys(beliefs, 64)


class TestScoreAlgebra:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_regret_nonnegative_and_zero_at_argmax(self, grid_utility, seed):
        rng = random.Random(seed)
        menu = _random_menu(rng, grid_utility)
        best = menu.best_profile(grid_utility)
        for act in menu:
            profile = regret_profile(act, menu, grid_utility)
            for s, value in profile.items():
                assert value >= 0
                if act.utility_profile(grid_utility)[s] == best[s]:
                    assert value == 0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_menu_monotonicity(self, grid_utility, seed):
        rng = random.Random(seed)
        menu = _random_menu(rng, grid_utility, size=3)
        extra = _random_act(rng, "extra", grid_utility)
        bigger = _with_act(menu, extra)
        wset = random_wset(rng, STATES4)
        measures = [m for m, _ in wset.entries]
        for act in menu:
            assert max_regret(act, bigger, grid_utility) >= max_regret(act, menu, grid_utility)
            assert mer(act, bigger, grid_utility, measures) >= mer(act, menu, grid_utility, measures)
            assert mwer(act, bigger, grid_utility, wset) >= mwer(act, menu, grid_utility, wset)
            for m in measures:
                assert mer(act, bigger, grid_utility, [m]) >= mer(act, menu, grid_utility, [m])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_never_strictly_optimal_additions_change_nothing(self, grid_utility, seed):
        rng = random.Random(seed)
        menu = _random_menu(rng, grid_utility, size=3)
        best = menu.best_profile(grid_utility)
        # dominated statewise by the per-state menu maximum
        outcomes = {}
        for s in STATES4:
            v = best[s] - F(rng.randint(0, 5), 10)
            v = max(v, F(-1))
            outcomes[s] = Lottery({"top": (v + 1) / 2, "bot": 1 - (v + 1) / 2})
        dominated = Act("shadow", outcomes)
        bigger = _with_act(menu, dominated)
        wset = random_wset(rng, STATES4)
        for act in menu:
            assert mwer(act, menu, grid_utility, wset) == mwer(act, bigger, grid_utility, wset)
            assert max_regret(act, menu, grid_utility) == max_regret(act, bigger, grid_utility)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_mixture_scaling_identity(self, grid_utility, seed):
        rng = random.Random(seed)
        menu = _random_menu(rng, grid_utility, size=3)
        h = _random_act(rng, "h", grid_utility)
        p = F(rng.randint(1, 19), 20)
        wset = random_wset(rng, STATES4)
        mixed_menu = mix_menu(p, menu, h)
        for act in menu:
            assert mwer(mix(p, act, h), mixed_menu, grid_utility, wset) == p * mwer(
                act, menu, grid_utility, wset
            )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_affine_utility_rescaling(self, grid_utility, seed):
        rng = random.Random(seed)
        menu = _random_menu(rng, grid_utility, size=3)
        wset = random_wset(rng, STATES4)
        scale, shift = F(rng.randint(1, 8), 3), F(rng.randint(-9, 9), 4)
        rescaled = _rescaled(grid_utility, scale, shift)
        before = rank("mwer", menu, grid_utility, wset)
        after = rank("mwer", menu, rescaled, wset)
        assert after.groups == before.groups
        for act in menu:
            assert mwer(act, menu, rescaled, wset) == scale * mwer(act, menu, grid_utility, wset)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_hull_consistency(self, grid_utility, seed):
        rng = random.Random(seed)
        menu = _random_menu(rng, grid_utility, size=3)
        wset = random_wset(rng, STATES4)
        hull = to_hull(wset)
        for act in menu:
            profile = regret_profile(act, menu, grid_utility)
            assert mwer(act, menu, grid_utility, wset) == support_value(hull, profile)


ON_S1 = constant_act("a", sure("y"), ("s1",))
ON_S2 = constant_act("b", sure("y"), ("s2",))


@pytest.mark.parametrize("build, error, message", [
    (lambda: Act("", {"s1": sure("y")}), ValueError, "acts need a nonempty name"),
    (lambda: Act("e", {}), ValueError, "act 'e' needs a lottery for at least one state"),
    (lambda: constant_act("c", sure("p"), ()), ValueError, "act 'c' needs a lottery for at least one state"),
    (lambda: Menu([ON_S1, ON_S2]), DimensionMismatch, "act 'b' is not defined over the menu's state space"),
    (lambda: Menu([ON_S1, ON_S1]), ValueError, "duplicate act name 'a' in menu"),
    (lambda: rank("minimax", Menu([ON_S1]), UtilitySpec({"y": 1, "z": 0}), None), BeliefKindMismatch,
     "unknown rule 'minimax'"),
    (lambda: mix(F(3, 2), ON_S1, ON_S1), ValueError, "mixture weight must lie in [0, 1]"),
    (lambda: mix(F(1, 2), ON_S1, ON_S2), DimensionMismatch, "cannot mix acts over different state spaces"),
])
def test_error_types_and_messages(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message
