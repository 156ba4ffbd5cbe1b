"""Acts, menus, the regret calculus, the five rules, and their algebra."""

import random
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
    act_utility,
    constant_act,
    expected_regret,
    max_regret,
    mer,
    mix,
    mix_menu,
    mmeu,
    mwer,
    rank,
    regret,
    regret_profile,
    seu,
    sure,
    to_hull,
    support_value,
)
from wregret.decisions import Alternative, PreferenceOracle
from wregret.errors import ActNotInMenu, BeliefKindMismatch, UnknownPrize

from conftest import DELIVERY_STATES, random_measure, random_wset
import rule_reference as reference

F = Fraction


class TestLotteryAndUtility:
    def test_degenerate_constant_utility(self):
        u = UtilitySpec({"y": 5, "z": 0})
        act = constant_act("five", sure("y"), ("s1", "s2"))
        assert act_utility(act, u, "s1") == 5

    def test_fifty_fifty_cancels(self):
        u = UtilitySpec({"up": 1, "down": -1})
        lottery = Lottery({"up": F(1, 2), "down": F(1, 2)})
        act = constant_act("even", lottery, ("s1",))
        assert act_utility(act, u, "s1") == 0

    def test_delivery_check_in_one_broken(self, delivery_acts, delivery_utility):
        assert act_utility(delivery_acts["check"], delivery_utility, "one_broken") == 5001

    def test_unknown_prize(self):
        u = UtilitySpec({"y": 5, "z": 0})
        act = constant_act("odd", sure("mystery"), ("s1",))
        with pytest.raises(UnknownPrize):
            act_utility(act, u, "s1")

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
            assert regret(delivery_acts[name], state, base_menu, u) == value

    def test_extended_menu_regrets(self, delivery_acts, extended_menu, delivery_utility):
        u = delivery_utility
        expect = {
            ("cont", "one_broken"): 10000, ("cont", "ten_broken"): 10000,
            ("back", "one_broken"): 20000, ("back", "ten_broken"): 0,
            ("check", "one_broken"): 14999, ("check", "ten_broken"): 4999,
            ("new", "one_broken"): 0, ("new", "ten_broken"): 20000,
        }
        for (name, state), value in expect.items():
            assert regret(delivery_acts[name], state, extended_menu, u) == value

    def test_regret_requires_membership(self, delivery_acts, base_menu, delivery_utility):
        with pytest.raises(ActNotInMenu):
            regret(delivery_acts["new"], "one_broken", base_menu, delivery_utility)

    def test_regret_zero_for_per_state_best(self, delivery_acts, base_menu, delivery_utility):
        assert regret(delivery_acts["cont"], "one_broken", base_menu, delivery_utility) == 0


class TestRuleScores:
    def test_mer_base_menu(self, delivery_acts, base_menu, delivery_utility, delivery_measures):
        scores = {
            name: mer(delivery_acts[name], base_menu, delivery_utility, delivery_measures)
            for name in ("cont", "back", "check")
        }
        assert scores == {"cont": 10000, "back": 10000, "check": 4999}

    def test_mwer_state_independent_half_mix(self, delivery_utility, delivery_wset):
        # mirrored payoffs: the menu has state-independent outcome distributions
        from wregret.axioms import profile_act

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
        one, _ = delivery_measures
        wset = WeightedMeasureSet([(one, 1)], DELIVERY_STATES)
        for act in base_menu:
            assert mwer(act, base_menu, delivery_utility, wset) == expected_regret(
                act, base_menu, delivery_utility, one
            )

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
        assert ranking.best == ("cont",)
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


def _reference_instance(rng: random.Random):
    """A random problem as library objects and as the reference's plain dicts."""
    states = [f"s{i}" for i in range(rng.randint(3, 6))]
    utility = {f"z{i}": F(v, 2) for i, v in enumerate(rng.sample(range(-12, 13), 4))}
    acts = {}
    for i in range(rng.randint(2, 16)):
        act = {}
        for s in states:
            cut = rng.randint(0, 4)
            act[s] = {"z0": F(cut, 4), rng.choice(["z1", "z2", "z3"]): F(4 - cut, 4)}
        acts[f"a{i}"] = act
    measures = []
    for _ in range(rng.randint(1, 8)):
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


class TestAgainstReference:
    def test_rank_matches_the_reference_rules(self):
        for seed in range(60):
            rng = random.Random(seed)
            menu, u, acts, utility, beliefs = _reference_instance(rng)
            for rule, (belief, plain) in beliefs.items():
                ranking = rank(rule, menu, u, belief)
                expected = reference.scores(rule, acts, utility, plain)
                assert ranking.scores == expected, (seed, rule)
                assert ranking.lower_is_better == reference.LOWER_IS_BETTER[rule]
                assert ranking.groups == reference.groups(expected, ranking.lower_is_better)
                per_act = {act.name: PER_ACT[rule](act, menu, u, belief) for act in menu}
                assert per_act == expected, (seed, rule)


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
        bigger = menu.with_act(extra)
        wset = random_wset(rng, STATES4)
        measures = [m for m, _ in wset.entries]
        for act in menu:
            assert max_regret(act, bigger, grid_utility) >= max_regret(act, menu, grid_utility)
            assert mer(act, bigger, grid_utility, measures) >= mer(act, menu, grid_utility, measures)
            assert mwer(act, bigger, grid_utility, wset) >= mwer(act, menu, grid_utility, wset)
            for m in measures:
                assert expected_regret(act, bigger, grid_utility, m) >= expected_regret(
                    act, menu, grid_utility, m
                )

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
        bigger = menu.with_act(dominated)
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
        rescaled = grid_utility.rescaled(scale, shift)
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
