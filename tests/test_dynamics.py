"""Conditional preferences, the scaling identity, MDC, and decision trees."""

import fractions
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, count
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wregret import (
    Act,
    Event,
    Lottery,
    Measure,
    Menu,
    UtilitySpec,
    WeightedMeasureSet,
    likelihood_update,
    mwer,
    normalize,
    point_mass,
    rank,
)
from wregret import decisions
from wregret.axioms import (
    GeneratorConfig,
    Sampler,
    _spliced_signs,
    check_mdc,
    delivery_fixtures,
    replay_mdc,
)
from wregret.dynamics import (
    DecisionNode,
    DecisionTree,
    Leaf,
    NatureNode,
    TreeEvaluation,
    evaluate_tree,
    frozen_weight_family,
    is_null,
    likelihood_family,
    splice,
    splice_menu,
)
from wregret.errors import MalformedTree, NullEvent, NullEventAtNode, UnknownPrize

import tree_reference
from conftest import (
    DELIVERY_STATES, counting_whole_menu, mdc_scaling_check, profile_act, random_measure, random_wset,
)

F = Fraction

GRID_U = UtilitySpec({"top": 1, "bot": -1})
STATES4 = ("s1", "s2", "s3", "s4")


def grid_act(name, **values) -> Act:
    return profile_act(name, {s: F(v) for s, v in values.items()}, GRID_U)


class TestSplice:
    def test_full_event_returns_on_act(self, delivery_acts):
        spliced = splice(delivery_acts["cont"], Event(DELIVERY_STATES), delivery_acts["back"])
        assert spliced.items() == delivery_acts["cont"].items()

    def test_empty_event_returns_off_act(self, delivery_acts):
        spliced = splice(delivery_acts["cont"], Event([]), delivery_acts["back"])
        assert spliced.items() == delivery_acts["back"].items()

    def test_check_is_cont_spliced_with_back(self, delivery_acts, delivery_utility):
        # checking is continuing on the one-broken class and going back
        # elsewhere; the utility profiles agree up to the uniform 4999
        # inspection cost
        spliced = splice(delivery_acts["cont"], Event(["one_broken"]), delivery_acts["back"])
        profile = spliced.utility_profile(delivery_utility)
        check = delivery_acts["check"].utility_profile(delivery_utility)
        assert profile == {"one_broken": 10000, "ten_broken": 0}
        assert all(profile[s] == check[s] + 4999 for s in profile)

    def test_self_splice_is_identity(self, delivery_acts):
        f = delivery_acts["check"]
        assert splice(f, Event(["one_broken"]), f).items() == f.items()

    def test_splice_menu_names_are_deterministic(self, base_menu, delivery_acts):
        spliced = splice_menu(base_menu, Event(["one_broken"]), delivery_acts["back"])
        assert [a.name for a in spliced] == [
            "cont_else_back", "back_else_back", "check_else_back",
        ]


class TestNullEvents:
    def test_empty_event_is_null(self, delivery_wset):
        assert is_null(Event([]), delivery_wset)

    def test_full_space_not_null(self, delivery_wset):
        assert not is_null(Event(DELIVERY_STATES), delivery_wset)

    def test_weight_zero_support_is_null(self):
        # the event has positive probability only under a weight-0 measure
        states = ("a", "b")
        live = Measure({"a": 1, "b": 0})
        ghost = Measure({"a": 0, "b": 1})
        wset = WeightedMeasureSet([(live, 1), (ghost, 0)], states)
        event = Event(["b"])
        assert is_null(event, wset)
        # definitional confirmation: splicing anything on the event is
        # score-invisible for every sampled pair and menu
        rng = random.Random(5)
        for _ in range(25):
            f = grid_act("f", a=F(rng.randint(-10, 10), 10), b=F(rng.randint(-10, 10), 10))
            g = grid_act("g", a=F(rng.randint(-10, 10), 10), b=F(rng.randint(-10, 10), 10))
            feg = splice(f, event, g)
            menu = Menu([feg, g, grid_act("d", a=1, b=1)])
            assert mwer(feg, menu, GRID_U, wset) == mwer(g, menu, GRID_U, wset)


class TestConditionalScore:
    def test_full_space_equals_unconditional(self, base_menu, delivery_utility, delivery_wset):
        oracle = likelihood_family(delivery_wset, delivery_utility)(Event(DELIVERY_STATES))
        for act in base_menu:
            assert oracle.score(act, base_menu) == mwer(act, base_menu, delivery_utility, delivery_wset)

    def test_null_event_rejected(self, delivery_utility, delivery_wset):
        with pytest.raises(NullEvent):
            likelihood_family(delivery_wset, delivery_utility)(Event([]))

    def test_inspected_prefix_scores(self, delivery_utility):
        # four-state refinement: conditioning on a clean hundred-item prefix
        # leaves the class acts unchanged and scales the ten-broken weight to
        # the exact binomial ratio
        states = ("one_good", "one_bad", "ten_good", "ten_bad")
        p_ten = F(comb(900, 10), comb(1000, 10))
        one = Measure({"one_good": F(9, 10), "one_bad": F(1, 10), "ten_good": 0, "ten_bad": 0})
        ten = Measure({"one_good": 0, "one_bad": 0, "ten_good": p_ten, "ten_bad": 1 - p_ten})
        wset = WeightedMeasureSet([(one, 1), (ten, 1)], states)
        event = Event(["one_good", "ten_good"])

        def class_act(name, one_value, ten_value):
            return profile_act(
                name,
                {
                    "one_good": F(one_value), "one_bad": F(one_value),
                    "ten_good": F(ten_value), "ten_bad": F(ten_value),
                },
                UtilitySpec({"hi": 20000, "lo": -20000}),
            )

        cont = class_act("cont", 10000, -10000)
        back = class_act("back", 0, 0)
        check = class_act("check", 5001, -4999)
        menu = Menu([cont, back, check])
        u = UtilitySpec({"hi": 20000, "lo": -20000})
        w = p_ten / F(9, 10)
        conditional = likelihood_family(wset, u)(event)
        assert conditional.score(cont, menu) == 10000 * w
        assert conditional.score(back, menu) == 10000
        assert conditional.score(check, menu) == 4999

    def test_singleton_belief_gives_conditional_seu_ranking(self, delivery_utility):
        states = ("a", "b", "c")
        pr = Measure({"a": F(1, 2), "b": F(1, 4), "c": F(1, 4)})
        wset = WeightedMeasureSet([(pr, 1)], states)
        event = Event(["a", "b"])
        acts = [
            profile_act("x", {"a": F(1), "b": F(-1), "c": F(0)}, GRID_U),
            profile_act("y", {"a": F(0), "b": F(1, 2), "c": F(0)}, GRID_U),
            profile_act("z", {"a": F(-1, 2), "b": F(1), "c": F(0)}, GRID_U),
        ]
        menu = Menu(acts)
        conditional = likelihood_family(wset, GRID_U)(event)
        scores = {a.name: conditional.score(a, menu) for a in acts}
        regret_order = sorted(scores, key=lambda n: (scores[n], n))
        conditioned = pr.condition(event)
        seu_ranking = rank("seu", menu, GRID_U, conditioned)
        assert tuple(regret_order) == tuple(n for g in seu_ranking.groups for n in g)


class TestScalingIdentity:
    def test_full_space_trivial(self, base_menu, delivery_acts, delivery_utility, delivery_wset):
        lhs, rhs = mdc_scaling_check(
            delivery_acts["cont"], Event(DELIVERY_STATES), base_menu,
            delivery_acts["back"], delivery_utility, delivery_wset,
        )
        assert lhs == rhs == mwer(delivery_acts["cont"], base_menu, delivery_utility, delivery_wset)

    def test_delivery_one_broken_by_hand(self, base_menu, delivery_acts, delivery_utility, delivery_wset):
        # conditioning on the one-broken class keeps only that point mass;
        # conditional regrets are the one-broken column, so
        #   rhs = 1 * (one-broken regret), and the spliced computation
        #   gives the same number directly
        event = Event(["one_broken"])
        for name, expected in (("cont", 0), ("back", 10000), ("check", 4999)):
            lhs, rhs = mdc_scaling_check(
                delivery_acts[name], event, base_menu,
                delivery_acts["back"], delivery_utility, delivery_wset,
            )
            assert lhs == rhs == expected

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_random_instances_exact(self, seed):
        rng = random.Random(seed)
        wset = random_wset(rng, STATES4)
        members = [s for s in STATES4 if rng.random() < 0.6] or ["s1"]
        event = Event(members)
        if is_null(event, wset):
            return
        acts = [
            profile_act(
                f"a{i}", {s: F(rng.randint(-10, 10), 10) for s in STATES4}, GRID_U
            )
            for i in range(3)
        ]
        menu = Menu(acts)
        lhs, rhs = mdc_scaling_check(acts[0], event, menu, acts[1], GRID_U, wset)
        assert lhs == rhs

    def test_null_event_rejected(self, base_menu, delivery_acts, delivery_utility, delivery_wset):
        with pytest.raises(NullEvent):
            mdc_scaling_check(
                delivery_acts["cont"], Event([]), base_menu,
                delivery_acts["back"], delivery_utility, delivery_wset,
            )


class TestMdc:
    def test_likelihood_family_consistent(self):
        rng = random.Random(1)
        wset = random_wset(rng, STATES4)
        report = check_mdc(
            likelihood_family(wset, GRID_U), wset, GeneratorConfig(samples=150), seed=2
        )
        assert report.verdict == "no-violation-found"
        assert report.applicable > 50

    def test_frozen_weights_inconsistent_when_likelihoods_differ(self):
        # pinned instance, verified by hand: E = {s1, s2},
        #   m_a = (8/10, 1/10, 1/10),  m_b = (1/10, 2/10, 7/10)
        # menu {d=(1,1,1), f=(1,0,1), g=(1/3,1,1)}:
        #   frozen-weight conditional scores: f -> 2/3, g -> 16/27 (g wins)
        #   spliced with h=d:                f -> 1/5, g -> 8/15 (f wins)
        states = ("s1", "s2", "s3")
        m_a = Measure({"s1": F(8, 10), "s2": F(1, 10), "s3": F(1, 10)})
        m_b = Measure({"s1": F(1, 10), "s2": F(2, 10), "s3": F(7, 10)})
        wset = WeightedMeasureSet([(m_a, 1), (m_b, 1)], states)
        event = Event(["s1", "s2"])
        d = profile_act("d", {"s1": F(1), "s2": F(1), "s3": F(1)}, GRID_U)
        f = profile_act("f", {"s1": F(1), "s2": F(0), "s3": F(1)}, GRID_U)
        g = profile_act("g", {"s1": F(1, 3), "s2": F(1), "s3": F(1)}, GRID_U)
        menu = Menu([d, f, g])

        frozen = frozen_weight_family(wset, GRID_U)
        conditional = frozen(event)
        assert conditional.score(f, menu) == F(2, 3)
        assert conditional.score(g, menu) == F(16, 27)
        unconditional = frozen(Event(states))
        spliced = splice_menu(menu, event, d)
        fed, ged = splice(f, event, d), splice(g, event, d)
        assert unconditional.score(fed, spliced) == F(1, 5)
        assert unconditional.score(ged, spliced) == F(8, 15)
        # conditional prefers g, unconditional spliced prefers f
        # (menu and spliced list d, f, g in that order)
        before, after = conditional.alternatives(menu), unconditional.alternatives(spliced)
        assert conditional.prefers(*before[1:], before) < 0 < unconditional.prefers(*after[1:], after)

        report = check_mdc(frozen, wset, GeneratorConfig(samples=400), seed=0)
        assert report.verdict == "violated"
        assert replay_mdc(report, frozen)
        assert not replay_mdc(report, likelihood_family(wset, GRID_U))

    @pytest.mark.parametrize("make_family", [likelihood_family, frozen_weight_family])
    def test_replay_is_false_where_the_witness_event_is_null(self, make_family):
        # the pinned frozen-weight violation above, replayed against a family
        # of a set concentrated on s3, under which its event {s1, s2} is null
        states = ("s1", "s2", "s3")
        m_a = Measure({"s1": F(8, 10), "s2": F(1, 10), "s3": F(1, 10)})
        m_b = Measure({"s1": F(1, 10), "s2": F(2, 10), "s3": F(7, 10)})
        wset = WeightedMeasureSet([(m_a, 1), (m_b, 1)], states)
        report = check_mdc(frozen_weight_family(wset, GRID_U), wset, GeneratorConfig(samples=400), seed=0)
        assert report.verdict == "violated" and report.counterexample.params["event"] == ["s1", "s2"]
        family = make_family(WeightedMeasureSet([(point_mass("s3", states), 1)], states), GRID_U)
        with pytest.raises(NullEvent):
            family(Event(["s1", "s2"]))
        assert replay_mdc(report, family) is False

    def test_singleton_belief_families_coincide(self):
        states = ("s1", "s2", "s3")
        pr = Measure({"s1": F(1, 2), "s2": F(1, 4), "s3": F(1, 4)})
        wset = WeightedMeasureSet([(pr, 1)], states)
        for family in (likelihood_family(wset, GRID_U), frozen_weight_family(wset, GRID_U)):
            report = check_mdc(family, wset, GeneratorConfig(samples=100), seed=4)
            assert report.verdict == "no-violation-found"

    def test_a_family_of_measure_sets_is_judged(self):
        # an mmeu family's oracles hold tuples of measures, not a weighted set,
        # so only the family can say which events are null; its two measures
        # put different mass off {s1, s2}, so which spliced act mmeu prefers
        # depends on the act spliced in there
        states = ("s1", "s2", "s3")
        m_a = Measure({"s1": F(8, 10), "s2": F(1, 10), "s3": F(1, 10)})
        m_b = Measure({"s1": F(1, 10), "s2": F(2, 10), "s3": F(7, 10)})
        wset = WeightedMeasureSet([(m_a, 1), (m_b, 1)], states)

        def mmeu_family(event):
            measures = tuple(m for m, _ in likelihood_update(wset, event).entries)
            return decisions.PreferenceOracle("mmeu", measures, GRID_U, states)

        report = check_mdc(mmeu_family, wset, GeneratorConfig(samples=300), seed=0)
        assert report.verdict == "violated"
        assert report.counterexample.description == "the spliced comparison depends on the off-event act"
        assert replay_mdc(report, mmeu_family)

    def test_reports_are_pinned(self):
        # the digest was recorded while profiles were still spliced in Fractions
        m_a = Measure({"s1": F(8, 10), "s2": F(1, 10), "s3": F(1, 10)})
        m_b = Measure({"s1": F(1, 10), "s2": F(2, 10), "s3": F(7, 10)})
        pinned = WeightedMeasureSet([(m_a, 1), (m_b, 1)], ("s1", "s2", "s3"))
        outcomes = []
        for seed in range(12):
            for wset in (random_wset(random.Random(seed), STATES4), pinned):
                families = (likelihood_family(wset, GRID_U), frozen_weight_family(wset, GRID_U))
                for family in families:
                    report = check_mdc(family, wset, GeneratorConfig(samples=40), seed=seed)
                    outcomes.append([report.to_obj(), [replay_mdc(report, f) for f in families]])
        assert sum(report["verdict"] == "violated" for report, _ in outcomes) == 15
        digest = hashlib.sha1(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
        assert digest == "ef7a54c86d06f6adf6f0cec6771688c6feb7e407"

    def test_zero_weight_null_events_are_pinned(self):
        # random_wset draws weights of at least 1/4; here weights of 0 make
        # events null that some measure gives positive probability.  The
        # digest was recorded before the MDC loop was folded into `_check`.
        outcomes, zero_weight_null = [], 0
        for seed in range(100):
            rng = random.Random(seed)
            k = rng.randint(2, 5)
            states = tuple(f"s{i}" for i in range(k))
            entries = [
                (random_measure(rng, states, grain=rng.choice((2, 3, 12))), F(rng.randint(0, 4), 4))
                for _ in range(rng.randint(1, 4))
            ]
            if all(w == 0 for _, w in entries):
                entries[0] = (entries[0][0], F(1))
            wset = normalize(WeightedMeasureSet(entries, states))
            events = [Event(c) for r in range(1, k + 1) for c in combinations(states, r)]
            zero_weight_null += any(
                is_null(e, wset) and any(m.event_prob(e) for m, _ in wset.entries) for e in events
            )
            families = (likelihood_family(wset, GRID_U), frozen_weight_family(wset, GRID_U))
            for family in families:
                config = GeneratorConfig(samples=rng.randint(1, 60))
                report = check_mdc(family, wset, config, seed=seed)
                outcomes.append([report.to_obj(), [replay_mdc(report, f) for f in families]])
        assert zero_weight_null == 16
        assert sum(report["verdict"] == "violated" for report, _ in outcomes) == 16
        assert sum(report["samples"] - report["applicable"] for report, _ in outcomes) == 806
        digest = hashlib.sha1(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
        assert digest == "a01d62a180c7a894ff7450784b3dcc986708e6f6"

    def test_splicing_sampled_profiles_builds_no_fractions(self, monkeypatch):
        wset = random_wset(random.Random(1), STATES4)
        oracle = likelihood_family(wset, GRID_U)(Event(STATES4))
        sampler = Sampler(random.Random(0), oracle)
        instances = []
        for _ in range(50):
            menu = sampler.menu(min_size=2)
            f, g = sampler.pick(menu, 2)
            event = Event([s for s in STATES4 if sampler.rng.random() < 0.5] or ["s1"])
            instances.append((f, g, menu, event))
        original = fractions.Fraction.__new__
        built = [0]

        def counting_new(cls, *args, **kwargs):
            built[0] += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting_new))
        signs = [_spliced_signs(oracle, f, g, menu, event) for f, g, menu, event in instances]
        monkeypatch.undo()
        assert built[0] == 0
        assert all(set(s) == set(menu) for s, (_, _, menu, _) in zip(signs, instances))

    @pytest.mark.parametrize("make_family", [likelihood_family, frozen_weight_family])
    def test_fractions_do_not_grow_with_samples(self, make_family, monkeypatch):
        # two states give three non-null events: each gets one conditional
        # oracle and one upper likelihood, whatever the sample count
        fixtures = delivery_fixtures()
        family = make_family(fixtures.weighted, fixtures.utility)
        asked = []

        def counting_family(event):
            asked.append(event)
            return family(event)

        original = fractions.Fraction.__new__
        built = [0]

        def counting_new(cls, *args, **kwargs):
            built[0] += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting_new))
        counts = []
        for samples in (50, 200):
            built[0], asked[:] = 0, []
            config = GeneratorConfig(samples=samples)
            report = check_mdc(counting_family, fixtures.weighted, config)
            assert report.verdict == "no-violation-found" and report.applicable == samples
            conditionals = asked[1:]  # after the unconditional oracle
            assert len(conditionals) == len(set(conditionals)) <= 3
            counts.append(built[0])
        assert counts[0] == counts[1]


# -- decision trees ----------------------------------------------------------------

def restaurant_ingredients():
    states = ("msg_allergy", "basil_allergy")
    u = UtilitySpec(
        {
            "pasta_meal": 5, "stirfry_meal": 3, "plain_rice": 0,
            "msg_reaction": -2, "basil_reaction": -3,
        }
    )
    msg, basil = Event(["msg_allergy"]), Event(["basil_allergy"])
    tree = DecisionTree(
        DecisionNode(
            "restaurant",
            (
                (
                    "chinese",
                    DecisionNode(
                        "order",
                        (
                            ("stirfry", NatureNode(((msg, Leaf(utility=F(-2))), (basil, Leaf(utility=F(3)))))),
                            ("rice", NatureNode(((msg, Leaf(utility=F(0))), (basil, Leaf(utility=F(0)))))),
                        ),
                    ),
                ),
                ("italian", NatureNode(((msg, Leaf(utility=F(5))), (basil, Leaf(utility=F(-3)))))),
            ),
        )
    )
    wset = WeightedMeasureSet(
        [(point_mass("msg_allergy", states), 1), (point_mass("basil_allergy", states), 1)],
        states,
    )
    return tree, u, wset


class TestTrees:
    def test_ex_ante_prefers_rice_plan(self):
        tree, u, wset = restaurant_ingredients()
        result = evaluate_tree(tree, u, wset, planning="ex-ante")
        assert result.chosen.name == "chinese+rice"
        assert result.diagnostics[0].scores == {
            "chinese+stirfry": 7, "chinese+rice": 5, "italian": 6,
        }

    @pytest.mark.parametrize("policy", ["full", "viable"])
    def test_sophisticated_eliminates_rice_then_goes_italian(self, policy):
        tree, u, wset = restaurant_ingredients()
        result = evaluate_tree(tree, u, wset, planning="sophisticated", menu_policy=policy)
        assert result.chosen.name == "italian"
        order_diag = next(d for d in result.diagnostics if d.node == "order")
        assert order_diag.scores["chinese+stirfry"] == 2
        assert order_diag.scores["chinese+rice"] == 3
        assert order_diag.eliminated == ("chinese+rice",)

    def test_single_decision_node_matches_rank(self, delivery_utility, delivery_wset):
        lottery_of = {
            "cont": {"one_broken": F(10000), "ten_broken": F(-10000)},
            "back": {"one_broken": F(0), "ten_broken": F(0)},
            "check": {"one_broken": F(5001), "ten_broken": F(-4999)},
        }
        one, ten = Event(["one_broken"]), Event(["ten_broken"])
        branches = []
        for name, profile in lottery_of.items():
            branches.append(
                (
                    name,
                    NatureNode(
                        (
                            (one, Leaf(utility=profile["one_broken"])),
                            (ten, Leaf(utility=profile["ten_broken"])),
                        )
                    ),
                )
            )
        tree = DecisionTree(DecisionNode("root", tuple(branches)))
        results = [
            evaluate_tree(
                tree, delivery_utility, delivery_wset, planning=planning, menu_policy=policy
            )
            for planning in ("ex-ante", "sophisticated")
            for policy in ("full", "viable")
        ]
        chosen = {r.chosen.name for r in results}
        assert len(chosen) == 1
        # each evaluation enumerates its own plans; they are equal by value and hash alike
        assert len({p for r in results for p in r.plans}) == len(results[0].plans) == 3
        # a one-decision tree is the flat problem: scores must match rank()
        # the reference keeps each plan's utility profile beside the plan
        plans, profiles, _ = tree_reference.enumerate_plans(tree, delivery_wset.state_space, delivery_utility)
        assert plans == list(results[0].plans)
        menu = Menu(
            profile_act(p.name, dict(zip(DELIVERY_STATES, profile)), delivery_utility)
            for p, profile in zip(plans, profiles)
        )
        ranking = rank("mwer", menu, delivery_utility, delivery_wset)
        for result in results:
            assert result.diagnostics[-1].scores == ranking.scores
        assert chosen == {ranking.groups[0][0]}

    def test_tie_break_is_lexicographic_and_reported(self):
        states = ("a", "b")
        u = UtilitySpec({"hi": 1, "lo": -1})
        wset = WeightedMeasureSet(
            [(point_mass("a", states), 1), (point_mass("b", states), 1)], states
        )
        tree = DecisionTree(
            DecisionNode(
                "pick",
                (
                    ("left", Leaf(utility=F(1, 2))),
                    ("right", Leaf(utility=F(1, 2))),
                ),
            )
        )
        result = evaluate_tree(tree, u, wset, planning="sophisticated")
        assert result.survivors == ("left", "right")
        assert result.chosen.name == "left"

    def test_nodes_resolve_deepest_first_then_in_tree_order(self):
        states = ("a", "b")
        u = UtilitySpec({"hi": 1, "lo": -1})
        wset = WeightedMeasureSet([(point_mass("a", states), 1)], states)
        pick = (("x", Leaf(utility=F(1))), ("y", Leaf(utility=F(0))))
        tree = DecisionTree(
            DecisionNode("root", (("l", DecisionNode("zed", pick)), ("r", DecisionNode("amy", pick))))
        )
        result = evaluate_tree(tree, u, wset, planning="sophisticated")
        assert [d.node for d in result.diagnostics] == ["zed", "amy", "root"]

    def test_malformed_partitions_rejected(self):
        states = ("a", "b")
        u = UtilitySpec({"hi": 1, "lo": -1})
        wset = WeightedMeasureSet([(point_mass("a", states), 1)], states)
        overlapping = DecisionTree(
            NatureNode(
                (
                    (Event(["a", "b"]), Leaf(utility=F(0))),
                    (Event(["b"]), Leaf(utility=F(1))),
                )
            )
        )
        with pytest.raises(MalformedTree, match="overlap"):
            evaluate_tree(overlapping, u, wset)
        incomplete = DecisionTree(NatureNode(((Event(["a"]), Leaf(utility=F(0))),)))
        with pytest.raises(MalformedTree, match="misses"):
            evaluate_tree(incomplete, u, wset)
        duplicated = DecisionTree(
            DecisionNode(
                "d",
                (
                    ("x", DecisionNode("d", (("y", Leaf(utility=F(0))),))),
                ),
            )
        )
        with pytest.raises(MalformedTree, match="duplicate"):
            evaluate_tree(duplicated, u, wset)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Leaf(), "exactly one"),
            (lambda: Leaf(lottery=Lottery({"hi": 1}), utility=F(1)), "exactly one"),
            (lambda: DecisionNode("d", ()), "no branches"),
            (lambda: DecisionNode("d", (("x", Leaf(utility=F(0))),) * 2), "duplicate branch"),
            (lambda: NatureNode(()), "empty partition"),
            (lambda: Leaf(utility=F(0))._replace(utility=None), "exactly one"),
        ],
        ids=["empty-leaf", "leaf-with-both", "no-branches", "repeated-branch", "empty-nature",
             "replaced-leaf"],
    )
    def test_malformed_nodes_rejected_when_built(self, build, message):
        with pytest.raises(MalformedTree, match=message):
            build()

    def test_leaf_utilities_are_exact(self):
        with pytest.raises(TypeError, match="leaf utility 0.1 is not"):
            Leaf(utility=0.1)
        u = UtilitySpec({"hi": 1, "lo": -1})
        wset = WeightedMeasureSet([(point_mass("a", ("a",)), 1)], ("a",))
        evaluations = [
            evaluate_tree(DecisionTree(DecisionNode("d", (("x", Leaf(utility=v)), ("y", Leaf(utility=0))))), u, wset)
            for v in ("1/10", "0.1", F(1, 10))
        ]
        assert evaluations[0] == evaluations[1] == evaluations[2]
        assert evaluations[0].diagnostics[0].scores == {"x": 0, "y": F(1, 10)}

    def test_nodes_are_immutable(self):
        leaf = Leaf(utility=F(0))
        node = DecisionNode("d", (("x", leaf),))
        for record, field in ((leaf, "utility"), (node, "branches"), (DecisionTree(node), "root")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_null_information_set_rejected(self):
        states = ("a", "b")
        u = UtilitySpec({"hi": 1, "lo": -1})
        wset = WeightedMeasureSet([(point_mass("a", states), 1)], states)
        tree = DecisionTree(
            NatureNode(
                (
                    (Event(["a"]), Leaf(utility=F(0))),
                    (Event(["b"]), DecisionNode("dead", (("x", Leaf(utility=F(0))), ("y", Leaf(utility=F(1)))))),
                )
            )
        )
        with pytest.raises(NullEventAtNode):
            evaluate_tree(tree, u, wset, planning="sophisticated")


TREE_U = UtilitySpec({"hi": 2, "mid": 1, "lo": -1})
TREE_LOTTERIES = (
    Lottery({"hi": 1}), Lottery({"mid": 1}), Lottery({"lo": 1}),
    Lottery({"hi": F(1, 2), "lo": F(1, 2)}), Lottery({"hi": F(1, 3), "mid": F(2, 3)}),
)
PLANNINGS = [(planning, policy) for planning in ("ex-ante", "sophisticated") for policy in ("full", "viable")]


def plan_count(node) -> int:
    if isinstance(node, Leaf):
        return 1
    if isinstance(node, DecisionNode):
        return sum(plan_count(child) for _, child in node.branches)
    product = 1
    for _, child in node.partition:
        product *= plan_count(child)
    return product


def random_tree(rng: random.Random, states, fanout: int, defects: float = 0.0) -> DecisionTree:
    """A seeded tree over the states.  Leaves lie on a coarse grid, so plans
    tie.  With `defects` > 0 some nodes are broken: a repeated decision node
    name, a nature partition drawn over all the states rather than the live
    ones, a lottery with a prize the utility table lacks, and branch names
    with '+' that can make two plans' names equal."""
    names = count()
    branch_names = ("a", "b", "a+b", "b+a") if defects else None

    def node(live: frozenset, depth: int):
        roll = rng.random()
        if depth >= 4 or roll < 0.3:
            if rng.random() < defects:
                return Leaf(lottery=Lottery({"ghost": 1}))
            if rng.random() < 0.5:
                return Leaf(utility=F(rng.randint(-4, 4), 2))
            return Leaf(lottery=rng.choice(TREE_LOTTERIES))
        if roll < 0.65 and len(live) > 1:
            pool = sorted(states) if rng.random() < defects else sorted(live)
            labels = [rng.randrange(rng.randint(2, 3)) for _ in pool]
            cells = [{s for s, c in zip(pool, labels) if c == label} for label in sorted(set(labels))]
            if rng.random() < defects:
                cells.append(set(rng.sample(pool, 1)))
            return NatureNode(tuple((Event(c), node(frozenset(c) & live, depth + 1)) for c in cells))
        name = f"d{next(names) // (2 if rng.random() < defects else 1)}"
        width = rng.randint(2, fanout)
        labels = rng.sample(branch_names, min(width, 4)) if branch_names else [f"{name}b{i}" for i in range(width)]
        return DecisionNode(name, tuple((label, node(live, depth + 1)) for label in labels))

    return DecisionTree(node(frozenset(states), 0))


def outcome(evaluate, tree, u, wset, planning, policy):
    """The evaluation and its repr (which shows the types of the values),
    or the type and message of the error it raised."""
    try:
        result = evaluate(tree, u, wset, planning, policy)
    except Exception as exc:  # the reference decides which errors are right
        return type(exc), str(exc)
    return result, repr(result)


class TestTreeReference:
    """`evaluate_tree` against the plan-scanning evaluation it replaced
    (`tree_reference`): equal `TreeEvaluation`s, diagnostics included, or the
    same error type and message."""

    def test_evaluations_match_the_reference(self):
        rng = random.Random(2011)
        compared = evaluated = 0
        while compared < 200:
            states = tuple(f"s{i}" for i in range(rng.randint(3, 6)))
            tree = random_tree(rng, states, fanout=rng.randint(2, 8))
            if plan_count(tree.root) > 64:
                continue
            wset = random_wset(rng, states)
            for planning, policy in PLANNINGS:
                want = outcome(tree_reference.evaluate_tree, tree, TREE_U, wset, planning, policy)
                assert outcome(evaluate_tree, tree, TREE_U, wset, planning, policy) == want
                evaluated += isinstance(want[0], TreeEvaluation)
            compared += 1
        assert evaluated > 700

    def test_errors_match_the_reference(self):
        # broken trees, and beliefs that make some information sets null
        rng = random.Random(1302)
        kinds = set()
        for _ in range(300):
            states = tuple(f"s{i}" for i in range(rng.randint(3, 5)))
            tree = random_tree(rng, states, fanout=3, defects=0.15)
            if plan_count(tree.root) > 96:
                continue
            support = rng.sample(states, rng.randint(1, len(states)))
            measure = random_measure(rng, support)
            wset = WeightedMeasureSet([(Measure({s: measure[s] if s in support else 0 for s in states}), 1)], states)
            for planning, policy in PLANNINGS:
                want = outcome(tree_reference.evaluate_tree, tree, TREE_U, wset, planning, policy)
                assert outcome(evaluate_tree, tree, TREE_U, wset, planning, policy) == want
                kinds.add(want[0] if isinstance(want[0], type) else "ok")
        assert kinds >= {"ok", MalformedTree, NullEventAtNode, UnknownPrize}


def benchmark_shape_tree(rng: random.Random, states) -> DecisionTree:
    """The benchmark's tree shape over six states: a root decision with eight
    branches, each a nature node splitting the states in halves, each half a
    decision with eight branches, each a nature node over that half's states
    with one leaf per cell (512 plans, 17 decision nodes)."""
    names = count(1)

    def split(cell):
        shuffled = rng.sample(sorted(cell), len(cell))
        k = len(cell) // 2
        return frozenset(shuffled[:k]), frozenset(shuffled[k:])

    def leaf():
        if rng.random() < 0.3:
            return Leaf(utility=F(rng.randint(-20, 20)))
        return Leaf(lottery=rng.choice(TREE_LOTTERIES))

    def decision(cell, deeper):
        name = f"d{next(names)}"
        branches = []
        for i in range(8):
            parts = split(cell)
            child = NatureNode(tuple((Event(p), decision(p, False) if deeper else leaf()) for p in parts))
            branches.append((f"{name}b{i}", child))
        return DecisionNode(name, tuple(branches))

    return DecisionTree(decision(frozenset(states), True))


class TestPackedTreeNodes:
    def test_packed_nodes_match_the_reference(self, monkeypatch):
        # the root's 512 continuations and each lower node's 8 meet the least
        # menu size of mwer's whole-menu form, and the six-entry belief its
        # least rows, so `numerators` scores them in one packed pass; the
        # reference scores them member by member
        states = tuple(f"s{i}" for i in range(6))
        rng = random.Random(32)
        tree = benchmark_shape_tree(rng, states)
        entries = [(random_measure(rng, states), F(rng.randint(1, 4), 4)) for _ in range(6)]
        wset = normalize(WeightedMeasureSet(entries, states))
        _, least_acts, least_rows = decisions._WHOLE_MENU[decisions.RULES["mwer"].score]
        assert len(wset.entries) >= least_rows and 8 >= least_acts
        calls = counting_whole_menu(monkeypatch)
        for planning, policy in PLANNINGS:
            want = outcome(tree_reference.evaluate_tree, tree, TREE_U, wset, planning, policy)
            assert isinstance(want[0], TreeEvaluation)
            calls[0] = 0
            assert outcome(evaluate_tree, tree, TREE_U, wset, planning, policy) == want
            assert calls[0] >= 1, (planning, policy)


class TestTreeWork:
    def test_nodes_score_their_distinct_continuations_once(self, monkeypatch):
        # Each of the 16 lower nodes has 8 continuations and the root 512;
        # scoring every plan through a node instead, as the plan-scanning
        # evaluation did, makes 1,536 kernel calls under sophisticated/full.
        states = tuple(f"s{i}" for i in range(6))
        rng = random.Random(0)
        tree = benchmark_shape_tree(rng, states)
        wset = random_wset(rng, states, max_measures=4)
        kernel = decisions.RULES["mwer"]
        calls = [0]

        def counting_kernel(x, best, rows):
            calls[0] += 1
            return kernel.score(x, best, rows)

        original = fractions.Fraction.__new__
        built = [0]

        def counting_new(cls, *args, **kwargs):
            built[0] += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setitem(decisions.RULES, "mwer", kernel._replace(score=counting_kernel))
        monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting_new))
        counts = {}
        for planning, policy in PLANNINGS:
            calls[0] = built[0] = 0
            result = evaluate_tree(tree, TREE_U, wset, planning, policy)
            counts[planning, policy] = (calls[0], built[0])
        monkeypatch.undo()
        assert len(result.plans) == 512 and len(result.diagnostics) == 17
        # (kernel calls, Fractions built); the plan-scanning evaluation made
        # (512, 770), (512, 770), (1536, 1826) and (584, 874), and copying
        # each leaf's Fraction utility built 35 more in every mode
        assert counts == {
            ("ex-ante", "full"): (512, 307),
            ("ex-ante", "viable"): (512, 307),
            ("sophisticated", "full"): (16 * 8 + 512, 459),
            ("sophisticated", "viable"): (136, 168),
        }


def _one_leaf_tree() -> DecisionTree:
    return DecisionTree(DecisionNode("root", (("go", Leaf(utility=F(1))),)))


@pytest.mark.parametrize("build, error, message", [
    (lambda: splice(grid_act("f", a=0), Event(["a"]), grid_act("h", b=0)), ValueError,
     "spliced acts must share a state space"),
    (lambda: evaluate_tree(_one_leaf_tree(), GRID_U, normalize(WeightedMeasureSet([(Measure({"a": 1}), 1)])),
                           planning="myopic"), ValueError, "unknown planning mode 'myopic'"),
    (lambda: evaluate_tree(_one_leaf_tree(), GRID_U, normalize(WeightedMeasureSet([(Measure({"a": 1}), 1)])),
                           menu_policy="some"), ValueError, "unknown menu policy 'some'"),
])
def test_error_types_and_messages(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message
