"""Weighted measure sets: normalization, updating, and the hull geometry."""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wregret import (
    Event,
    Measure,
    RegularHull,
    SubProbabilityVector,
    WeightedMeasureSet,
    hull_equal,
    likelihood_update,
    normalize,
    point_mass,
    recover_weights,
    sequential_update,
    support_value,
    to_hull,
    upper_likelihood,
    worst_weighted_regret_oracle,
)
from wregret.errors import (
    AllZeroWeights,
    DimensionMismatch,
    EmptySet,
    NegativeDirection,
    NoInformativeDirection,
    UndefinedUpdate,
)
from wregret import linfeas
from wregret.decisions import Act, sure
from wregret.dynamics import splice
from wregret.measures import is_null
from wregret.rational import format_map

from conftest import DELIVERY_STATES, random_measure, random_wset
import measure_reference as reference

F = Fraction

ABC = ("a", "b", "c")


def m3(a, b, c) -> Measure:
    return Measure({"a": F(a), "b": F(b), "c": F(c)})


class TestMeasure:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            Measure({"a": F(1, 2), "b": F(1, 3)})

    def test_no_negative_mass(self):
        with pytest.raises(ValueError, match="negative"):
            Measure({"a": F(3, 2), "b": F(-1, 2)})

    def test_condition_restricts_and_renormalizes(self):
        m = m3(F(1, 2), F(1, 4), F(1, 4))
        c = m.condition(Event(["a", "b"]))
        assert c == m3(F(2, 3), F(1, 3), 0)

    def test_condition_keeps_full_state_space(self):
        c = m3(F(1, 2), F(1, 2), 0).condition(Event(["a"]))
        assert c.state_space == ABC

    def test_condition_on_impossible_event(self):
        with pytest.raises(UndefinedUpdate):
            m3(1, 0, 0).condition(Event(["b"]))

    def test_every_exact_spelling_gives_one_measure(self):
        spellings = [
            Measure({"a": "1/2", "b": "0.25", "c": "1/4"}),
            Measure({"c": F(2, 8), "a": F(2, 4), "b": F(1, 4)}),
            m3(F(1, 2), F(1, 4), F(1, 4)),
        ]
        assert len(set(spellings)) == 1
        assert len({hash(m) for m in spellings}) == 1
        assert all(m.numerators == (2, 1, 1) and m.denominator == 4 for m in spellings)
        assert Measure({"a": 1, "b": 0}) == Measure({"b": F(0), "a": "1"})

    def test_items_are_exact_fractions_in_sorted_state_order(self):
        m = Measure({"c": "1/6", "a": "1/2", "b": "1/3"})
        assert m.items() == (("a", F(1, 2)), ("b", F(1, 3)), ("c", F(1, 6)))
        assert all(type(p) is Fraction for _, p in m.items())
        assert m.state_space == ABC and m["b"] == F(1, 3)
        assert repr(m) == "Measure({a: 1/2, b: 1/3, c: 1/6})"
        with pytest.raises(KeyError):
            m["d"]

    def test_a_measure_cannot_be_changed(self):
        m = m3(F(1, 2), F(1, 2), 0)
        with pytest.raises(AttributeError):
            m.numerators = (1, 0, 0)
        with pytest.raises(AttributeError):
            m.denominator = 1
        with pytest.raises(AttributeError):
            del m.numerators
        with pytest.raises(TypeError):
            m["a"] = F(1)
        assert m == m3(F(1, 2), F(1, 2), 0)

    def test_copy_and_pickle_round_trip(self):
        m = Measure({"x": F(1, 3), "y": F(2, 3)})
        m.items()  # the Fractions built on read go along or are rebuilt
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and hash(twin) == hash(m)
            assert twin.items() == m.items() and twin.denominator == 3


class TestFloatsRejected:
    """The exact types take ints, Fractions and strings; a float would be
    stored as its binary expansion, so it raises TypeError instead."""

    def test_measure(self):
        with pytest.raises(TypeError, match="probability 0.5 for state 'a'"):
            Measure({"a": 0.5, "b": 0.5})
        assert Measure({"a": "1/2", "b": "0.5"}) == Measure({"a": F(1, 2), "b": F(1, 2)})

    def test_weighted_measure_set_weight(self):
        with pytest.raises(TypeError, match="weight 0.3 is not"):
            WeightedMeasureSet([(m3(1, 0, 0), 0.3)], ABC)
        assert WeightedMeasureSet([(m3(1, 0, 0), "3/10")], ABC).entries[0][1] == F(3, 10)

    def test_sub_probability_vector(self):
        with pytest.raises(TypeError, match="mass 0.1 for state 'a'"):
            SubProbabilityVector({"a": 0.1})

    def test_support_value_direction(self, delivery_wset):
        hull = to_hull(delivery_wset)
        with pytest.raises(TypeError, match="direction component 0.5 for state 'one_broken'"):
            support_value(hull, {"one_broken": 0.5, "ten_broken": 0})

    def test_expectation_values(self, delivery_wset):
        # a float value used to come back as its binary expansion, 3602879701896397/2**55
        with pytest.raises(TypeError, match="value 0.1 for state 'a'"):
            Measure({"a": 1, "b": 0}).expectation({"a": 0.1, "b": 0})
        assert Measure({"a": 1, "b": 0}).expectation({"a": "0.1", "b": 0}) == F(1, 10)
        oracle = worst_weighted_regret_oracle(delivery_wset)
        with pytest.raises(TypeError, match="value -0.5 for state 'one_broken'"):
            oracle({"one_broken": -0.5, "ten_broken": -1})

    def test_recover_weights_direction(self, delivery_wset):
        oracle = worst_weighted_regret_oracle(delivery_wset)
        candidates = [m for m, _ in delivery_wset.entries]
        with pytest.raises(TypeError, match="direction component -0.5 for state 'one_broken'"):
            recover_weights(oracle, candidates, [{"one_broken": -0.5, "ten_broken": -1}])


class TestNormalize:
    def test_uniform_rescaling(self):
        p, q = m3(1, 0, 0), m3(0, 1, 0)
        wset = WeightedMeasureSet([(p, F(1, 2)), (q, F(1, 4))], ABC)
        result = normalize(wset)
        assert dict(result.entries) == {p: F(1), q: F(1, 2)}

    def test_identity_when_already_normalized(self):
        p, q = m3(1, 0, 0), m3(0, 1, 0)
        wset = WeightedMeasureSet([(p, 1), (q, 1)], ABC)
        assert normalize(wset) == wset

    def test_duplicate_collapse_keeps_max(self):
        p = m3(1, 0, 0)
        wset = WeightedMeasureSet([(p, F(1, 2)), (p, F(1, 4))], ABC)
        assert dict(normalize(wset).entries) == {p: F(1)}

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            WeightedMeasureSet([], ABC)

    def test_all_zero_weights(self):
        wset = WeightedMeasureSet([(m3(1, 0, 0), 0)], ABC)
        with pytest.raises(AllZeroWeights):
            normalize(wset)

    def test_equality_ignores_the_order_states_are_listed_in(self):
        m = Measure({"a": 1, "b": 0})
        listed_ba = WeightedMeasureSet([(m, 1)], ("b", "a"))
        listed_ab = WeightedMeasureSet([(m, 1)], ("a", "b"))
        assert listed_ba == listed_ab and hash(listed_ba) == hash(listed_ab)
        assert normalize(listed_ba) == normalize(listed_ab)
        assert listed_ba.state_space == ("b", "a")

    def test_matches_the_divide_then_merge_reference(self):
        # entries, weights and their order, on sets with repeated measures,
        # zero weights, and a top weight of 1 or below it
        for seed in range(300):
            rng = random.Random(seed)
            pool = [random_measure(rng, ABC, grain=rng.choice((2, 4))) for _ in range(rng.randint(1, 4))]
            entries = [(rng.choice(pool), F(rng.randint(0, 8), 8)) for _ in range(rng.randint(1, 8))]
            entries[0] = (entries[0][0], entries[0][1] or F(1, 8))
            got = normalize(WeightedMeasureSet(entries, ABC))
            want = reference.normalize([(dict(m.items()), w) for m, w in entries])
            assert [(dict(m.items()), w) for m, w in got.entries] == want
            assert got.state_space == ABC

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_idempotent(self, seed):
        wset = random_wset(random.Random(seed), ABC)
        assert normalize(wset) == normalize(normalize(wset))


class TestIsNull:
    def test_matches_upper_likelihood_on_every_event(self):
        # zero weights and zero-probability states, normalized or not; an
        # all-zero set makes every event null
        sets = 0
        for seed in range(120):
            rng = random.Random(seed)
            states = tuple(f"s{i}" for i in range(rng.randint(1, 4)))
            entries = [
                (random_measure(rng, states, grain=rng.choice((1, 2, 3, 12))), F(rng.randint(0, 4), 4))
                for _ in range(rng.randint(1, 4))
            ]
            wset = WeightedMeasureSet(entries, states)
            for r in range(len(states) + 1):
                for members in combinations(states, r):
                    event = Event(members)
                    assert is_null(event, wset) == (upper_likelihood(wset, event) == 0)
            for unknown in (Event(["zz"]), Event([states[0], "zz"])):
                with pytest.raises(DimensionMismatch):
                    is_null(unknown, wset)
                with pytest.raises(DimensionMismatch):
                    upper_likelihood(wset, unknown)
            sets += 1
        assert sets >= 100

    def test_dynamics_uses_the_same_test(self):
        from wregret import dynamics, measures

        assert dynamics.is_null is measures.is_null


class TestUpperLikelihood:
    def test_full_space_is_one(self, delivery_wset):
        assert upper_likelihood(delivery_wset, Event(DELIVERY_STATES)) == 1

    def test_empty_event_is_zero(self, delivery_wset):
        assert upper_likelihood(delivery_wset, Event([])) == 0

    def test_first_hundred_good(self):
        wset = cupcake_wset()
        assert upper_likelihood(wset, FIRST_100_GOOD) == F(9, 10)


# -- the four-state refinement used for the inspected-prefix event --------------

CUPCAKE_STATES = ("one_good", "one_bad", "ten_good", "ten_bad")
FIRST_100_GOOD = Event(["one_good", "ten_good"])
P_TEN_GOOD = F(comb(900, 10), comb(1000, 10))


def cupcake_wset() -> WeightedMeasureSet:
    one = Measure(
        {"one_good": F(9, 10), "one_bad": F(1, 10), "ten_good": 0, "ten_bad": 0}
    )
    ten = Measure(
        {"one_good": 0, "one_bad": 0, "ten_good": P_TEN_GOOD, "ten_bad": 1 - P_TEN_GOOD}
    )
    return WeightedMeasureSet([(one, 1), (ten, 1)], CUPCAKE_STATES)


class TestLikelihoodUpdate:
    def test_cupcake_weight_exact(self):
        # independent oracle: the weight is the relative likelihood
        # C(900,10)/C(1000,10) divided by 9/10, all in exact integers
        expected = F(comb(900, 10) * 10, 9 * comb(1000, 10))
        updated = likelihood_update(cupcake_wset(), FIRST_100_GOOD)
        weights = sorted(w for _, w in updated.entries)
        assert weights == [expected, F(1)]
        assert abs(float(P_TEN_GOOD) - 0.35) < 0.01

    def test_agreeing_measures_keep_weights(self):
        # both measures give the event probability 3/4: conditioning only
        p = m3(F(1, 2), F(1, 4), F(1, 4))
        q = m3(F(1, 4), F(1, 2), F(1, 4))
        wset = WeightedMeasureSet([(p, 1), (q, F(1, 3))], ABC)
        updated = likelihood_update(wset, Event(["a", "b"]))
        expected = {
            p.condition(Event(["a", "b"])): F(1),
            q.condition(Event(["a", "b"])): F(1, 3),
        }
        assert dict(updated.entries) == expected

    def test_merge_takes_sup_of_candidate_weights(self):
        # two distinct measures conditioning to the same posterior on {a,b};
        # hand computation: candidates 1/2*3/4 = 3/8 and 1*3/5 = 3/5 against
        # an upper likelihood of 1, so the merged weight is 3/5
        event = Event(["a", "b"])
        pr = m3(F(1, 2), F(1, 4), F(1, 4))     # pr|E = (2/3, 1/3)
        pr2 = m3(F(2, 5), F(1, 5), F(2, 5))    # pr2|E = (2/3, 1/3) as well
        anchor = m3(1, 0, 0)                   # fixes the upper likelihood at 1
        assert pr != pr2 and pr.condition(event) == pr2.condition(event)
        wset = WeightedMeasureSet([(pr, F(1, 2)), (pr2, 1), (anchor, 1)], ABC)
        updated = likelihood_update(wset, event)
        entries = dict(updated.entries)
        assert entries[pr.condition(event)] == F(3, 5)
        assert entries[anchor.condition(event)] == F(1)
        assert len(entries) == 2

    def test_zero_likelihood_measures_dropped(self):
        wset = WeightedMeasureSet([(m3(1, 0, 0), 1), (m3(0, 0, 1), 1)], ABC)
        updated = likelihood_update(wset, Event(["a"]))
        assert len(updated.entries) == 1

    def test_undefined_on_zero_upper_likelihood(self):
        wset = WeightedMeasureSet([(m3(1, 0, 0), 1)], ABC)
        with pytest.raises(UndefinedUpdate):
            likelihood_update(wset, Event(["b"]))


def _conditions_alike(rng: random.Random, measure: Measure, event: set, states) -> Measure:
    """A measure that conditions on the event as the given one does, with
    other mass off the event (when the event leaves room for it)."""
    given = dict(measure.condition(Event(event)).items())
    off = [s for s in states if s not in event]
    if not off:
        return measure
    t = F(rng.randint(1, 4), 4)
    spread = [rng.randint(0, 3) for _ in off]
    spread[0] += 1
    rest = {s: (1 - t) * F(k, sum(spread)) for s, k in zip(off, spread)}
    return Measure({s: t * given[s] if s in event else rest[s] for s in states})


def reference_case(seed: int):
    """A seeded weighted set of 1-32 measures over 2-6 states and two events.

    Some states are dead (probability zero under every measure), and events
    drawn inside them have upper likelihood zero; weights are k/8 with k
    from 0; about a third of the measures agree on the first event, up to
    scale, with an earlier one, so the two condition to one measure."""
    rng = random.Random(seed)
    states = tuple(f"s{i}" for i in range(rng.randint(2, 6)))
    dead = set(rng.sample(states, rng.randint(0, len(states) - 1)))
    alive = [s for s in states if s not in dead]
    first = {s for s in states if rng.random() < 0.5}
    if rng.random() < 0.15 and dead:
        first = set(rng.sample(sorted(dead), 1))
    second = {s for s in states if rng.random() < 0.6}
    measures: list[Measure] = []
    for _ in range(rng.randint(1, 32)):
        earlier = rng.choice(measures) if measures and rng.random() < 0.35 else None
        if earlier is not None and earlier.event_prob(first) > 0:
            measures.append(_conditions_alike(rng, earlier, first, states))
            continue
        raw = [rng.randint(0, 4) if s not in dead else 0 for s in states]
        raw[states.index(rng.choice(alive))] += 1
        measures.append(Measure({s: F(k, sum(raw)) for s, k in zip(states, raw)}))
    entries = [(m, F(rng.randint(0, 8), 8)) for m in measures]
    return WeightedMeasureSet(entries, states), Event(first), Event(second)


def plain(entries) -> list:
    return [(dict(m.items()), w) for m, w in entries]


def outcome(call):
    """The call's result, or the UndefinedUpdate it raised."""
    try:
        return call()
    except UndefinedUpdate:
        return UndefinedUpdate


REFERENCE_SEEDS = range(80)


class TestAgainstReference:
    """The integer measure layer against its former `Fraction` self."""

    def test_the_seeded_sets_reach_every_edge(self):
        seen = set()
        for seed in REFERENCE_SEEDS:
            wset, first, _ = reference_case(seed)
            entries = wset.entries
            seen.add(("states", len(wset.state_space)))
            seen.add(("measures", 32 if len(entries) == 32 else 1 if len(entries) == 1 else "some"))
            if any(p == 0 for m, _ in entries for _, p in m.items()):
                seen.add("zero probability")
            if any(w == 0 for _, w in entries):
                seen.add("zero weight")
            if outcome(lambda: likelihood_update(wset, first)) is UndefinedUpdate:
                seen.add("upper likelihood 0")
            else:
                kept = sum(1 for m, _ in entries if m.event_prob(first) > 0)
                if len(likelihood_update(wset, first).entries) < kept:
                    seen.add("weights merge")
        expected = {("states", n) for n in range(2, 7)} | {("measures", n) for n in (1, 32, "some")}
        expected |= {"zero probability", "zero weight", "upper likelihood 0", "weights merge"}
        assert seen >= expected, expected - seen

    @pytest.mark.parametrize("seed", REFERENCE_SEEDS)
    def test_updating_matches_the_reference(self, seed):
        wset, first, second = reference_case(seed)
        entries = plain(wset.entries)
        for (m, _), (ref, _) in zip(wset.entries, entries):
            got = outcome(lambda: dict(m.condition(first).items()))
            assert got == outcome(lambda: reference.condition(ref, first.members))
            assert m.event_prob(first) == reference.event_prob(ref, first.members)
        for event in (first, second, first & second):
            assert upper_likelihood(wset, event) == reference.upper_likelihood(entries, event.members)
            got = outcome(lambda: plain(likelihood_update(wset, event).entries))
            assert got == outcome(lambda: reference.likelihood_update(entries, event.members))
        got = outcome(lambda: plain(sequential_update(wset, first, second).entries))
        if reference.upper_likelihood(entries, (first & second).members) == 0:
            expected = UndefinedUpdate
        else:
            expected = reference.likelihood_update(
                reference.likelihood_update(entries, first.members), second.members
            )
        assert got == expected

    @pytest.mark.parametrize("seed", REFERENCE_SEEDS)
    def test_hull_matches_the_reference(self, seed):
        wset, _, _ = reference_case(seed)
        if all(w == 0 for _, w in wset.entries):
            return
        wset = normalize(wset)
        order = sorted(wset.state_space)

        def vector(g: SubProbabilityVector) -> list[Fraction]:
            # the generator's masses in the given state order
            return [g[s] for s in order]

        generators = [tuple(vector(g)) for g in to_hull(wset).generators]
        assert generators == reference.hull_generators(plain(wset.entries))


class TestFractionBudget:
    def test_update_builds_a_few_fractions_per_entry_whatever_the_states(self, monkeypatch):
        # the Fraction form built 28 per entry over 4 states, more with more states
        original = Fraction.__new__
        built = [0]

        def counting_new(cls, *args, **kwargs):
            built[0] += 1
            return original(cls, *args, **kwargs)

        def fractions_built(update, *args):
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
            built[0] = 0
            result = update(*args)
            monkeypatch.undo()
            return built[0], len(result.entries)

        for n_states in (3, 6):
            rng = random.Random(n_states)
            states = tuple(f"s{i}" for i in range(n_states))
            entries = []
            for _ in range(32):
                raw = [rng.randint(1, 9) for _ in states]
                entries.append((Measure({s: F(k, sum(raw)) for s, k in zip(states, raw)}), F(rng.randint(1, 8), 8)))
            wset = WeightedMeasureSet(entries, states)
            first, second = Event(states[: n_states - 1]), Event(states[1:])
            # equal conditioned rows merge on ints, so each weight of the
            # result is the one Fraction it builds
            built_one, kept = fractions_built(likelihood_update, wset, first)
            assert built_one == kept <= len(entries), (n_states, built_one, kept)
            built_joint, kept = fractions_built(likelihood_update, wset, first & second)
            assert built_joint == kept <= len(entries), (n_states, built_joint, kept)
            assert fractions_built(sequential_update, wset, first, second)[0] <= built_joint

    def test_support_and_upper_likelihood_compute_on_ints(self, monkeypatch):
        # seeded sets and hulls over 2-6 states, with directions of ints,
        # Fractions and rational strings and events of every size: both
        # equal their Fraction formulas, and each builds one Fraction (for
        # its result) when the direction's components are Fractions already
        rng = random.Random(24)
        original = Fraction.__new__
        built = [0]

        def counting_new(cls, *args, **kwargs):
            built[0] += 1
            return original(cls, *args, **kwargs)

        for _ in range(200):
            states = tuple(f"s{i}" for i in range(rng.randint(2, 6)))
            wset = WeightedMeasureSet(
                [(random_measure(rng, states, rng.choice((2, 7, 12))), F(rng.randint(0, 9), 9))
                 for _ in range(rng.randint(1, 12))],
                states,
            )
            event = Event(s for s in states if rng.random() < 0.5)
            expected = max(w * sum((p for s, p in m.items() if s in event), F(0)) for m, w in wset.entries)
            hull = RegularHull(
                [SubProbabilityVector({s: w * m[s] for s in states}) for m, w in wset.entries]
                + [SubProbabilityVector(dict(point_mass(states[0], states).items()))],
                states,
            )
            direction = {s: F(rng.randint(0, 12), rng.randint(1, 12)) for s in states}
            best = max(sum((v * direction[s] for s, v in g.items()), F(0)) for g in hull.generators)
            mixed = {s: rng.choice((v, str(v), int(v) if v.denominator == 1 else v)) for s, v in direction.items()}
            assert support_value(hull, mixed) == best
            monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
            built[0] = 0
            got = (upper_likelihood(wset, event), support_value(hull, direction))
            counted = built[0]
            monkeypatch.undo()
            assert got == (expected, best)
            assert counted == 2

    def test_the_hull_builds_fractions_only_in_the_simplex(self, monkeypatch):
        # the benchmark's hull op on ten 32-measure, 3-state sets: the
        # generators are ints (normalize divides no weight: each set's top
        # weight is already 1), membership calls the polar LP only for what
        # its integer certificates leave open, and the polar LP pivots on
        # ints and returns no certificate, so no Fraction is built at all
        rng = random.Random(35)
        sets = [
            WeightedMeasureSet([(random_measure(rng, ABC), F(rng.randint(1, 8), 8)) for _ in range(32)], ABC)
            for _ in range(10)
        ]
        original, polar = Fraction.__new__, linfeas.in_hull_by_polar_lp
        built = {"polar LP": 0, "other": 0, "polar LP calls": 0}
        where = ["other"]

        def counting_new(cls, *args, **kwargs):
            built[where[0]] += 1
            return original(cls, *args, **kwargs)

        def counted_polar(*args):
            built["polar LP calls"] += 1
            where[0] = "polar LP"
            try:
                return polar(*args)
            finally:
                where[0] = "other"

        monkeypatch.setattr(linfeas, "in_hull_by_polar_lp", counted_polar)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        for wset in sets:
            assert hull_equal(to_hull(wset), to_hull(normalize(wset)))
        monkeypatch.undo()
        assert built == {"polar LP": 0, "other": 0, "polar LP calls": 56}


class TestSequentialUpdate:
    def test_conditioning_on_everything_is_identity(self):
        wset = random_wset(random.Random(3), ABC)
        assert sequential_update(wset, Event(["a", "b"]), Event(ABC)) == likelihood_update(
            wset, Event(["a", "b"])
        )

    def test_disjoint_events_undefined(self):
        wset = random_wset(random.Random(4), ABC)
        with pytest.raises(UndefinedUpdate):
            sequential_update(wset, Event(["a"]), Event(["b"]))

    def test_merges_that_only_the_second_step_makes(self):
        # given A = {a, b, c}, p and q differ; given A & B = {a, b} both are
        # (1/2, 1/2): the first step keeps four measures, the second merges
        # p into q's place, after r (mass off A & B only) drops out
        a_event, b_event = Event(["a", "b", "c"]), Event(["a", "b", "d"])
        r = Measure({"a": 0, "b": 0, "c": F(1, 2), "d": F(1, 2)})
        q = Measure({"a": F(1, 10), "b": F(1, 10), "c": F(2, 5), "d": F(2, 5)})
        s = Measure({"a": F(1, 4), "b": F(1, 2), "c": F(1, 4), "d": 0})
        p = Measure({"a": F(1, 5), "b": F(1, 5), "c": F(1, 5), "d": F(2, 5)})
        wset = WeightedMeasureSet([(r, 1), (q, F(1, 2)), (s, F(1, 4)), (p, 1)])
        assert len(likelihood_update(wset, a_event).entries) == 4
        half = {"a": F(1, 2), "b": F(1, 2), "c": 0, "d": 0}
        third = {"a": F(1, 3), "b": F(2, 3), "c": 0, "d": 0}
        # upper likelihood of A & B: max(1/2 * 1/5, 1/4 * 3/4, 1 * 2/5) = 2/5
        expected = [(half, F(1)), (third, F(15, 32))]
        # in the given order q, the smaller candidate, comes first and keeps
        # its place; rotated to start at s, s's measure comes first
        for order, result in ((wset.entries, expected), (wset.entries[2:] + wset.entries[:2], expected[::-1])):
            entries = plain(order)
            step = reference.likelihood_update(entries, a_event.members)
            two_steps = reference.likelihood_update(step, b_event.members)
            got = plain(sequential_update(WeightedMeasureSet(order), a_event, b_event).entries)
            assert got == two_steps == result

    def test_merges_of_the_second_step_match_the_two_step_reference_in_order(self):
        # seeded sets where some measures condition on A & B as an earlier
        # one does while differing given A
        merged_late = 0
        for seed in range(150):
            rng = random.Random(seed)
            states = tuple(f"s{i}" for i in range(rng.randint(3, 5)))
            first = Event(rng.sample(states, rng.randint(2, len(states))))
            second = Event(rng.sample(states, rng.randint(1, len(states))))
            joint = set((first & second).members)
            measures = []
            for _ in range(rng.randint(2, 12)):
                earlier = rng.choice(measures) if measures and rng.random() < 0.4 else None
                if joint and earlier is not None and earlier.event_prob(joint) > 0:
                    measures.append(_conditions_alike(rng, earlier, joint, states))
                else:
                    measures.append(random_measure(rng, states))
            wset = WeightedMeasureSet([(m, F(rng.randint(0, 8), 8)) for m in measures], states)
            entries = plain(wset.entries)
            try:
                step = reference.likelihood_update(entries, first.members)
                expected = reference.likelihood_update(step, second.members)
            except UndefinedUpdate:
                with pytest.raises(UndefinedUpdate):
                    sequential_update(wset, first, second)
                continue
            assert plain(sequential_update(wset, first, second).entries) == expected
            merged_late += len(expected) < sum(1 for m, _ in step if reference.event_prob(m, second.members) > 0)
        assert merged_late >= 20, merged_late

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_update_order_is_irrelevant(self, seed):
        rng = random.Random(seed)
        states = ("s1", "s2", "s3", "s4")
        wset = random_wset(rng, states)
        e1 = Event([s for s in states if rng.random() < 0.6] or ["s1"])
        e2 = Event([s for s in states if rng.random() < 0.6] or ["s2"])
        if upper_likelihood(wset, e1 & e2) == 0:
            return
        joint = likelihood_update(wset, e1 & e2)
        assert sequential_update(wset, e1, e2) == joint
        assert sequential_update(wset, e2, e1) == joint


class TestHull:
    def test_singleton_hull(self):
        pr = m3(F(1, 2), F(1, 4), F(1, 4))
        hull = to_hull(WeightedMeasureSet([(pr, 1)], ABC))
        assert len(hull.generators) == 1
        assert hull.generators[0].items() == pr.items()

    def test_midpoint_generator_pruned(self):
        p, q = m3(1, 0, 0), m3(0, 1, 0)
        mid = m3(F(1, 2), F(1, 2), 0)
        hull = to_hull(WeightedMeasureSet([(p, 1), (q, 1), (mid, 1)], ABC))
        vectors = {g.items() for g in hull.generators}
        assert vectors == {p.items(), q.items()}

    def test_delivery_quotient_generators(self, delivery_wset):
        hull = to_hull(delivery_wset)
        vectors = {tuple(v for _, v in g.items()) for g in hull.generators}
        assert vectors == {(F(1), F(0)), (F(0), F(1, 2))}

    def test_vertex_certificates_spare_most_lps(self, monkeypatch):
        # the 32-measure, 3-state set that test_linfeas checks the hull
        # systems on (seed 35); testing every distinct point by LP, as
        # to_hull did before the certificates, makes 32 membership calls
        rng = random.Random(35)
        entries = [(random_measure(rng, ABC), F(rng.randint(1, 8), 8)) for _ in range(32)]
        entries[0] = (entries[0][0], F(1))
        calls = count_membership_lps(monkeypatch)
        to_hull(WeightedMeasureSet(entries, ABC))
        assert len(calls) <= 32 // 5

    def test_dominated_copies_and_certified_vertices_need_no_lp(self, monkeypatch):
        # each scaled-down copy lies below its point mass, and each point
        # mass is the only point with mass on its state
        entries = [(point_mass(s, ABC), w) for s in ABC for w in (1, F(1, 2), F(1, 3), 0)]
        calls = count_membership_lps(monkeypatch)
        hull = to_hull(WeightedMeasureSet(entries, ABC))
        assert calls == []
        assert [g.items() for g in hull.generators] == [point_mass(s, ABC).items() for s in "cba"]

    def test_the_generators_do_not_depend_on_the_order_of_the_rows(self):
        # 300 seeded row lists over 2-6 states on a grid of 1/2 to 1/4: a
        # probability measure and weighted measures, whose totals often tie,
        # then copies, zero rows, points on segments between earlier rows
        # and rows one grid step below another; the hull built from the
        # rows, from them reversed and from them shuffled has the
        # reference's generators
        rng = random.Random(40)
        seen = Counter()
        for _ in range(300):
            states = tuple(f"s{k}" for k in range(rng.randint(2, 6)))
            grain = rng.randint(2, 4)
            rows = [[weight * v for _, v in random_measure(rng, states, grain).items()]
                    for weight in [F(1)] + [F(rng.randint(1, grain), grain) for _ in range(rng.randint(1, 5))]]
            for _ in range(rng.randint(1, 6)):
                g, h = rng.choice(rows), rng.choice(rows)
                kind = rng.choice(("duplicate", "zero", "segment", "dominated"))
                if kind == "duplicate":
                    row = list(g)
                elif kind == "zero":
                    row = [F(0)] * len(states)
                elif kind == "segment":
                    lam = F(rng.randint(0, 4), 4)
                    row = [lam * a + (1 - lam) * b for a, b in zip(g, h)]
                else:
                    row = list(g)
                    d = rng.randrange(len(states))
                    row[d] = max(F(0), row[d] - F(1, grain))
                rows.append(row)
                seen[kind] += 1
            distinct = {tuple(row) for row in rows}
            seen["tied totals"] += len({sum(row) for row in distinct}) < len(distinct)
            shuffled = rng.sample(rows, len(rows))
            hulls = [RegularHull([SubProbabilityVector(dict(zip(states, row))) for row in order], states)
                     for order in (rows, rows[::-1], shuffled)]
            assert hulls[0].generators == hulls[1].generators == hulls[2].generators
            generators = [tuple(v for _, v in g.items()) for g in hulls[0].generators]
            assert generators == reference.hull_generators([(dict(zip(states, row)), F(1)) for row in rows])
        assert len(seen) == 5 and min(seen.values()) >= 50, seen

    def test_support_zero_direction(self, delivery_wset):
        hull = to_hull(delivery_wset)
        assert support_value(hull, {s: 0 for s in DELIVERY_STATES}) == 0

    def test_support_singleton_is_expectation(self):
        pr = m3(F(1, 2), F(1, 4), F(1, 4))
        hull = to_hull(WeightedMeasureSet([(pr, 1)], ABC))
        direction = {"a": F(3), "b": F(1), "c": F(2)}
        assert support_value(hull, direction) == pr.expectation(direction)

    def test_support_delivery_back_regret_direction(self, delivery_wset):
        hull = to_hull(delivery_wset)
        direction = {"one_broken": F(10000), "ten_broken": F(0)}
        assert support_value(hull, direction) == 10000

    def test_support_rejects_negative_direction(self, delivery_wset):
        hull = to_hull(delivery_wset)
        with pytest.raises(NegativeDirection):
            support_value(hull, {"one_broken": F(-1), "ten_broken": F(0)})

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_support_equals_worst_weighted_expectation(self, seed):
        rng = random.Random(seed)
        wset = random_wset(rng, ABC)
        direction = {s: F(rng.randint(0, 10), 5) for s in ABC}
        expected = max(w * m.expectation(direction) for m, w in wset.entries)
        assert support_value(to_hull(wset), direction) == expected


def count_membership_lps(monkeypatch) -> list:
    """Patch the LP that hull membership falls back on (linfeas's
    in_hull_by_polar_lp, called by in_downward_convex_hull when its
    certificates leave a point open) to log each call."""
    calls = []
    polar = linfeas.in_hull_by_polar_lp
    monkeypatch.setattr(linfeas, "in_hull_by_polar_lp", lambda *a: calls.append(a) or polar(*a))
    return calls


def spv(**values) -> SubProbabilityVector:
    return SubProbabilityVector({k: F(v) for k, v in values.items()})


class TestHullEqual:
    def test_reflexive(self, delivery_wset):
        hull = to_hull(delivery_wset)
        assert hull_equal(hull, hull)

    def test_dominated_point_absorbed(self):
        states = ("x", "y")
        a = RegularHull([spv(x=1, y=0), spv(x=0, y=1)], states)
        b = RegularHull(
            [spv(x=1, y=0), spv(x=0, y=1), SubProbabilityVector({"x": F(1, 2), "y": F(1, 4)})],
            states,
        )
        assert hull_equal(a, b)
        assert hull_equal(b, a)

    def test_point_outside_flat_segment(self):
        # (1/5, 9/20) has mass 13/20 <= 1 but lies outside the downward hull
        # of {(1,0), (0,1/2)}: combinations are (t, (1-t)/2) and dominating it
        # needs t >= 1/5 and (1-t)/2 >= 9/20, i.e. t <= 1/10 -- impossible.
        states = ("x", "y")
        base = RegularHull([spv(x=1, y=0), SubProbabilityVector({"x": F(0), "y": F(1, 2)})], states)
        other = RegularHull(
            [
                spv(x=1, y=0),
                SubProbabilityVector({"x": F(0), "y": F(1, 2)}),
                SubProbabilityVector({"x": F(1, 5), "y": F(9, 20)}),
            ],
            states,
        )
        assert not hull_equal(base, other)
        assert not hull_equal(other, base)

    def test_equivalence_across_representations(self):
        # three generator sets for one downward-convex body: pairwise equal
        states = ("x", "y")
        base = RegularHull([spv(x=1, y=0), spv(x=0, y=1)], states)
        with_mid = RegularHull(
            [spv(x=1, y=0), spv(x=0, y=1), SubProbabilityVector({"x": F(1, 2), "y": F(1, 2)})],
            states,
        )
        with_low = RegularHull(
            [spv(x=1, y=0), spv(x=0, y=1), SubProbabilityVector({"x": F(1, 4), "y": F(1, 4)})],
            states,
        )
        for a in (base, with_mid, with_low):
            for b in (base, with_mid, with_low):
                assert hull_equal(a, b)

    def test_unpruned_hull_equals_its_pruned_twin(self):
        # building a hull from hand-given generators prunes them to the
        # generators to_hull keeps
        states = ("x", "y", "z")
        p = Measure({"x": F(1, 2), "y": F(1, 2), "z": 0})
        q = Measure({"x": 0, "y": F(1, 2), "z": F(1, 2)})
        mid = Measure({"x": F(1, 4), "y": F(1, 2), "z": F(1, 4)})
        wset = WeightedMeasureSet([(p, 1), (q, 1), (mid, F(1, 2)), (mid, F(3, 4))], states)
        raw = [SubProbabilityVector({s: w * m[s] for s in states}) for m, w in wset.entries]
        unpruned = RegularHull(raw, states)
        pruned = to_hull(wset)
        assert len(pruned.generators) < len(raw)
        assert unpruned.generators == pruned.generators
        assert hull_equal(unpruned, pruned)
        assert hull_equal(pruned, unpruned)
        grown = RegularHull(raw + [spv(x=0, y=0, z=1)], states)
        assert not hull_equal(grown, pruned)
        assert not hull_equal(pruned, grown)

    def test_shared_generators_need_no_lp(self, monkeypatch):
        # hull equality compares generators and makes no membership LP; the
        # extra zero vector lies below a generator, so building grown drops
        # it in the domination sweep, and here the kept vertices need no LP
        from wregret import linfeas

        hull = to_hull(random_wset(random.Random(21), ("x", "y", "z"), 6))
        calls = []
        polar = linfeas.in_hull_by_polar_lp
        monkeypatch.setattr(linfeas, "in_hull_by_polar_lp", lambda *a: calls.append(1) or polar(*a))
        assert hull_equal(hull, hull) and calls == []
        grown = RegularHull([*hull.generators, spv(x=0, y=0, z=0)], hull.state_space)
        assert hull_equal(hull, grown) and calls == []

    def test_a_hull_is_a_value(self):
        # a hull hand-built from the raw weight * measure points is to_hull's,
        # and so are its copies; hulls over other states are unequal to it,
        # which hull_equal refuses to compare
        wset = random_wset(random.Random(38), ("x", "y", "z"), 6)
        raw = RegularHull([SubProbabilityVector({s: w * m[s] for s in wset.state_space}) for m, w in wset.entries],
                          wset.state_space)
        hull = to_hull(wset)
        assert raw == hull and hash(raw) == hash(hull)
        for twin in (copy.copy(hull), copy.deepcopy(hull), pickle.loads(pickle.dumps(hull))):
            assert twin == hull and hash(twin) == hash(hull)
        other = RegularHull([spv(x=1, y=0)], ("x", "y"))
        assert hull != other and other != hull
        with pytest.raises(DimensionMismatch):
            hull_equal(hull, other)

    def test_equality_is_mutual_containment(self):
        # 3,000 seeded pairs over 2-6 states, 1-12 measures and weights in
        # eighths, where an entry has weight 1: a set against its rescaled
        # set normalized, against itself with dominated and zero-weight
        # entries added, against itself with one weight lowered, and against
        # an unrelated set; == agrees with the reference mutual containment
        rng = random.Random(38)
        outcomes = Counter()

        def draw(states, least):
            entries = [(random_measure(rng, states, rng.choice((2, 4, 12))), F(rng.randint(0, 8), 8))
                       for _ in range(rng.randint(least, 12))]
            entries[0] = (entries[0][0], F(1))
            return entries

        for i in range(3000):
            kind = ("normalized", "dominated", "lowered", "unrelated")[i % 4]
            states = tuple(f"s{k}" for k in range(rng.randint(2, 6)))
            first = draw(states, 2 if kind == "lowered" else 1)
            if kind == "normalized":
                scale = F(rng.randint(1, 8), 8)
                second = normalize(WeightedMeasureSet([(m, w * scale) for m, w in first], states)).entries
            elif kind == "dominated":
                second = first + [(m, w * F(rng.randint(0, 7), 8)) for m, w in first if rng.random() < 0.5]
                second += [(random_measure(rng, states), F(0)) for _ in range(rng.randint(1, 3))]
                rng.shuffle(second)
            elif kind == "lowered":
                second = list(first)
                j = rng.randrange(1, len(second))
                second[j] = (second[j][0], second[j][1] * F(rng.randint(0, 7), 8))
            else:
                second = draw(states, 1)
            a, b = (to_hull(WeightedMeasureSet(entries, states)) for entries in (first, second))
            points = [[tuple(v for _, v in g.items()) for g in h.generators] for h in (a, b)]
            equal = reference.same_hull(*points)
            assert (a == b) == hull_equal(a, b) == equal, (kind, first, second)
            outcomes[kind, equal] += 1
        assert outcomes["normalized", True] == outcomes["dominated", True] == 750
        assert outcomes["lowered", True] and outcomes["lowered", False] and outcomes["unrelated", False]

    def test_dimension_mismatch(self, delivery_wset):
        hull = to_hull(delivery_wset)
        other = RegularHull([spv(x=1, y=0)], ("x", "y"))
        with pytest.raises(DimensionMismatch):
            hull_equal(hull, other)

    def test_sub_probability_mass_cap(self):
        with pytest.raises(ValueError, match="exceeds"):
            SubProbabilityVector({"x": F(3, 5), "y": F(3, 5)})

    def test_regular_hull_needs_proper_measure(self):
        with pytest.raises(ValueError, match="proper probability"):
            RegularHull([SubProbabilityVector({"x": F(1, 2), "y": F(0)})], ("x", "y"))


class TestRecoverWeights:
    def grid(self, states, steps=10):
        if len(states) == 2:
            return [
                {states[0]: F(-i, steps), states[1]: F(-j, steps)}
                for i in range(steps + 1)
                for j in range(steps + 1)
                if i or j
            ]
        raise AssertionError

    def test_singleton_recovers_weight_one(self):
        states = ("x", "y")
        pr = Measure({"x": F(1, 3), "y": F(2, 3)})
        wset = WeightedMeasureSet([(pr, 1)], states)
        oracle = worst_weighted_regret_oracle(wset)
        recovered = recover_weights(oracle, [pr], [{"x": F(-1), "y": F(-1)}])
        assert recovered[pr] == 1

    def test_two_generator_weights_recovered(self):
        states = ("x", "y")
        p = Measure({"x": F(3, 4), "y": F(1, 4)})
        q = Measure({"x": F(1, 4), "y": F(3, 4)})
        wset = WeightedMeasureSet([(p, 1), (q, F(1, 2))], states)
        oracle = worst_weighted_regret_oracle(wset)
        recovered = recover_weights(oracle, [p, q], self.grid(states, steps=100))
        assert abs(recovered[p] - 1) < F(1, 10**6)
        assert abs(recovered[q] - F(1, 2)) < F(1, 10**6)

    def test_refinement_is_monotone(self):
        states = ("x", "y")
        p = Measure({"x": F(3, 4), "y": F(1, 4)})
        q = Measure({"x": F(1, 4), "y": F(3, 4)})
        wset = WeightedMeasureSet([(p, 1), (q, F(1, 2))], states)
        oracle = worst_weighted_regret_oracle(wset)
        coarse = self.grid(states, steps=4)
        fine = self.grid(states, steps=20)  # contains the coarse grid
        for candidate in (p, q):
            upper = recover_weights(oracle, [candidate], coarse)[candidate]
            lower = recover_weights(oracle, [candidate], fine)[candidate]
            true_weight = dict(wset.entries)[candidate]
            assert upper >= lower >= true_weight

    def test_no_informative_direction(self):
        states = ("x", "y")
        pr = Measure({"x": F(1), "y": F(0)})
        wset = WeightedMeasureSet([(pr, 1)], states)
        oracle = worst_weighted_regret_oracle(wset)
        orthogonal = Measure({"x": F(0), "y": F(1)})
        with pytest.raises(NoInformativeDirection):
            recover_weights(oracle, [orthogonal], [{"x": F(-1), "y": F(0)}])

    def test_directions_must_be_nonpositive(self):
        states = ("x", "y")
        pr = Measure({"x": F(1), "y": F(0)})
        oracle = worst_weighted_regret_oracle(WeightedMeasureSet([(pr, 1)], states))
        with pytest.raises(ValueError):
            recover_weights(oracle, [pr], [{"x": F(1, 2), "y": F(-1)}])

    @pytest.mark.parametrize(
        "direction",
        [
            {"one_broken": F(-1)},  # misses ten_broken
            {"one_broken": F(-1), "ten_broken": F(-1), "other": F(-1)},  # an extra state
        ],
    )
    def test_directions_must_cover_exactly_the_candidates_states(self, delivery_wset, direction):
        oracle = worst_weighted_regret_oracle(delivery_wset)
        candidates = [m for m, _ in delivery_wset.entries]
        with pytest.raises(DimensionMismatch):
            recover_weights(oracle, candidates, [direction])


def hull_text(hull) -> str:
    """The hull's state space and generators (sorted) in canonical text."""
    lines = ["states: " + " ".join(sorted(hull.state_space))]
    for g in sorted(hull.generators, key=lambda g: g.items()):
        lines.append(f"generator = {format_map(g.items())}")
    return "\n".join(lines) + "\n"


class TestSerialization:
    def test_hull_text(self, delivery_wset):
        text = hull_text(to_hull(delivery_wset))
        assert text == (
            "states: one_broken ten_broken\n"
            "generator = { one_broken: 0/1, ten_broken: 1/2 }\n"
            "generator = { one_broken: 1/1, ten_broken: 0/1 }\n"
        )


AB = ("a", "b")
HULL_AB = RegularHull([SubProbabilityVector({"a": 1, "b": 0})], AB)
# {a} has positive likelihood, {c} likelihood 0
SET_ABC = WeightedMeasureSet([(m3(F(1, 2), F(1, 2), 0), 1), (m3(0, 1, 0), F(1, 2))], ABC)


@pytest.mark.parametrize("build, error, message", [
    (lambda: WeightedMeasureSet([(Measure({"a": 1}), 1)], AB), DimensionMismatch,
     "measure over ('a',) does not match state space ('a', 'b')"),
    (lambda: WeightedMeasureSet([(Measure({"a": 1}), F(3, 2))]), ValueError, "weight 3/2 outside [0, 1]"),
    (lambda: RegularHull([], AB), EmptySet, "a hull needs at least one generator"),
    (lambda: RegularHull([SubProbabilityVector({"a": 1})], AB), DimensionMismatch,
     "generator over ('a',) does not match state space ('a', 'b')"),
    (lambda: support_value(HULL_AB, {"a": 1}), DimensionMismatch, "direction does not cover the hull's state space"),
    # `to_hull` needs an entry of weight 1, as `normalize` gives
    (lambda: to_hull(WeightedMeasureSet([(Measure({"a": 1}), F(1, 2))])), ValueError,
     "a regular hull must contain a proper probability measure"),
    (lambda: to_hull(WeightedMeasureSet([(Measure({"a": 1}), 0)])), ValueError,
     "a regular hull must contain a proper probability measure"),
    # one update on the intersection {a} still checks the states of both events
    (lambda: sequential_update(SET_ABC, ["a", "zzz"], ["a", "b"]), DimensionMismatch,
     "event mentions unknown states ['zzz']"),
    (lambda: sequential_update(SET_ABC, ["a", "b"], ["a", "zzz"]), DimensionMismatch,
     "event mentions unknown states ['zzz']"),
    (lambda: sequential_update(SET_ABC, ["a", "yyy"], ["a", "b", "zzz"]), DimensionMismatch,
     "event mentions unknown states ['yyy', 'zzz']"),
    (lambda: likelihood_update(SET_ABC, ["c"]), UndefinedUpdate,
     "update undefined: the event has upper likelihood 0"),
    # neither {a, c} nor {b, c} is null, their intersection is
    (lambda: sequential_update(SET_ABC, ["a", "c"], ["b", "c"]), UndefinedUpdate,
     "update undefined: the intersection has upper likelihood 0"),
])
def test_error_types_and_messages(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


# a string is a sequence of one-letter states: read as an event it was split
# into its characters, which on one-letter state names updated on the wrong event
ONE_LETTER = WeightedMeasureSet([(Measure({"a": F(1, 2), "b": F(1, 2)}), 1), (Measure({"a": 1, "b": 0}), F(1, 2))])
SPLICED = Act("f", {"a": sure("x"), "b": sure("y")}), Act("h", {"a": sure("y"), "b": sure("x")})


@pytest.mark.parametrize("call", [
    lambda event: Event(event),
    lambda event: likelihood_update(ONE_LETTER, event),
    lambda event: sequential_update(ONE_LETTER, ["a"], event),
    lambda event: upper_likelihood(ONE_LETTER, event),
    lambda event: is_null(event, ONE_LETTER),
    lambda event: ONE_LETTER.entries[0][0].event_prob(event),
    lambda event: ONE_LETTER.entries[0][0].condition(event),
    lambda event: splice(SPLICED[0], event, SPLICED[1]),
], ids=["Event", "likelihood_update", "sequential_update", "upper_likelihood", "is_null", "event_prob",
        "condition", "splice"])
@pytest.mark.parametrize("state", ["a", "ab", "good"])
def test_a_string_is_not_an_event(call, state):
    with pytest.raises(TypeError) as raised:
        call(state)
    assert str(raised.value) == (
        f"an event is a collection of states, not the string {state!r}: wrap a single state as [{state!r}]"
    )
    call(["a"])  # the one-state event, as the message says to write it


@pytest.mark.parametrize("call", [
    Event,
    lambda event: likelihood_update(ONE_LETTER, event),
    lambda event: sequential_update(ONE_LETTER, event, ["a"]),
], ids=["Event", "likelihood_update", "sequential_update"])
@pytest.mark.parametrize("members, first", [(["a", 1], 1), ([1, "z"], 1), (("b", None, 2), None), ([b"a"], b"a")])
def test_an_event_member_that_is_not_a_string_is_named(call, members, first):
    with pytest.raises(TypeError) as raised:
        call(members)
    assert str(raised.value) == f"an event's states are strings, not {first!r}"
