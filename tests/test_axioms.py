"""The axiom checker: curated counterexamples, sampling, determinism."""

import copy
import fractions
import hashlib
import json
import pickle
import random
import re
from fractions import Fraction

import pytest

from wregret.axioms import (
    Alternative,
    AxiomReport,
    AXIOM_IDS,
    BeliefFixtures,
    GeneratorConfig,
    MATRIX_RULES,
    MIXTURE_DENOMINATOR,
    MIXTURE_GRID,
    Instance,
    PreferenceOracle,
    Sampler,
    axiom_matrix,
    belief_fixtures,
    check_axiom,
    delivery_fixtures,
    replay,
    utility_span,
)
from wregret import axioms, decisions, rational
from wregret.axioms import _AXIOMS
from wregret.decisions import UtilitySpec, _position
from wregret.dsl import parse_problem
from wregret.errors import ActNotInMenu, DimensionMismatch, UnknownAxiom
from wregret.fixtures import fixture_path, fixture_text
from wregret.measures import Measure, WeightedMeasureSet, point_mass

from conftest import DELIVERY_STATES, profile_act, value_lottery
import axiom_reference
import rule_reference as reference

F = Fraction


@pytest.fixture(scope="module")
def fixtures():
    return delivery_fixtures()


SMALL = GeneratorConfig(samples=60)


class TestCuratedCorpus:
    def test_constant_mix_violated_for_weighted_regret(self, fixtures):
        report = check_axiom("12", fixtures.oracle("mwer"), SMALL, seed=0)
        assert report.verdict == "violated"
        w = report.counterexample
        assert w.kind == "violation"
        assert "known" in w.description
        assert w.acts["f"].name == "cont" and w.acts["h"].name == "back"
        assert w.params["p"] == F(1, 2)
        assert w.scores == {"f": F(10000), "h": F(10000), "mixture": F(7500)}

    def test_unrestricted_variant_violated_for_plain_regret_rule(self, fixtures):
        report = check_axiom("12u", fixtures.oracle("mer"), SMALL, seed=0)
        assert report.verdict == "violated"
        assert report.counterexample.scores == {
            "f": F(10000), "h": F(10000), "mixture": F(5000),
        }

    def test_menu_dependence_flagged_for_regret_family(self, fixtures):
        for rule in ("regret", "mer", "mwer"):
            report = check_axiom("menu", fixtures.oracle(rule), SMALL, seed=0)
            assert report.verdict == "violated", rule
            assert "known" in report.counterexample.description

    def test_menu_independence_holds_for_utility_family(self, fixtures):
        for rule in ("seu", "mmeu"):
            report = check_axiom("menu", fixtures.oracle(rule), GeneratorConfig(samples=150), seed=0)
            assert report.verdict == "no-violation-found", rule

    def test_independence_violated_for_worst_case_utility(self, fixtures):
        report = check_axiom("7", fixtures.oracle("mmeu"), SMALL, seed=0)
        assert report.verdict == "violated"
        assert report.counterexample.scores["f"] == 0
        assert report.counterexample.scores["g"] == F(2, 5)
        assert report.counterexample.scores["mixed_f"] == F(1, 2)
        assert report.counterexample.scores["mixed_g"] == F(1, 5)


class TestReplay:
    @pytest.mark.parametrize(
        "axiom,rule",
        [("12", "mwer"), ("12u", "mer"), ("menu", "mer"), ("7", "mmeu")],
    )
    def test_violations_replay(self, fixtures, axiom, rule):
        oracle = fixtures.oracle(rule)
        report = check_axiom(axiom, oracle, SMALL, seed=0)
        assert report.verdict == "violated"
        assert replay(report, oracle)

    @pytest.mark.parametrize("axiom,rule", [("7", "mmeu"), ("menu", "mer")])
    def test_a_witness_cannot_be_edited_and_still_replays(self, fixtures, axiom, rule):
        oracle = fixtures.oracle(rule)
        report = check_axiom(axiom, oracle, SMALL, seed=0)
        w = report.counterexample
        assert w.acts and w.scores
        for field in ("acts", "params", "scores"):
            mapping = getattr(w, field)
            with pytest.raises(TypeError):
                mapping["f"] = Fraction(1, 3)
            for key in list(mapping):
                with pytest.raises(TypeError):
                    del mapping[key]
        assert replay(report, oracle) is True

    def test_default_findings_share_no_writable_map(self):
        one, two = axioms.Finding(), axioms.Finding()
        for field in ("scores", "params", "acts"):
            for finding in (one, two):
                with pytest.raises(TypeError):
                    getattr(finding, field)["added"] = None
            assert dict(getattr(one, field)) == dict(getattr(two, field)) == {}

    def test_witness_states_must_fit_a_belief(self, fixtures):
        # the probability-free rule judges the two-state corpus on any states
        regret = PreferenceOracle("regret", None, fixtures.utility, ("s1", "s2", "s3"))
        report = check_axiom("menu", regret, SMALL, seed=0)
        assert report.verdict == "violated" and replay(report, regret)
        belief = WeightedMeasureSet([(point_mass("s1", ("s1", "s2", "s3")), 1)])
        with pytest.raises(DimensionMismatch):
            replay(report, PreferenceOracle("mwer", belief, fixtures.utility))

    def test_clean_reports_do_not_replay(self, fixtures):
        report = check_axiom("1", fixtures.oracle("mwer"), SMALL, seed=0)
        assert report.verdict == "no-violation-found"
        assert not replay(report, fixtures.oracle("mwer"))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _seu(o, f, g, menu) -> int:
    return PreferenceOracle.prefers(o, f, g, menu)


def _on_tenth_grid(profile) -> int:
    return int(all((10 * v).denominator == 1 for v in profile))


# Deliberately broken comparisons, each built to break the axioms it is
# listed under; the oracle is seu on the delivery fixtures otherwise.
MUTANTS = {
    # indifference within 1/2 of utility in the first state is not transitive
    "threshold": (
        ("1",),
        lambda o, f, g, menu: 0 if abs(f.profile[0] - g.profile[0]) < F(1, 2)
        else _sign(f.profile[0] - g.profile[0]),
    ),
    "always": (("2",), lambda o, f, g, menu: 1),
    "never": (("3",), lambda o, f, g, menu: 0),
    # the seu order, reversed in menus with an odd number of acts
    "parity": (
        ("4", "8", "9", "menu"),
        lambda o, f, g, menu: _seu(o, f, g, menu) * (-1 if len(menu) % 2 else 1),
    ),
    # sum of squared utilities: not linear in mixtures
    "squares": (
        ("7", "11"),
        lambda o, f, g, menu: _sign(sum(v * v for v in f.profile) - sum(v * v for v in g.profile)),
    ),
    # likes exactly the profiles on the sampler's utility grid
    "grid": (
        ("6", "12", "12u"),
        lambda o, f, g, menu: _on_tenth_grid(f.profile) - _on_tenth_grid(g.profile),
    ),
}


class MutantOracle(PreferenceOracle):
    def __init__(self, fixtures, relation):
        super().__init__("seu", fixtures.measures[0], fixtures.utility, fixtures.state_space)
        self.relation = relation

    def prefers(self, f, g, menu) -> int:
        return self.relation(self, f, g, menu)

    def sign(self, x, y, best) -> int:
        # the mixture judges compare int profiles against a per-state best; the
        # relation sees them in the menu {x, y, best}, as integer utilities:
        # the true ones times a positive factor, which the relation listed
        # against those axioms ("squares") does not depend on
        f, g, b = (Alternative.from_ints(name, v, 1) for name, v in zip("xyb", (x, y, best)))
        return self.relation(self, f, g, (f, g, b))


class TestMutantOracles:
    @pytest.mark.parametrize(
        "mutant,axiom", [(name, axiom) for name, (axioms, _) in MUTANTS.items() for axiom in axioms]
    )
    def test_broken_oracle_is_caught_and_replays(self, fixtures, mutant, axiom):
        oracle = MutantOracle(fixtures, MUTANTS[mutant][1])
        config = GeneratorConfig(samples=300, include_curated=False)
        report = check_axiom(axiom, oracle, config, seed=0)
        assert report.verdict == "violated"
        assert replay(report, oracle)
        assert not replay(report, fixtures.oracle("seu"))

    def test_replay_rechecks_the_precondition(self, fixtures):
        # the parity mutant's monotonicity witness does not dominate statewise
        # for an oracle that reverses seu, so it must not replay there
        parity = MutantOracle(fixtures, MUTANTS["parity"][1])
        config = GeneratorConfig(samples=300, include_curated=False)
        report = check_axiom("4", parity, config, seed=0)
        assert report.verdict == "violated" and replay(report, parity)
        reversed_seu = MutantOracle(fixtures, lambda o, f, g, menu: -_seu(o, f, g, menu))
        assert not replay(report, reversed_seu)

    def test_every_refutable_axiom_has_a_mutant(self):
        covered = {axiom for axioms, _ in MUTANTS.values() for axiom in axioms}
        assert covered == set(AXIOM_IDS) - {"5", "10"}


class TestCustomOracles:
    def test_overriding_prefers_without_sign_is_rejected(self):
        # the mixture judges compare through sign, which would otherwise fall
        # back to the base rule and disagree with the subclass's prefers
        with pytest.raises(TypeError, match="sign"):
            class ReversedPrefersOnly(PreferenceOracle):
                def prefers(self, f, g, menu) -> int:
                    return -super().prefers(f, g, menu)
        with pytest.raises(TypeError, match="sign"):
            class ThresholdOnMutant(MutantOracle):
                def prefers(self, f, g, menu) -> int:
                    return 0
        with pytest.raises(TypeError, match="sign"):
            class ReversedSignOnly(PreferenceOracle):
                def sign(self, x, y, best) -> int:
                    return -super().sign(x, y, best)

    @pytest.mark.parametrize("axiom", ["5", "7", "11"])
    def test_a_consistent_reversed_oracle_is_judged_by_its_own_order(self, fixtures, axiom):
        # reversing seu keeps its continuity and both independence axioms
        class ReversedSeu(PreferenceOracle):
            def prefers(self, f, g, menu) -> int:
                return -super().prefers(f, g, menu)

            def sign(self, x, y, best) -> int:
                return -super().sign(x, y, best)

        reversed_seu = ReversedSeu("seu", fixtures.measures[0], fixtures.utility, fixtures.state_space)
        config = GeneratorConfig(samples=300, include_curated=False)
        report = check_axiom(axiom, reversed_seu, config, seed=0)
        assert report.verdict == "no-violation-found"
        assert report.applicable > 0


class TestSampling:
    def test_unknown_axiom(self, fixtures):
        with pytest.raises(UnknownAxiom):
            check_axiom("13", fixtures.oracle("mer"))

    def test_determinism(self, fixtures):
        a = check_axiom("6", fixtures.oracle("mwer"), SMALL, seed=42)
        b = check_axiom("6", fixtures.oracle("mwer"), SMALL, seed=42)
        assert a.to_obj() == b.to_obj()

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_config_without_samples(self, samples):
        # zero samples used to yield no-violation-found with nothing checked
        with pytest.raises(ValueError, match="samples"):
            GeneratorConfig(samples=samples)
        with pytest.raises(ValueError, match="samples"):
            GeneratorConfig()._replace(samples=samples)

    def test_structural_axioms_pass_once(self, fixtures):
        for axiom in ("3", "10"):
            report = check_axiom(axiom, fixtures.oracle("mwer"), SMALL, seed=0)
            assert report.verdict == "no-violation-found"
            assert report.samples == 1

    @pytest.mark.parametrize("rule", ["seu", "regret", "mer", "mwer", "mmeu"])
    def test_transitivity_never_violated(self, fixtures, rule):
        report = check_axiom("1", fixtures.oracle(rule), GeneratorConfig(samples=300), seed=7)
        assert report.verdict == "no-violation-found"
        assert report.applicable > 0

    def test_restricted_constant_mix_clean_for_unweighted_regret(self, fixtures):
        report = check_axiom("12", fixtures.oracle("mer"), GeneratorConfig(samples=200), seed=3)
        assert report.verdict == "no-violation-found"

    def test_mixture_continuity_vocabulary(self, fixtures):
        report = check_axiom("5", fixtures.oracle("mer"), GeneratorConfig(samples=120), seed=11)
        assert report.verdict in ("no-violation-found",)
        assert report.unwitnessed >= 0
        if report.unwitnessed:
            assert report.unwitnessed_example.kind == "no-witness-in-grid"

    def test_mixture_grid_is_every_coefficient_up_to_the_bound(self):
        # the grid's definition: every fraction in (0, 1) up to the bound, sorted
        expected = tuple(
            sorted({F(k, d) for d in range(2, MIXTURE_DENOMINATOR + 1) for k in range(1, d)})
        )
        assert MIXTURE_GRID == expected
        assert len(MIXTURE_GRID) == 127

    def test_reports_carry_counts_and_seed(self, fixtures):
        report = check_axiom("4", fixtures.oracle("mer"), SMALL, seed=9)
        assert isinstance(report, AxiomReport)
        assert report.samples == 60
        assert report.seed == 9
        obj = report.to_obj()
        assert obj["axiom"] == "4" and obj["rule"] == "mer"


class TestOracle:
    def test_compare_is_antisymmetric(self, fixtures):
        oracle = fixtures.oracle("mwer")
        from wregret import Menu

        f = profile_act("f", {"one_broken": F(1), "ten_broken": F(0)}, fixtures.utility)
        g = profile_act("g", {"one_broken": F(0), "ten_broken": F(1)}, fixtures.utility)
        menu = oracle.alternatives(Menu([f, g]))
        a, b = menu
        assert oracle.prefers(a, b, menu) == -oracle.prefers(b, a, menu)

    def test_regret_oracle_checks_states(self, fixtures):
        # unchecked, zip would drop s3 and f and g would compare as equal
        from wregret import Menu

        states = {"s1": F(0), "s2": F(0)}
        f = profile_act("f", {**states, "s3": F(1)}, fixtures.utility)
        g = profile_act("g", {**states, "s3": F(0)}, fixtures.utility)
        oracle = PreferenceOracle("regret", None, fixtures.utility, ("s1", "s2"))
        with pytest.raises(DimensionMismatch, match="s1, s2"):
            menu = oracle.alternatives(Menu([f, g]))
            oracle.prefers(*menu, menu)

    def test_value_lottery_hits_exact_utilities(self, fixtures):
        u = fixtures.utility
        for v in (F(-1), F(0), F(7, 10), F(5000)):
            lottery = value_lottery(v, u)
            assert u.utility(lottery) == v


def _oracle_instance(rng: random.Random):
    """Seeded alternatives on the sampler's tenth grid plus mixtures of them
    with denominators up to 20 x 10, and beliefs for every rule (mwer weights
    with coprime denominators), as library objects and as plain dicts."""
    states = tuple(f"s{i}" for i in range(rng.randint(2, 5)))
    grid = [F(k, 10) for k in range(-10, 11)]
    menu = [
        Alternative(f"a{i}", tuple(rng.choice(grid) for _ in states))
        for i in range(rng.randint(2, 4))
    ]
    for i in range(rng.randint(1, 3)):
        f, h = rng.sample(menu, 2)
        d = rng.randint(2, 20)
        p = F(rng.randint(1, d - 1), d)
        mixed = tuple(p * a + (1 - p) * b for a, b in zip(f.profile, h.profile))
        menu.append(Alternative(f"m{i}", mixed))
    measures = []
    for _ in range(rng.randint(1, 4)):
        raw = [rng.randint(0, 6) for _ in states]
        raw[rng.randrange(len(raw))] += 1
        measures.append({s: F(r, sum(raw)) for s, r in zip(states, raw)})
    weights = [F(1)] + [rng.choice([F(1, 3), F(2, 7), F(3, 11), F(0), F(1)]) for _ in measures[1:]]
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
    return states, tuple(menu), beliefs


def _int_born_menus(rng: random.Random, states, rational: tuple) -> list:
    """Menus over the states as the sampler and `_mix` build them: members
    born as ints over a grid denominator D, mixtures of them born over m*D,
    and the same names again with other ints; one menu also holds members
    born as rationals, and one is a list."""

    d = rng.choice([10, 30, 60])

    def grid_members() -> list:
        return [
            Alternative.from_ints(f"i{i}", tuple(rng.randint(-d, d) for _ in states), d)
            for i in range(rng.randint(2, 4))
        ]

    grid = grid_members()
    mixtures = []
    for i in range(rng.randint(1, 3)):
        f, h = rng.sample(grid, 2)
        m = rng.randint(2, 20)
        k = rng.randint(1, m - 1)
        numerators = tuple(k * a + (m - k) * b for a, b in zip(f.numerators, h.numerators))
        mixtures.append(Alternative.from_ints(f"x{i}", numerators, m * d))
    same_names = grid_members()[: len(grid)]
    return [
        tuple(grid),
        tuple(grid + mixtures),
        tuple(same_names),
        tuple(grid + mixtures) + rational[: rng.randint(1, 2)],
        grid + mixtures,
    ]


def _exact_profile(a: Alternative) -> tuple:
    """The alternative's utilities, read from its ints."""
    return tuple(F(n, a.denominator) for n in a.numerators)


class TestOracleAgainstReference:
    def test_prefers_and_rate_match_the_reference_rules(self, fixtures):
        u = fixtures.utility
        for seed in range(80):
            rng = random.Random(seed)
            states, menu, beliefs = _oracle_instance(rng)
            profiles = {a.name: dict(zip(states, a.profile)) for a in menu}
            for rule, (belief, plain) in beliefs.items():
                oracle = PreferenceOracle(rule, belief, u, states)
                expected = reference.profile_scores(rule, profiles, plain)
                sign = -1 if reference.LOWER_IS_BETTER[rule] else 1
                for f in menu:
                    assert oracle.rate(f, menu) == expected[f.name], (seed, rule, f.name)
                    for g in menu:
                        want = sign * _sign(expected[f.name] - expected[g.name])
                        assert oracle.prefers(f, g, menu) == want, (seed, rule, f.name, g.name)

    def test_int_born_menus_match_the_reference_rules(self, fixtures):
        # the calls alternate between menus at random, so a conversion kept
        # for one menu and reused for another would show as a wrong answer
        u = fixtures.utility
        for seed in range(40):
            rng = random.Random(seed)
            states, rational, beliefs = _oracle_instance(rng)
            menus = _int_born_menus(rng, states, rational)
            for rule, (belief, plain) in beliefs.items():
                oracle = PreferenceOracle(rule, belief, u, states)
                sign = -1 if reference.LOWER_IS_BETTER[rule] else 1
                expected = [
                    reference.profile_scores(
                        rule, {a.name: dict(zip(states, _exact_profile(a))) for a in menu}, plain
                    )
                    for menu in menus
                ]
                calls = [(i, f, g) for i, menu in enumerate(menus) for f in menu for g in menu]
                rng.shuffle(calls)
                for i, f, g in calls:
                    menu, want = menus[i], expected[i]
                    where = (seed, rule, i, f.name, g.name)
                    assert oracle.rate(f, menu) == want[f.name], where
                    assert oracle.prefers(f, g, menu) == sign * _sign(want[f.name] - want[g.name]), where
                for menu, want in zip(menus, expected):
                    assert oracle.scores(menu) == want, (seed, rule)


class TestAlternative:
    def test_int_born_equals_rational_born(self):
        ints = Alternative.from_ints("a", (3, -6, 0), 6)
        rational = Alternative("a", (F(1, 2), F(-1), F(0)))
        other = Alternative("b", (F(0), F(0), F(0)))
        assert ints == rational and rational == ints
        assert hash(ints) == hash(rational)
        assert rational in (other, ints) and ints in (other, rational)
        assert _position((other, ints), rational) == 1
        assert _position((other, rational), ints) == 1
        assert Alternative.from_ints("a", (1, -2, 0), 2) == ints
        assert ints != Alternative.from_ints("a", (3, -6, 1), 6)
        assert ints != Alternative("b", rational.profile)
        assert ints != ("a", rational.profile)
        assert ints.profile == rational.profile
        assert all(type(v) is F for v in ints.profile)
        assert rational.numerators == (1, -2, 0) and rational.denominator == 2
        kept = Alternative.from_ints("a", (2, 4), 10)  # the sampler's draws stay over its D
        assert kept.numerators == (2, 4) and kept.denominator == 10
        same = [Alternative.from_ints("a", (k, -k), 2 * k) for k in (1, 3, 5)]
        assert same[0] == same[1] == same[2]
        assert hash(same[0]) == hash(same[1]) == hash(same[2])

    @pytest.mark.parametrize(
        "build,bad",
        [
            (lambda: Alternative("x", (0.5, 1)), "0.5"),
            (lambda: Alternative("x", (F(1, 2), "1/2")), "'1/2'"),
            (lambda: Alternative.from_ints("x", (1, F(1, 2)), 2), "Fraction(1, 2)"),
        ],
        ids=["float-utility", "str-utility", "Fraction-numerator"],
    )
    def test_bad_utilities_raise_when_built(self, build, bad):
        with pytest.raises(TypeError, match=re.escape(bad)):
            build()

    def test_immutable_and_copyable(self):
        for a in (Alternative.from_ints("a", (3, -6), 6), Alternative("a", (F(1, 2), F(-1)))):
            for attribute in ("name", "profile", "numerators", "denominator", "_profile"):
                with pytest.raises(AttributeError):
                    setattr(a, attribute, None)
                with pytest.raises(AttributeError):
                    delattr(a, attribute)
            for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
                assert twin == a and twin.denominator == a.denominator
        numerators = [3, -6]
        a = Alternative.from_ints("a", numerators, 6)
        numerators[0] = 0
        assert a.numerators == (3, -6)
        for denominator in (0, -6):
            with pytest.raises(ValueError, match="positive"):
                Alternative.from_ints("a", (3, -6), denominator)


def _shifted_fixtures() -> BeliefFixtures:
    """Three states and a utility range of 1 starting at 4/3, so the sampler's
    grid is both shrunk and shifted by a non-integer."""
    states = ("x", "y", "z")
    m1 = Measure({"x": F(1, 2), "y": F(1, 3), "z": F(1, 6)})
    m2 = Measure({"x": F(1, 5), "y": F(0), "z": F(4, 5)})
    return BeliefFixtures(
        UtilitySpec({"low": F(4, 3), "high": F(7, 3)}), states, (m1, m2),
        WeightedMeasureSet([(m1, 1), (m2, F(1, 3))], states),
    )


def _witness_profiles(report: AxiomReport) -> list:
    """Name and utilities of every alternative a report's witnesses hold."""
    out = []
    for w in (report.counterexample, report.unwitnessed_example):
        if w is None:
            continue
        members = [*w.menu, *w.acts.values()]
        members += [a for key, menu in w.params.items() if key.endswith("menu") for a in menu]
        for a in members:
            assert all(type(v) is F for v in a.profile), (report.axiom, a.name)
            out.append([a.name, *map(str, a.profile)])
    return out


def _sha1(obj) -> str:
    return hashlib.sha1(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class TestPinnedReports:
    # every axiom under every matrix rule at 30 samples; the digests of the
    # reports and of their witnesses' profiles were recorded from the
    # Fraction-only checker, before profiles were drawn as ints
    @pytest.mark.parametrize(
        "fixtures_of,seed,reports_sha1,witnesses_sha1",
        [
            (delivery_fixtures, 0, "dbb8d4a13edceeff6a7bd66bda62c471513ab98c",
             "66f8dc514b238a2c31efd2ab1a3a6d8423bba9e0"),
            (delivery_fixtures, 5, "b795e25fa7fb4d4d0f7cde130e70a97f9615db5d",
             "92936408954babce2a9ad50d00e5a7517858f1e8"),
            (_shifted_fixtures, 0, "f617cf02d1a181d868606f9f30fbd7f0ba61424d",
             "3dd2d832caaa1901dc2693e7837965dcdd36da3b"),
            (_shifted_fixtures, 5, "b52817e655db30e3f595694e807d75e11f3f9f12",
             "d1e5c966faaa7f23ca5569c7da5cd8481f21eb83"),
        ],
        ids=["delivery-0", "delivery-5", "shifted-0", "shifted-5"],
    )
    def test_reports_are_pinned(self, fixtures_of, seed, reports_sha1, witnesses_sha1):
        fixtures = fixtures_of()
        reports = [
            check_axiom(axiom, fixtures.oracle(rule), GeneratorConfig(samples=30), seed=seed)
            for rule in MATRIX_RULES
            for axiom in AXIOM_IDS
        ]
        assert _sha1([r.to_obj() for r in reports]) == reports_sha1
        assert _sha1([_witness_profiles(r) for r in reports]) == witnesses_sha1


class TestFractionBudget:
    def test_clean_draws_build_no_fractions(self, fixtures, monkeypatch):
        # a clean report's Fractions are its set-up's, whatever the sample
        # count: sampled profiles, mixtures and scoring stay in ints
        original = fractions.Fraction.__new__
        built = [0]

        def counting_new(cls, *args, **kwargs):
            built[0] += 1
            return original(cls, *args, **kwargs)

        oracles = {rule: fixtures.oracle(rule) for rule in MATRIX_RULES}
        monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting_new))
        checked = 0
        for axiom in ("1", "2", "3", "4", "5", "8", "9", "10"):
            for rule, oracle in oracles.items():
                counts = []
                for samples in (50, 200):
                    built[0] = 0
                    config = GeneratorConfig(samples=samples, include_curated=False)
                    report = check_axiom(axiom, oracle, config, seed=0)
                    counts.append((report.verdict, built[0]))
                if counts[0][0] == counts[1][0] == "no-violation-found":
                    checked += 1
                    assert counts[0][1] == counts[1][1], (axiom, rule, counts)
        assert checked == 40


class TestDefaultFixtures:
    def test_default_fixtures_are_the_bundled_weighted_delivery_problem(
        self, delivery_utility, delivery_measures, delivery_wset
    ):
        # conftest's delivery problem is the reference copy of what
        # `delivery_weighted.dp` holds: the 7-prize utility table, the two
        # point masses and the weights 1 and 1/2
        reference = BeliefFixtures(delivery_utility, DELIVERY_STATES, delivery_measures, delivery_wset)
        assert [w for _, w in reference.weighted.entries] == [1, F(1, 2)]
        text = fixture_path("delivery_weighted.dp").read_text(encoding="utf-8")
        for built in (delivery_fixtures(), belief_fixtures(parse_problem(text))):
            assert built == reference and repr(built) == repr(reference)
        assert utility_span(reference.utility) == (20000, -20000)

    def test_fixtures_need_two_hypotheses(self):
        text = fixture_text("delivery_weighted.dp")
        for dropped in (["hypothesis ten"], ["hypothesis one", "hypothesis ten"]):
            lines = [line for line in text.splitlines() if not line.startswith(tuple(dropped))]
            with pytest.raises(ValueError, match="axiom fixtures need at least two hypotheses"):
                belief_fixtures(parse_problem("\n".join(lines)))


class TestMatrix:
    def test_small_matrix_matches_known_pattern(self, fixtures):
        matrix = axiom_matrix(fixtures=fixtures, seed=0, config=GeneratorConfig(samples=60))
        cells = matrix.cells
        assert cells[("mwer", "ax12")] == "violated"
        assert cells[("mmeu", "independence")] == "violated"
        for rule in ("seu", "regret", "mer"):
            for column in ("ax1-6,8-10", "independence", "c-independence", "ax12"):
                assert cells[(rule, column)] == "no-violation-found", (rule, column)
        assert cells[("mwer", "independence")] == "no-violation-found"
        assert cells[("mwer", "c-independence")] == "no-violation-found"
        assert cells[("mmeu", "ax12")] == "no-violation-found"
        text = matrix.to_text()
        assert "VIOLATED" in text and text.splitlines()[0].startswith("rule")

    def test_matrix_of_some_rules_renders_those_rows(self, fixtures):
        matrix = axiom_matrix(("mwer", "seu"), fixtures, seed=0, config=GeneratorConfig(samples=5))
        rows = [line.split()[0] for line in matrix.to_text().splitlines()[1:]]
        assert rows == ["mwer", "seu"]
        assert list(matrix.to_obj()["cells"]) == ["mwer", "seu"]


class TestMixtureJudgesAgainstReference:
    """The int-judged mixture axioms against `axiom_reference`, which builds
    every mixture as an `Alternative` and compares it in a menu of them."""

    ORACLES = {
        **{rule: lambda fixtures, rule=rule: fixtures.oracle(rule) for rule in MATRIX_RULES},
        "squares": lambda fixtures: MutantOracle(fixtures, MUTANTS["squares"][1]),
    }

    @pytest.mark.parametrize("oracle_of", list(ORACLES), ids=list(ORACLES))
    def test_verdicts_and_findings_match(self, oracle_of):
        # 300 instances of each judge per oracle, half on each fixture
        verdicts = []
        for fixtures_of in (delivery_fixtures, _shifted_fixtures):
            oracle = self.ORACLES[oracle_of](fixtures_of())
            for axiom, judge in axiom_reference.JUDGES.items():
                entry, sampler = _AXIOMS[axiom], Sampler(random.Random(int(axiom)), oracle)
                judged = 0
                while judged < 150:
                    instance = entry.draw(oracle, sampler)
                    if instance is None:
                        continue
                    judged += 1
                    verdict = entry.judge(oracle, instance)
                    assert verdict == judge(oracle, instance), (fixtures_of.__name__, axiom, judged)
                    verdicts.append((axiom, verdict if isinstance(verdict, str) else "finding"))
        # each judge meets applicable instances, and the comparison meets findings
        assert {axiom for axiom, verdict in verdicts if verdict != "vacuous"} == {"5", "7", "11"}
        if oracle_of in ("mmeu", "squares"):
            assert ("7", "finding") in verdicts

    @pytest.mark.parametrize("include_curated", [True, False], ids=["curated", "sampled"])
    def test_matrix_witnesses_replay_under_both_judges(self, fixtures, include_curated):
        config = GeneratorConfig(samples=22, include_curated=include_curated)
        replayed = 0
        for seed in range(10):
            matrix = axiom_matrix(fixtures=fixtures, seed=seed, config=config)
            for (rule, axiom), report in matrix.reports.items():
                oracle = fixtures.oracle(rule)
                for w in (report.counterexample, report.unwitnessed_example):
                    if w is None:
                        continue
                    instance = Instance(w.menu, w.acts, w.params)
                    if w.kind == "violation":
                        assert replay(report, oracle), (seed, rule, axiom)
                        replayed += 1
                    if axiom in axiom_reference.JUDGES:
                        found = axiom_reference.JUDGES[axiom](oracle, instance)
                        assert isinstance(found, axioms.Finding), (seed, rule, axiom)
                        assert found.params.items() <= w.params.items()
                        assert found.scores == w.scores
        assert replayed >= 10


class TestOracleCache:
    def test_equal_members_score_alike_and_non_members_raise(self, fixtures):
        menu = (
            Alternative.from_ints("a", (3, -6), 6),
            Alternative.from_ints("b", (1, 1), 3),
            Alternative.from_ints("c", (0, 2), 2),
        )
        twin = Alternative.from_ints("a", (1, -2), 2)  # equal to menu[0], not it
        stranger = Alternative.from_ints("d", (3, -6), 6)
        for rule in MATRIX_RULES:
            oracle = fixtures.oracle(rule)
            fresh = fixtures.oracle(rule)
            assert oracle.prefers(menu[0], menu[1], menu) == fresh.prefers(twin, menu[1], list(menu))
            assert oracle.rate(twin, menu) == oracle.rate(menu[0], menu) == fresh.rate(menu[0], list(menu))
            assert oracle.prefers(twin, menu[0], menu) == 0
            assert oracle.prefers(menu[2], twin, menu) == -oracle.prefers(twin, menu[2], menu)
            with pytest.raises(ActNotInMenu):
                oracle.rate(stranger, menu)
            with pytest.raises(ActNotInMenu):
                oracle.prefers(menu[1], stranger, menu)


class TestMatrixWork:
    def test_matrix_scores_each_member_once_and_mixes_on_ints(self, monkeypatch):
        # axiom_matrix(seed=0, samples=22) on delivery_weighted.dp; before
        # members were scored once per kept menu and the mixture judges
        # worked on ints, it made 7,019 kernel calls and 1,951 menu
        # conversions, and built 7,293 alternatives; the mixture judges take
        # their profiles from the oracle's kept conversion
        doc = parse_problem(fixture_text("delivery_weighted.dp"))
        fixtures = BeliefFixtures(doc.utility, doc.states, doc.measures(), doc.weighted_set())
        counts = {"kernel": 0, "over_common": 0, "alternatives": 0}

        def counted(key, call):
            def wrapper(*args):
                counts[key] += 1
                return call(*args)
            return wrapper

        for rule, entry in decisions.RULES.items():
            monkeypatch.setitem(decisions.RULES, rule, entry._replace(score=counted("kernel", entry.score)))
        for module in (decisions, axioms):
            monkeypatch.setattr(module, "over_common", counted("over_common", rational.over_common))
        from_ints = Alternative.from_ints.__func__
        monkeypatch.setattr(Alternative, "__init__", counted("alternatives", Alternative.__init__))
        monkeypatch.setattr(Alternative, "from_ints", classmethod(counted("alternatives", from_ints)))
        matrix = axiom_matrix(fixtures=fixtures, seed=0, config=GeneratorConfig(samples=22))
        monkeypatch.undo()
        assert matrix.cells[("mwer", "ax12")] == matrix.cells[("mmeu", "independence")] == "violated"
        assert counts == {"kernel": 4443, "over_common": 1654, "alternatives": 5954}


SEVEN_STATES = tuple(f"s{i}" for i in range(7))


@pytest.mark.parametrize("build, error, message", [
    (lambda: check_axiom(1, PreferenceOracle("regret", None, UtilitySpec({"y": 1, "z": 0}), SEVEN_STATES)),
     ValueError, "axiom checking is capped at 6 states"),
])
def test_error_types_and_messages(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message
