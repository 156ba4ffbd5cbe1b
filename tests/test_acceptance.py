"""Acceptance suite: one test per shipped criterion, exact tolerances pinned.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion.  Every expected value is either a known reference number,
asserted exactly, or derived here by an independent computation spelled
out inline.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from wregret import (
    Event,
    Menu,
    UtilitySpec,
    WeightedMeasureSet,
    max_regret,
    mer,
    mix,
    mwer,
    point_mass,
    rank,
    regret_profile,
    likelihood_update,
    sequential_update,
    upper_likelihood,
)
from wregret.axioms import (
    GeneratorConfig,
    axiom_matrix,
    check_axiom,
    check_mdc,
    delivery_fixtures,
    replay,
)
from wregret.dsl import parse_problem, parse_tree
from wregret.dynamics import (
    evaluate_tree,
    is_null,
    likelihood_family,
)
from wregret.errors import ParseError
from wregret.fixtures import fixture_text
from wregret.learning import ObservationModel, Probe, simulate

from conftest import cupcake_weight, mdc_scaling_check, profile_act, random_wset, serialize_problem
from test_dsl import _mutate

F = Fraction

GRID_U = UtilitySpec({"top": 1, "bot": -1})
STATES4 = ("s1", "s2", "s3", "s4")


def _report(criterion: str) -> None:
    print(f"acceptance: {criterion}: pass")


@pytest.fixture(scope="module")
def fixtures():
    return delivery_fixtures()


def test_c01_delivery_regret_table(base_menu, delivery_acts, delivery_utility, delivery_measures):
    u = delivery_utility
    table = {
        "one_broken": {"cont": 0, "back": 10000, "check": 4999},
        "ten_broken": {"cont": 10000, "back": 0, "check": 4999},
    }
    for state, row in table.items():
        for name, value in row.items():
            assert regret_profile(delivery_acts[name], base_menu, u)[state] == value
    scores = {
        name: mer(delivery_acts[name], base_menu, u, delivery_measures)
        for name in ("cont", "back", "check")
    }
    assert scores == {"cont": 10000, "back": 10000, "check": 4999}
    ranking = rank("mer", base_menu, u, delivery_measures)
    assert ranking.groups[0] == ("check",)
    _report("criterion 1 (delivery regret table, exact)")


def test_c02_menu_dependence(extended_menu, delivery_acts, delivery_utility, delivery_measures):
    u = delivery_utility
    table = {
        "one_broken": {"cont": 10000, "back": 20000, "check": 14999, "new": 0},
        "ten_broken": {"cont": 10000, "back": 0, "check": 4999, "new": 20000},
    }
    for state, row in table.items():
        for name, value in row.items():
            assert regret_profile(delivery_acts[name], extended_menu, u)[state] == value
    ranking = rank("mer", extended_menu, u, delivery_measures)
    assert ranking.groups[0] == ("cont",)
    assert ranking.scores["cont"] == 10000
    assert ranking.scores["check"] == 14999
    _report("criterion 2 (menu dependence with the added act, exact)")


def test_c03_weighted_counterexample(fixtures):
    u = fixtures.utility
    wset = fixtures.weighted
    assert dict(wset.entries)[point_mass("ten_broken", fixtures.state_space)] == F(1, 2)

    def mirrored(name, x):
        return profile_act(name, {"one_broken": F(x), "ten_broken": F(-x)}, u)

    cont, back = mirrored("cont", 10000), mirrored("back", 0)
    half = mix(F(1, 2), cont, back)
    menu = Menu([cont, half, back, mirrored("check1", -5000), mirrored("check2", -10000)])
    assert mwer(cont, menu, u, wset) == 10000
    assert mwer(back, menu, u, wset) == 10000
    assert mwer(half, menu, u, wset) == 7500

    oracle = fixtures.oracle("mwer")
    report = check_axiom("12", oracle, GeneratorConfig(samples=10), seed=0)
    assert report.verdict == "violated"
    witness = report.counterexample
    assert "known" in witness.description  # came from the curated corpus
    assert witness.acts["f"].name == "cont"
    assert witness.acts["h"].name == "back"
    assert witness.params["p"] == F(1, 2)
    assert witness.scores == {"f": F(10000), "h": F(10000), "mixture": F(7500)}
    assert replay(report, oracle)
    _report("criterion 3 (weighted constant-mix counterexample, exact)")


def test_c04_likelihood_update_exact_rationals():
    doc = parse_problem(fixture_text("cupcake.dp"))
    wset = doc.weighted_set()
    event = doc.events["first100good"]
    expected_weight = F(comb(900, 10) * 10, 9 * comb(1000, 10))
    updated = likelihood_update(wset, event)
    assert sorted(w for _, w in updated.entries) == [expected_weight, F(1)]
    ten_measure = doc.hypotheses["ten"][0]
    assert abs(float(ten_measure.event_prob(event)) - 0.35) < 0.01
    assert cupcake_weight(991) == 0
    assert cupcake_weight(0) == 1
    for n in range(1, 991):
        assert cupcake_weight(n) < F(999 - n, 999) ** 9
    _report("criterion 4 (inspected-prefix update and weight bound, exact)")


def test_c05_update_order_irrelevance():
    rng = random.Random(20260810)
    checked = 0
    while checked < 200:
        wset = random_wset(rng, STATES4)
        e1 = Event([s for s in STATES4 if rng.random() < 0.6] or ["s1"])
        e2 = Event([s for s in STATES4 if rng.random() < 0.6] or ["s2"])
        if upper_likelihood(wset, e1 & e2) == 0:
            continue
        joint = likelihood_update(wset, e1 & e2)
        assert sequential_update(wset, e1, e2) == joint
        assert sequential_update(wset, e2, e1) == joint
        checked += 1
    _report("criterion 5 (update order irrelevance, 200 exact instances)")


def test_c06_scaling_identity_and_mdc():
    rng = random.Random(77)
    checked = 0
    while checked < 200:
        wset = random_wset(rng, STATES4)
        event = Event([s for s in STATES4 if rng.random() < 0.6] or ["s1"])
        if is_null(event, wset):
            continue
        acts = [
            profile_act(f"a{i}", {s: F(rng.randint(-10, 10), 10) for s in STATES4}, GRID_U)
            for i in range(3)
        ]
        menu = Menu(acts)
        lhs, rhs = mdc_scaling_check(acts[0], event, menu, acts[1], GRID_U, wset)
        assert lhs == rhs
        checked += 1

    wset = random_wset(random.Random(5), STATES4)
    report = check_mdc(
        likelihood_family(wset, GRID_U), wset, GeneratorConfig(samples=500), seed=1
    )
    assert report.samples >= 500
    assert report.verdict == "no-violation-found"
    _report("criterion 6 (conditional scaling identity and dynamic consistency)")


def _random_profile_act(rng, name, states=STATES4):
    return profile_act(name, {s: F(rng.randint(-10, 10), 10) for s in states}, GRID_U)


def test_c07_degenerations(delivery_measures):
    rng = random.Random(4242)
    # worst-case weighted regret with unit weights is worst-case expected regret
    for _ in range(100):
        menu = Menu([_random_profile_act(rng, f"a{i}") for i in range(3)])
        measures = [m for m, _ in random_wset(rng, STATES4).entries]
        unit = WeightedMeasureSet([(m, 1) for m in measures], STATES4)
        for act in menu:
            assert mwer(act, menu, GRID_U, unit) == mer(act, menu, GRID_U, measures)
    # a singleton unit-weight belief ranks exactly like expected utility
    for _ in range(100):
        menu = Menu([_random_profile_act(rng, f"b{i}") for i in range(4)])
        measure = [m for m, _ in random_wset(rng, STATES4, max_measures=1).entries][0]
        singleton = WeightedMeasureSet([(measure, 1)], STATES4)
        assert rank("mwer", menu, GRID_U, singleton).groups == rank(
            "seu", menu, GRID_U, measure
        ).groups
    # the full-simplex hull (point masses) reduces to probability-free regret
    vertices = [point_mass(s, STATES4) for s in STATES4]
    for _ in range(100):
        menu = Menu([_random_profile_act(rng, f"c{i}") for i in range(3)])
        for act in menu:
            assert mer(act, menu, GRID_U, vertices) == max_regret(act, menu, GRID_U)
    _report("criterion 7 (rule degenerations, 3 x 100 exact instances)")


def test_c08_axiom_matrix(fixtures):
    matrix = axiom_matrix(fixtures=fixtures, seed=0, config=GeneratorConfig(samples=500))
    cells = matrix.cells
    for rule in ("mer", "mwer"):
        assert cells[(rule, "ax1-6,8-10")] == "no-violation-found"
        assert cells[(rule, "independence")] == "no-violation-found"
    assert cells[("mwer", "ax12")] == "violated"
    assert "known" in matrix.reports[("mwer", "12")].counterexample.description
    assert cells[("mmeu", "independence")] == "violated"
    assert replay(matrix.reports[("mmeu", "7")], fixtures.oracle("mmeu"))
    for column in ("ax1-6,8-10", "independence", "c-independence", "ax12"):
        assert cells[("seu", column)] == "no-violation-found"
    for rule, axioms in (("mer", ("1", "7")), ("mwer", ("1", "7"))):
        for axiom in axioms:
            assert matrix.reports[(rule, axiom)].samples >= 500
    _report("criterion 8 (rule-by-axiom matrix at 500 samples per cell)")


def test_c09_restaurant_dynamics():
    doc = parse_problem(fixture_text("restaurant.dp"))
    tree = parse_tree(fixture_text("restaurant.tree"), doc)
    wset = doc.weighted_set()

    ex_ante = evaluate_tree(tree, doc.utility, wset, planning="ex-ante")
    assert ex_ante.chosen.name == "chinese+rice"
    assert ex_ante.diagnostics[0].scores["chinese+rice"] == 5

    for policy in ("full", "viable"):
        result = evaluate_tree(tree, doc.utility, wset, planning="sophisticated", menu_policy=policy)
        order_diag = next(d for d in result.diagnostics if d.node == "order")
        assert order_diag.scores["chinese+stirfry"] == 2
        assert order_diag.scores["chinese+rice"] == 3
        assert order_diag.eliminated == ("chinese+rice",)
        assert result.chosen.name == "italian"
    _report("criterion 9 (restaurant tree: ex-ante vs sophisticated, exact)")


def test_c10_convergence():
    doc = parse_problem(fixture_text("learning.dp"))
    measures = {name: m for name, (m, _) in doc.hypotheses.items()}
    model = ObservationModel(outcomes=tuple(doc.states), likelihoods=measures, truth="mostly_good")
    probe = Probe(menu=doc.menus["probe"], utility=doc.utility, measures=measures)
    prior = {name: w for name, (_, w) in doc.hypotheses.items()}
    concentrated = 0
    matched = 0
    for seed in range(100):
        trajectory = simulate(model, prior, probe, rounds=500, seed=seed)
        if trajectory.final_weights()["coin"] < 1e-3:
            concentrated += 1
        _, matches_truth_seu = trajectory.rankings[-1]
        if matches_truth_seu:
            matched += 1
    assert concentrated >= 95
    assert matched >= 99
    _report(
        f"criterion 10 (convergence: {concentrated}/100 concentrated, {matched}/100 matched)"
    )


def test_c11_parser_round_trip_and_fuzz():
    names = [
        "delivery.dp", "delivery_weighted.dp", "cupcake.dp", "restaurant.dp", "learning.dp",
    ]
    for name in names:
        doc = parse_problem(fixture_text(name))
        once = serialize_problem(doc)
        assert serialize_problem(parse_problem(once)) == once, name

    rng = random.Random(20260811)
    seeds = [fixture_text(n) for n in names]
    for i in range(10_000):
        candidate = _mutate(rng, seeds[i % len(seeds)])
        try:
            parse_problem(candidate)
        except ParseError as exc:
            assert exc.diagnostics
            for d in exc.diagnostics:
                assert d.line >= 1 and d.column >= 1 and d.message
    _report("criterion 11 (byte-exact round-trips; 10^4-case fuzz, no crashes)")
