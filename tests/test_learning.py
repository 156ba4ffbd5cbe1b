"""Weight dynamics under repeated observations and threshold updating."""

import copy
import math
import pickle
import random
import statistics
from fractions import Fraction
from math import comb

import pytest

import simulate_reference as reference
from conftest import cupcake_weight
from wregret import Event, Lottery, Measure, Menu, UtilitySpec, learning
from wregret.decisions import Act
from wregret.dsl import parse_problem
from wregret.errors import AllEliminated
from wregret.fixtures import fixture_text
from wregret.learning import (
    ObservationModel,
    Probe,
    compare_updaters,
    es_update,
    simulate,
)

F = Fraction


def binary_ingredients():
    """Mostly-good truth vs fair coin, with a probe whose worst-case ranking
    starts out disagreeing with expected utility under the truth."""
    u = UtilitySpec({"double": 2, "refund": -2, "premium": F(9, 10)})
    risky = Act("risky", {"good": Lottery({"double": 1}), "bad": Lottery({"refund": 1})})
    steady = Act("steady", {"good": Lottery({"premium": 1}), "bad": Lottery({"premium": 1})})
    menu = Menu([risky, steady])
    measures = {
        "mostly_good": Measure({"good": F(9, 10), "bad": F(1, 10)}),
        "coin": Measure({"good": F(1, 2), "bad": F(1, 2)}),
    }
    model = ObservationModel(("good", "bad"), measures, "mostly_good")
    return model, Probe(menu, u, measures), {"mostly_good": 1, "coin": 1}


def _weights_in_round(trajectory, round_index: int) -> dict:
    """Each hypothesis's weight in one round, read from the weight columns."""
    return {h: column[round_index] for h, column in zip(trajectory.hypotheses, trajectory.weights)}


class TestSimulate:
    def test_zero_likelihood_kills_weight_in_one_round(self):
        u = UtilitySpec({"hi": 1, "lo": -1})
        act = Act("only", {"good": Lottery({"hi": 1}), "bad": Lottery({"lo": 1})})
        other = Act("other", {"good": Lottery({"lo": 1}), "bad": Lottery({"hi": 1})})
        measures = {
            "always_good": Measure({"good": 1, "bad": 0}),
            "always_bad": Measure({"good": 0, "bad": 1}),
        }
        model = ObservationModel(("good", "bad"), measures, "always_good")
        probe = Probe(Menu([act, other]), u, measures)
        trajectory = simulate(model, {"always_good": 1, "always_bad": 1}, probe, 3, seed=0)
        assert _weights_in_round(trajectory, 0) == {"always_good": 1.0, "always_bad": 1.0}
        assert _weights_in_round(trajectory, 1)["always_bad"] == 0.0
        assert trajectory.outcomes[1] == "good"

    def test_identical_hypotheses_keep_weight_one(self):
        u = UtilitySpec({"hi": 1, "lo": -1})
        act = Act("a", {"good": Lottery({"hi": 1}), "bad": Lottery({"lo": 1})})
        coin = Measure({"good": F(1, 2), "bad": F(1, 2)})
        measures = {"h1": coin, "h2": coin}
        model = ObservationModel(("good", "bad"), measures, "h1")
        probe = Probe(Menu([act]), u, measures)
        trajectory = simulate(model, {"h1": 1, "h2": 1}, probe, 50, seed=1)
        assert trajectory.weights == ((1.0,) * 51,) * 2  # both columns, every round

    def test_weights_are_exact_likelihood_ratio_products(self):
        # each weight is the history-likelihood ratio against the current
        # leader (product form); renormalization never pushes one above 1
        model, probe, prior = binary_ingredients()
        trajectory = simulate(model, prior, probe, 40, seed=11)
        log_like = {"coin": 0.0, "mostly_good": 0.0}
        for round_index, outcome in enumerate(trajectory.outcomes):
            if outcome is None:
                continue
            for h in log_like:
                log_like[h] += math.log(float(model.likelihoods[h][outcome]))
            top = max(log_like.values())
            weights = _weights_in_round(trajectory, round_index)
            for h in log_like:
                assert weights[h] == pytest.approx(
                    math.exp(log_like[h] - top), rel=1e-12
                )
                assert weights[h] <= 1.0

    def test_pinned_median_settling_round(self):
        # regression: the round after which the worst-case ranking matches
        # the truth's expected-utility ranking for good, over 100 seeds
        model, probe, prior = binary_ingredients()
        settles = []
        for seed in range(100):
            trajectory = simulate(model, prior, probe, 60, seed=seed)
            last_mismatch = max(
                (i for i, (_, matches) in enumerate(trajectory.rankings) if not matches),
                default=-1,
            )
            settles.append(last_mismatch + 1)
        assert statistics.median(settles) == 1

    def test_prior_must_be_normalized(self):
        model, probe, _ = binary_ingredients()
        with pytest.raises(ValueError, match="normalized"):
            simulate(model, {"mostly_good": F(1, 2), "coin": F(1, 2)}, probe, 5, seed=0)

    def test_prior_weights_must_lie_in_the_unit_interval(self):
        # a negative weight must not run as if it were 0
        model, probe, _ = binary_ingredients()
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            simulate(model, {"coin": 1, "mostly_good": -3}, probe, 5, seed=0)

    def test_weights_are_one_column_per_hypothesis(self):
        model, probe, prior = binary_ingredients()
        trajectory = simulate(model, prior, probe, 30, seed=2)
        rows = reference.simulate(model, prior, probe, 30, seed=2)
        assert len(trajectory.weights) == len(model.hypotheses) == 2
        for h, column in zip(trajectory.hypotheses, trajectory.weights):
            assert column == tuple(row.weights[h] for row in rows)
        assert trajectory.final_weights() == rows[-1].weights

    def test_a_trajectory_of_the_wrong_shape_is_rejected(self):
        # a caller still passing one weight tuple per round gets an error, not a wrong CSV
        model, probe, prior = binary_ingredients()
        trajectory = simulate(model, prior, probe, 3, seed=0)
        wrong = {
            "weights": tuple(zip(*trajectory.weights)),
            "rankings": trajectory.rankings[:-1],
            "outcomes": (*trajectory.outcomes, "good"),
        }
        wrong_columns = (
            trajectory.weights[:1], (*trajectory.weights, trajectory.weights[0]),
            (trajectory.weights[0], trajectory.weights[1][:-1]),
        )
        for field, value in [*wrong.items(), *(("weights", w) for w in wrong_columns)]:
            with pytest.raises(ValueError, match="weights must be one column of 4|have 4 entries"):
                trajectory._replace(**{field: value})

    def test_csv_shape(self):
        model, probe, prior = binary_ingredients()
        trajectory = simulate(model, prior, probe, 3, seed=0)
        text = f"{trajectory.csv_header()}\n" + trajectory.csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "round,weight_coin,weight_mostly_good,mwer_ranking,matches_truth_seu"
        assert len(lines) == 5  # header + rounds 0..3


def _model(outcomes, dists, truth) -> ObservationModel:
    """The model whose hypotheses are the distributions, each built as a `Measure`."""
    return ObservationModel(outcomes, {h: Measure(d) for h, d in dists.items()}, truth)


HALF = {"good": F(1, 2), "bad": F(1, 2)}

# every likelihood input that the model refused when it took dicts:
# (outcomes, distributions, truth, the exception raised at `Measure` or the model)
REJECTED_INPUTS = {
    "negative": (("good", "bad"), {"h": {"good": F(3, 2), "bad": F(-1, 2)}}, "h", ValueError),
    "float 0.5": (("h", "t"), {"c": {"h": 0.5, "t": 0.5}}, "c", TypeError),
    "float 0.1": (("h", "t"), {"c": {"h": 0.1, "t": 0.9}}, "c", TypeError),
    "sum": (("good", "bad"), {"h": {"good": F(1, 2), "bad": F(1, 3)}}, "h", ValueError),
    "alphabet": (("good", "bad"), {"h": HALF, "g": {"good": F(1, 2), "ugly": F(1, 2)}}, "h", ValueError),
    "repeated": (("good", "good", "bad"), {"h": HALF}, "h", ValueError),
    "truth": (("good", "bad"), {"h": HALF}, "loaded", ValueError),
}


class TestObservationModel:
    @pytest.mark.parametrize("case", REJECTED_INPUTS)
    def test_every_rejected_input_is_still_rejected(self, case):
        outcomes, dists, truth, error = REJECTED_INPUTS[case]
        with pytest.raises(error):
            _model(outcomes, dists, truth)

    def test_a_hypothesis_must_be_a_measure_over_the_outcomes(self):
        with pytest.raises(ValueError, match="'g' is not a Measure over the outcome alphabet"):
            _model(*REJECTED_INPUTS["alphabet"][:3])
        with pytest.raises(ValueError, match="'h' is not a Measure over the outcome alphabet"):
            ObservationModel(("good", "bad"), {"h": HALF}, "h")

    def test_repeated_outcome_is_rejected(self):
        # a repeated outcome would be counted twice by the draw
        with pytest.raises(ValueError, match="'good' is listed twice"):
            _model(("good", "good", "bad"), {"h": HALF}, "h")

    def test_negative_likelihood_is_rejected(self):
        with pytest.raises(ValueError, match="negative probability -1/2 for state 'bad'"):
            _model(("good", "bad"), {"h": {"good": F(3, 2), "bad": F(-1, 2)}}, "h")

    @pytest.mark.parametrize("heads", [0.5, 0.1])
    def test_float_likelihood_is_rejected(self, heads):
        # a float is not exact: the binary values of 0.5 and 0.5 sum to one, of 0.1 and 0.9 not
        with pytest.raises(TypeError, match=f"probability {heads} for state 'h' is not an int"):
            _model(("h", "t"), {"c": {"h": heads, "t": 1 - heads}}, "c")

    def test_string_likelihoods_simulate_as_their_fractions(self):
        # a measure reads rational strings, so the simulator does too
        model, probe, prior = binary_ingredients()
        text = {"mostly_good": {"good": "9/10", "bad": "0.1"}, "coin": {"good": "1/2", "bad": ".5"}}
        as_text = _model(model.outcomes, text, model.truth)
        for seed in (0, 7):
            assert simulate(as_text, prior, probe, 60, seed) == simulate(model, prior, probe, 60, seed)

    def test_the_model_keeps_a_copy_of_the_likelihoods(self):
        # a hypothesis the caller adds to their mapping afterwards, float
        # values and all, reaches neither the model nor a run
        model, probe, prior = binary_ingredients()
        likelihoods = dict(model.likelihoods)
        copied = ObservationModel(model.outcomes, likelihoods, model.truth)
        before = simulate(copied, prior, probe, 40, seed=2)
        likelihoods["g"] = {"good": 0.5, "bad": 0.5}
        likelihoods["coin"] = likelihoods["mostly_good"]
        assert copied.hypotheses == ("coin", "mostly_good")
        assert copied.likelihoods == model.likelihoods
        assert simulate(copied, prior, probe, 40, seed=2) == before

    def test_likelihoods_are_read_only(self):
        # on the model, its copies and its replacements: a hypothesis cannot
        # be added to a model after it was checked
        model, _, _ = _learning_fixture("mostly_good")
        twins = (
            copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(model)),
            model._replace(truth="coin"), model._replace(likelihoods=dict(model.likelihoods)),
        )
        for twin in (model, *twins):
            with pytest.raises(TypeError):
                twin.likelihoods["zzz"] = "not a measure"
            assert twin.hypotheses == ("coin", "mostly_good")
            assert dict(twin.likelihoods) == dict(model.likelihoods)

    def test_rounding_fallback_draws_an_outcome_the_truth_can_produce(self, monkeypatch):
        # 7/10 + 2/10 + 1/10 sums to the largest float below 1.0 in floats, so
        # a draw of that float is not below any threshold; it must not land
        # on "never", which the truth gives probability zero
        assert 0.7 + 0.2 + 0.1 == math.nextafter(1.0, 0.0)

        class TopDraw(random.Random):
            def random(self):
                return math.nextafter(1.0, 0.0)

        monkeypatch.setattr(learning.random, "Random", TopDraw)
        dist = Measure({"a": F(7, 10), "b": F(2, 10), "c": F(1, 10), "never": 0})
        model = ObservationModel(("a", "b", "c", "never"), {"h": dist}, "h")
        u = UtilitySpec({"hi": 1, "lo": 0})
        act = Act("only", {o: Lottery({"hi": 1}) for o in dist.state_space})
        probe = Probe(Menu([act]), u, {"h": dist})
        trajectory = simulate(model, {"h": 1}, probe, 3, seed=0)
        assert trajectory.outcomes[1:] == ("c", "c", "c")
        assert trajectory.weights == ((1.0,) * 4,)


class TestProbeTables:
    def test_tables_are_built_once_per_probe(self, monkeypatch):
        built = []
        original = learning.PreferenceOracle

        def counting_oracle(*args, **kwargs):
            built.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(learning, "PreferenceOracle", counting_oracle)
        model, probe, prior = binary_ingredients()
        for seed in range(5):
            simulate(model, prior, probe, 10, seed)
        compare_updaters(model, prior, probe, 10, range(3), F(1, 2))
        # expected regret under each of the two hypotheses, expected utility
        # under the truth only
        assert sorted(built) == ["mer", "mer", "seu"]

    def test_measures_outside_the_model_are_not_scored(self):
        # a measure the model has no hypothesis for is never read, even one
        # over states the menu does not use
        model, probe, prior = binary_ingredients()
        stray = Measure({"elsewhere": 1})
        wider = Probe(probe.menu, probe.utility, {**probe.measures, "stray": stray})
        assert simulate(model, prior, wider, 40, seed=3) == simulate(model, prior, probe, 40, seed=3)
        assert compare_updaters(model, prior, wider, 40, range(4)) == compare_updaters(
            model, prior, probe, 40, range(4)
        )

    def test_a_hypothesis_without_a_probe_measure_is_named(self):
        model, probe, prior = binary_ingredients()
        partial = Probe(probe.menu, probe.utility, {"coin": probe.measures["coin"]})
        message = "the probe has no measure for hypothesis 'mostly_good'"
        with pytest.raises(ValueError, match=message):
            simulate(model, prior, partial, 10, seed=0)
        with pytest.raises(ValueError, match=message):
            compare_updaters(model, prior, partial, 10, range(2))

    def test_measures_are_a_read_only_copy(self):
        model, probe, prior = binary_ingredients()
        measures = dict(probe.measures)
        probe = Probe(probe.menu, probe.utility, measures)
        before = simulate(model, prior, probe, 30, seed=4)
        measures["coin"] = measures["mostly_good"]
        with pytest.raises(TypeError):
            probe.measures["coin"] = measures["mostly_good"]
        assert simulate(model, prior, probe, 30, seed=4) == before
        # the records refuse assignment too, new names included
        records = (
            (probe, "measures"), (probe, "acts"), (model, "truth"), (before, "weights"),
            (before, "extra"),
        )
        for record, field in records:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            del before.weights


def _learning_fixture(truth: str):
    doc = parse_problem(fixture_text("learning.dp"))
    measures = {name: m for name, (m, _) in doc.hypotheses.items()}
    model = ObservationModel(tuple(doc.states), measures, truth)
    probe = Probe(doc.menus["probe"], doc.utility, measures)
    return model, probe, {name: w for name, (_, w) in doc.hypotheses.items()}


def _mirror_case():
    """Two acts whose expected regrets swap between two hypotheses: equal
    weights tie them exactly.  The prior weights are equal, and so are the
    exact weights after balanced evidence (as many x draws as y), where the
    float weights may still order the acts: on seed 0 the draws are y, y,
    x, x, and round 4's floats are 1.0 and 0.9999999999999996."""
    u = UtilitySpec({"hi": 1, "lo": 0})
    up = Act("up", {"x": Lottery({"hi": 1}), "y": Lottery({"lo": 1})})
    down = Act("down", {"x": Lottery({"lo": 1}), "y": Lottery({"hi": 1})})
    dists = {"h1": {"x": F(3, 4), "y": F(1, 4)}, "h2": {"x": F(1, 4), "y": F(3, 4)}}
    model = _model(("x", "y"), dists, "h1")
    probe = Probe(Menu([up, down]), u, model.likelihoods)
    return model, probe, {"h1": 1, "h2": 1}


def _sure(prize: str) -> Lottery:
    return Lottery({prize: 1})


def _ladder_case():
    """Two mirrored hypotheses under a fair truth, whose weight ratio walks
    by factors of 2, and 21 acts whose rankings cross between every two
    adjacent ratios from 2**-10 to 2**10: the ranking changes in most rounds.

    The truth never draws `u` or `v`; their likelihood ratio of 1024 only
    widens the range of ratios over which expected regrets cross.  Act `b`
    loses 1 on `u` and each rung `aNN` loses 3 * 2**(m - 1) on `v`, so `b`
    and rung m swap when the ratio passes 1.5 * 2**m.
    """
    c = F(1, 4100)
    dists = {
        "fair": {"x": F(1, 2), "y": F(1, 2), "u": F(0), "v": F(0)},
        "h1": {"x": F(1, 2), "y": F(1, 4), "u": 1024 * c, "v": c},
        "h2": {"x": F(1, 4), "y": F(1, 2), "u": c, "v": 1024 * c},
    }
    rungs = range(20)  # m = rung - 10
    u = UtilitySpec({"zero": 0, "loss": -1, **{f"r{k}": -3 * F(2) ** (k - 11) for k in rungs}})
    flat = {o: _sure("zero") for o in ("x", "y", "u", "v")}
    acts = [Act("b", {**flat, "u": _sure("loss")})]
    acts += [Act(f"a{k:02d}", {**flat, "v": _sure(f"r{k}")}) for k in rungs]
    model = _model(("x", "y", "u", "v"), dists, "fair")
    probe = Probe(Menu(acts), u, model.likelihoods)
    return model, probe, {"fair": 0, "h1": 1, "h2": 1}


def _all_dead_case():
    """A truth of prior weight 0 beside two hypotheses that each rule out
    one of its outcomes: once both outcomes are drawn, every log weight is
    -inf, and every weight must read 0.0."""
    u = UtilitySpec({"hi": 1, "lo": 0})
    up = Act("up", {"x": _sure("hi"), "y": _sure("lo")})
    down = Act("down", {"x": _sure("lo"), "y": _sure("hi")})
    dists = {
        "fair": {"x": F(1, 2), "y": F(1, 2)},
        "only_x": {"x": F(1), "y": F(0)},
        "only_y": {"x": F(0), "y": F(1)},
    }
    model = _model(("x", "y"), dists, "fair")
    probe = Probe(Menu([up, down]), u, model.likelihoods)
    return model, probe, {"fair": 0, "only_x": 1, "only_y": F(1, 2)}


def _one_hypothesis_case():
    """A single hypothesis: one weight column, and no maximum across columns."""
    u = UtilitySpec({"hi": 1, "lo": 0})
    up = Act("up", {"x": _sure("hi"), "y": _sure("lo")})
    down = Act("down", {"x": _sure("lo"), "y": _sure("hi")})
    model = _model(("x", "y"), {"h": {"x": F(2, 3), "y": F(1, 3)}}, "h")
    return model, Probe(Menu([up, down]), u, model.likelihoods), {"h": 1}


def _random_case(rng: random.Random):
    """2-4 hypotheses over 2-3 outcomes, some probabilities and prior weights
    zero, and a probe of 2-5 acts, some identical up to their names."""
    outcomes = ("o1", "o2", "o3")[: rng.choice((2, 3, 3))]
    hypotheses = [f"h{i}" for i in range(rng.choice((2, 3, 4)))]
    dists = {}
    for h in hypotheses:
        cuts = sorted(rng.randint(0, 8) for _ in range(len(outcomes) - 1))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, 8])]
        dists[h] = {o: F(p, 8) for o, p in zip(outcomes, parts)}
    truth = rng.choice(hypotheses)
    prior = {h: rng.choice((0, F(1, 3), F(1, 2), 1)) for h in hypotheses}
    prior[rng.choice(hypotheses)] = 1
    u = UtilitySpec({f"p{k}": rng.randint(-3, 3) for k in range(4)})
    acts = []
    for k in range(rng.choice((2, 3, 4))):
        acts.append({o: f"p{rng.randrange(4)}" for o in outcomes})
        if rng.random() < 0.4:
            acts.append(dict(acts[-1]))  # an identical act: an exact tie
    menu = Menu(
        [Act(f"a{k}", {o: Lottery({p: 1}) for o, p in act.items()}) for k, act in enumerate(acts)]
    )
    model = _model(outcomes, dists, truth)
    return model, Probe(menu, u, model.likelihoods), prior


def _corpus():
    cases = [_learning_fixture("mostly_good"), _learning_fixture("coin"), _mirror_case()]
    rng = random.Random(909)
    cases += [_random_case(rng) for _ in range(24)]
    cases += [_ladder_case(), _all_dead_case(), _one_hypothesis_case()]
    return cases


class TestAgainstReference:
    """The simulator against the plain per-round loop in `simulate_reference`."""

    CORPUS = _corpus()

    def test_corpus_covers_the_hard_cases(self):
        models = [model for model, _, _ in self.CORPUS]
        probes = [probe for _, probe, _ in self.CORPUS]
        assert any(len(m.hypotheses) >= 3 and len(m.outcomes) == 3 for m in models)
        assert any(0 in d.numerators for m in models for d in m.likelihoods.values())
        assert any(0 in prior.values() for _, _, prior in self.CORPUS)
        assert any(len(p.menu) >= 3 for p in probes)
        assert any(
            len({tuple(a.utility_profile(p.utility).values()) for a in p.menu}) < len(p.menu)
            for p in probes
        )
        assert any(len(m.hypotheses) == 1 for m in models)
        assert any(len(p.menu) >= 20 for p in probes)
        runs = [
            reference.simulate(model, prior, probe, 120, seed)
            for model, probe, prior in self.CORPUS
            for seed in range(3)
        ]
        # the ranking changes in at least a quarter of the rounds of some run
        assert any(
            sum(a.mwer_groups != b.mwer_groups for a, b in zip(rows, rows[1:])) >= 30
            for rows in runs
        )
        # every hypothesis is dead (log weight -inf) in some round
        assert any(not any(row.weights.values()) for rows in runs for row in rows)

    @pytest.mark.parametrize("case", range(len(CORPUS)))
    def test_rows_are_identical(self, case):
        model, probe, prior = self.CORPUS[case]
        for seed in range(3):
            got = simulate(model, prior, probe, 120, seed)
            want = reference.simulate(model, prior, probe, 120, seed)
            assert (got.weights, got.rankings, got.outcomes) == reference.columns(want, model.hypotheses)
            assert got.truth_seu_groups == reference._truth_seu_groups(probe, model.truth)

    @pytest.mark.parametrize("case", range(len(CORPUS)))
    def test_csv_is_identical(self, case):
        # "%d%%," checks that a `%` in the prefix is copied as it is
        model, probe, prior = self.CORPUS[case]
        for seed in range(3):
            got = simulate(model, prior, probe, 120, seed)
            rows = reference.simulate(model, prior, probe, 120, seed)
            for prefix in ("", "7,", "%d%%,"):
                written = f"{got.csv_header()}\n" + got.csv_text(prefix)
                assert written == reference.csv(rows, model.hypotheses, prefix)

    @pytest.mark.parametrize("case", range(len(CORPUS)))
    def test_groups_only_when_the_ranking_changes(self, case, monkeypatch):
        model, probe, prior = self.CORPUS[case]
        simulate(model, prior, probe, 2, 0)  # a fresh probe groups its seu scores too
        calls = []
        original = learning.group_ties

        def counting_group_ties(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(learning, "group_ties", counting_group_ties)
        for seed in range(3):
            calls.clear()
            rankings = simulate(model, prior, probe, 120, seed).rankings
            assert len(calls) == 1 + sum(a != b for a, b in zip(rankings, rankings[1:]))

    @pytest.mark.parametrize("case", range(len(CORPUS)))
    def test_comparison_summaries_are_identical(self, case):
        model, probe, prior = self.CORPUS[case]
        for threshold in (F(1, 10), F(1, 3), F(1, 2), F(9, 10)):
            got = compare_updaters(model, prior, probe, 60, range(4), threshold)
            want = reference.compare_updaters(model, prior, probe, 60, range(4), threshold)
            columns = (got.agree_mwer_mer, got.agree_mwer_es, got.agree_mer_es, got.agree_all)
            assert list(zip(range(61), *columns)) == want
            assert got.to_csv() == reference.comparison_csv(want)  # byte for byte


class TestCupcakeWeight:
    def test_no_information_keeps_weight_one(self):
        assert cupcake_weight(0) == 1

    def test_zero_from_991(self):
        assert cupcake_weight(991) == 0
        assert cupcake_weight(1000) == 0

    def test_exact_value_at_100(self):
        expected = F(comb(900, 10) * 1000, comb(1000, 10) * 900)
        assert cupcake_weight(100) == expected
        assert cupcake_weight(100) < F(999 - 100, 999) ** 9

    def test_nonincreasing(self):
        values = [cupcake_weight(n) for n in range(0, 992, 7)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bound_spot_checks(self):
        for n in (1, 50, 500, 990):
            assert cupcake_weight(n) < F(999 - n, 999) ** 9

    def test_domain(self):
        with pytest.raises(ValueError):
            cupcake_weight(-1)
        with pytest.raises(ValueError):
            cupcake_weight(1001)


class TestThresholdUpdating:
    def setup_method(self):
        self.states = ("one_good", "one_bad", "ten_good", "ten_bad")
        p_ten = F(comb(900, 10), comb(1000, 10))
        self.one = Measure(
            {"one_good": F(9, 10), "one_bad": F(1, 10), "ten_good": 0, "ten_bad": 0}
        )
        self.ten = Measure(
            {"one_good": 0, "one_bad": 0, "ten_good": p_ten, "ten_bad": 1 - p_ten}
        )
        self.event = Event(["one_good", "ten_good"])

    def test_low_threshold_is_pure_conditioning(self):
        survivors = es_update([self.one, self.ten], self.event, F(1, 100))
        assert survivors == (
            self.one.condition(self.event),
            self.ten.condition(self.event),
        )

    def test_half_threshold_eliminates_ten_broken(self):
        # exact rational comparison: the relative likelihood of the
        # ten-broken hypothesis is below one half
        relative = F(comb(900, 10) * 10, 9 * comb(1000, 10))
        assert relative < F(1, 2)
        survivors = es_update([self.one, self.ten], self.event, F(1, 2))
        assert survivors == (self.one.condition(self.event),)

    def test_threshold_near_one_keeps_only_maximizers(self):
        survivors = es_update([self.one, self.ten], self.event, F(99, 100))
        assert survivors == (self.one.condition(self.event),)

    def test_elimination_on_equality(self):
        # relative likelihood exactly at the threshold is eliminated
        a = Measure({"x": F(1, 2), "y": F(1, 2)})
        b = Measure({"x": F(1, 4), "y": F(3, 4)})
        survivors = es_update([a, b], Event(["x"]), F(1, 2))
        assert survivors == (a.condition(Event(["x"])),)

    def test_all_eliminated_is_defensive(self):
        a = Measure({"x": 1, "y": 0})
        with pytest.raises(AllEliminated):
            es_update([a], Event(["y"]), F(1, 2))

    def test_threshold_domain(self):
        a = Measure({"x": 1, "y": 0})
        for bad in (0, 1, F(3, 2)):
            with pytest.raises(ValueError):
                es_update([a], Event(["x"]), bad)


class TestCompareUpdaters:
    def test_needs_a_seed(self):
        model, probe, prior = binary_ingredients()
        with pytest.raises(ValueError, match="seed"):
            compare_updaters(model, prior, probe, 5, [])

    def test_identical_hypotheses_always_agree(self):
        u = UtilitySpec({"hi": 1, "lo": -1})
        act = Act("a", {"good": Lottery({"hi": 1}), "bad": Lottery({"lo": 1})})
        other = Act("b", {"good": Lottery({"lo": 1}), "bad": Lottery({"hi": 1})})
        coin = Measure({"good": F(1, 2), "bad": F(1, 2)})
        measures = {"h1": coin, "h2": coin}
        model = ObservationModel(("good", "bad"), measures, "h1")
        probe = Probe(Menu([act, other]), u, measures)
        summary = compare_updaters(model, {"h1": 1, "h2": 1}, probe, 20, range(5), F(1, 2))
        assert summary.agree_all == (1.0,) * 21

    def test_round_zero_always_agrees(self):
        model, probe, prior = binary_ingredients()
        summary = compare_updaters(model, prior, probe, 5, range(10), F(1, 2))
        assert summary.agree_all[0] == 1.0

    def test_asymptotic_agreement_when_alternative_dies(self):
        # the alternative assigns probability zero to an outcome the truth
        # produces, so every updating style eventually discards it
        u = UtilitySpec({"double": 2, "refund": -2, "premium": F(9, 10)})
        risky = Act("risky", {"good": Lottery({"double": 1}), "bad": Lottery({"refund": 1})})
        steady = Act("steady", {"good": Lottery({"premium": 1}), "bad": Lottery({"premium": 1})})
        measures = {
            "mostly_good": Measure({"good": F(9, 10), "bad": F(1, 10)}),
            "all_good": Measure({"good": 1, "bad": 0}),
        }
        model = ObservationModel(("good", "bad"), measures, "mostly_good")
        probe = Probe(Menu([risky, steady]), u, measures)
        summary = compare_updaters(
            model, {"mostly_good": 1, "all_good": 1}, probe, 200, range(50), F(1, 2)
        )
        assert summary.agree_all[-1] == 1.0

    def test_csv_header(self):
        model, probe, prior = binary_ingredients()
        summary = compare_updaters(model, prior, probe, 2, range(2), F(1, 2))
        lines = summary.to_csv().strip().split("\n")
        assert lines[0] == "round,agree_mwer_mer,agree_mwer_es,agree_mer_es,agree_all"
        assert len(lines) == 4
