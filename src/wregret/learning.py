"""Repeated observations: weight dynamics and updating-rule comparisons.

A stable generating process is observed round by round; each hypothesis's
weight is multiplied by the likelihood of the drawn outcome and the vector
is renormalized to maximum one.  For i.i.d. models this per-round update
coincides with a single update on the full history event, so the worst-case
weighted regret ranking of a probe menu converges to the expected-utility
ranking under the true hypothesis as its weight approaches one.  Likelihood
products are accumulated in log space (500-round products underflow);
everything outside `simulate` stays exact.  A probe's float tables (expected
regret per act, expected-utility groups) are built from the exact scores
once per `Probe` and hypothesis.  A run draws all its outcomes, then builds
its log-weight, weight and score columns in whole-round passes with the float
operations, in order, of a round-by-round loop; only the ranking check runs
per round, and it regroups the acts only when a round's scores break the
previous round's ranking.  A `Trajectory` keeps those columns (one weight
column per hypothesis, a ranking column and an outcome column) and its CSV
is formatted from them, one `%` per trajectory.  `compare_updaters` counts its
agreements in whole-column passes too, and a `ComparisonSummary` keeps them
as one share column per pair of updating styles, written the same way.  The
model (each hypothesis a `Measure` over the outcomes, so its likelihoods are
exact), trajectories and summaries are immutable records (`records.record`);
a `Probe` is a `records.Frozen` keeping the tables it builds lazily.

`es_update` implements the threshold alternative: condition every measure,
then eliminate those whose relative likelihood does not exceed a cutoff.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, groupby, repeat, starmap
from operator import add, and_, eq, itemgetter, mul, sub, truediv
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .decisions import Menu, PreferenceOracle, UtilitySpec, group_ties
from .errors import AllEliminated
from .measures import EventLike, Measure, as_event
from .records import Frozen, record

RNG_ALGORITHM = "mt19937"  # CPython's random.Random core generator
_NEG_INF = float("-inf")


@record
class ObservationModel:
    """Per-hypothesis i.i.d. outcome distributions, each a `Measure` over
    exactly the outcomes; `outcomes` is the order a draw walks them in.
    `likelihoods`, a `Mapping` field, is a read-only copy of the mapping
    given, as `records.record` holds every such field, so the caller's may
    change and the model's cannot."""

    outcomes: tuple[str, ...]
    likelihoods: Mapping[str, Measure]
    truth: str

    def _check(self) -> None:
        outcomes = self.outcomes
        if self.truth not in self.likelihoods:
            raise ValueError(f"truth {self.truth!r} is not a hypothesis")
        alphabet = tuple(sorted(set(outcomes)))
        if len(alphabet) != len(outcomes):
            repeated = next(o for o in outcomes if outcomes.count(o) > 1)
            raise ValueError(f"outcome {repeated!r} is listed twice")
        for hyp, measure in self.likelihoods.items():
            if not isinstance(measure, Measure) or measure.state_space != alphabet:
                raise ValueError(f"hypothesis {hyp!r} is not a Measure over the outcome alphabet")

    @property
    def hypotheses(self) -> tuple[str, ...]:
        return tuple(sorted(self.likelihoods))


Groups = tuple[tuple[str, ...], ...]


class Probe(Frozen):
    """A decision problem re-ranked every round under the evolving weights.

    Its float tables are built from the exact scores of one hypothesis at a
    time, on first use, and kept for every later run; `measures` is copied
    read-only, so the tables cannot go stale.  Equal arguments build equal,
    unhashable probes.
    """

    # `measures` maps each hypothesis to its state-level measure, `acts` is
    # the act order of every float table, and the tables map a hypothesis to
    # its acts' float expected regrets (`regret_rows`) and to the acts grouped
    # by float expected utility (`seu_groups`)
    __slots__ = ("menu", "utility", "measures", "acts", "_expected_regret", "_seu_groups")

    def __init__(self, menu: Menu, utility: UtilitySpec, measures: Mapping[str, Measure]):
        acts = tuple(sorted(act.name for act in menu))
        for slot, value in zip(Probe.__slots__, (menu, utility, MappingProxyType(dict(measures)), acts, {}, {})):
            object.__setattr__(self, slot, value)

    def _args(self) -> tuple:
        return self.menu, self.utility, dict(self.measures)

    def _measure(self, hypothesis: str) -> Measure:
        measure = self.measures.get(hypothesis)
        if measure is None:
            raise ValueError(f"the probe has no measure for hypothesis {hypothesis!r}")
        return measure

    def _exact_scores(self, rule: str, belief) -> dict[str, Fraction]:
        oracle = PreferenceOracle(rule, belief, self.utility, self.menu.state_space)
        return oracle.scores(oracle.alternatives(self.menu))

    def regret_rows(self, hypotheses: Sequence[str]) -> tuple[tuple[float, ...], ...]:
        """Each act's float expected regrets under `hypotheses`, in `acts` order."""
        columns = self._expected_regret
        for h in hypotheses:
            if h not in columns:
                # mer under a single measure is the expected regret under it
                exact = self._exact_scores("mer", (self._measure(h),))
                columns[h] = tuple(float(exact[name]) for name in self.acts)
        return tuple(zip(*[columns[h] for h in hypotheses]))

    def seu_groups(self, hypothesis: str) -> Groups:
        """The acts grouped by float expected utility under `hypothesis`, best first."""
        groups = self._seu_groups.get(hypothesis)
        if groups is None:
            exact = self._exact_scores("seu", self._measure(hypothesis))
            scores = {name: float(s) for name, s in exact.items()}
            groups = self._seu_groups[hypothesis] = group_ties(scores, lower_is_better=False)
        return groups


@record
class Trajectory:
    """One seed's run, kept in columns of `rounds + 1` entries, round 0 the
    prior: one weight column per hypothesis, in `hypotheses` order, a
    ranking column and an outcome column.  Its CSV is `csv_header`, then
    `csv_text`, every row formatted by one `%` over the flattened columns."""

    seed: int
    rounds: int
    rng_algorithm: str
    truth: str
    hypotheses: tuple[str, ...]
    truth_seu_groups: Groups
    weights: tuple[tuple[float, ...], ...]  # per hypothesis: its weight in each round
    rankings: tuple[tuple[Groups, bool], ...]  # per round: mwer groups, matches_truth_seu
    outcomes: tuple[str | None, ...]  # per round: the observation that produced it

    def _check(self) -> None:
        length = self.rounds + 1
        if len(self.weights) != len(self.hypotheses) or any(len(c) != length for c in self.weights):
            raise ValueError(f"weights must be one column of {length} per hypothesis")
        if len(self.rankings) != length or len(self.outcomes) != length:
            raise ValueError(f"rankings and outcomes must have {length} entries, one per round")

    def final_weights(self) -> dict[str, float]:
        return {h: column[-1] for h, column in zip(self.hypotheses, self.weights)}

    def csv_header(self) -> str:
        weights = [f"weight_{h}" for h in self.hypotheses]
        return ",".join(["round", *weights, "mwer_ranking", "matches_truth_seu"])

    def csv_text(self, prefix: str = "") -> str:
        """Every row as a CSV line ending in a newline, each led by `prefix`."""
        # a ranking's text and flag, joined once for each run of rounds that keep it
        texts = chain.from_iterable(
            repeat(f"{'>'.join(map('|'.join, groups))},{matches:d}", len(list(run)))
            for (groups, matches), run in groupby(self.rankings)
        )
        line = prefix.replace("%", "%%") + "%d," + "%.12g," * len(self.weights) + "%s\n"
        columns = zip(range(self.rounds + 1), *self.weights, texts)
        return (line * (self.rounds + 1)) % tuple(chain.from_iterable(columns))


def _log(p: float) -> float:
    return math.log(p) if p > 0 else _NEG_INF


def _roundwise_max(columns: Sequence[Iterable[float]]) -> Iterable[float]:
    """Each round's maximum over the columns, taken in column order: on a tie
    the first, as `max` keeps it (no column holds a NaN)."""
    top = columns[0]
    for column in columns[1:]:
        top = [x if x >= y else y for x, y in zip(top, column)]
    return top


def simulate(
    model: ObservationModel,
    prior: Mapping[str, Fraction | float | int],
    probe: Probe,
    rounds: int,
    seed: int = 0,
) -> Trajectory:
    """Draw `rounds` outcomes from the truth and track weights and rankings.

    Row 0 records the prior state before any observation.  Weights follow the
    multiplicative likelihood update with per-round renormalization, which
    for an i.i.d. model equals a single update on the whole history.  The
    run is built by columns: all draws, then each hypothesis's log weights
    and weights (0.0 in a round where every hypothesis is dead), then each
    act's scores, in the float operations and order of a per-round loop.
    A round whose scores keep the previous round's ranking (equal within
    each group, strictly increasing from group to group) keeps it, checked
    in one comparison per adjacent pair of acts: `steps` pairs each act with
    the next one in that ranking, flagged when the two were tied, and
    `group_ties` reads nothing of the scores but their order and ties, so
    scores that keep every step give the same groups.  `group_ties` runs
    only when the ranking changes.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    hypotheses = model.hypotheses
    if set(prior) != set(hypotheses):
        raise ValueError("prior weights must cover exactly the model's hypotheses")
    given = [float(w) for w in prior.values()]
    if min(given) < 0 or max(given) != 1.0:
        raise ValueError("prior weights must be normalized: in [0, 1], with maximum weight 1")
    acts = probe.acts
    regret_rows = probe.regret_rows(hypotheses)
    truth_groups = probe.seu_groups(model.truth)
    truth = dict(model.likelihoods[model.truth].items())
    # a draw r falls on the first outcome whose cumulative probability exceeds
    # it; float rounding can leave r above the sum, and then it falls on the
    # last outcome the truth can produce
    thresholds = tuple(accumulate(float(truth[o]) for o in model.outcomes))
    landing = (*model.outcomes, [o for o in model.outcomes if truth[o] > 0][-1])
    draws = starmap(random.Random(seed).random, repeat((), rounds))
    drawn = list(map(landing.__getitem__, map(bisect_right, repeat(thresholds), draws)))
    # one log-weight column per hypothesis, summed left to right as the rounds go
    log_weights = []
    for h in hypotheses:
        log_of = {o: _log(float(p)) for o, p in model.likelihoods[h].items()}
        increments = map(log_of.__getitem__, drawn)
        log_weights.append(list(accumulate(increments, add, initial=_log(float(prior[h])))))
    tops = list(_roundwise_max(log_weights))
    if tops[-1] == _NEG_INF:  # every weight is dead from some round on: exp(-inf - 0.0) is 0.0
        tops = [top if top != _NEG_INF else 0.0 for top in tops]
    weights = tuple(tuple(map(math.exp, map(sub, column, tops))) for column in log_weights)
    # each act's worst weighted expected regret, products and maxima in hypothesis order
    scores = [
        _roundwise_max([map(regret.__mul__, column) for regret, column in zip(regrets, weights)])
        for regrets in regret_rows
    ]
    position = {name: i for i, name in enumerate(acts)}
    steps = ((0, 0, False),)  # no scores keep it (no score is below itself), so round 0 groups
    ranking_column = []
    for row in zip(*scores):
        for i, j, tied in steps:
            if (row[i] != row[j]) if tied else (row[i] >= row[j]):
                break
        else:
            ranking_column.append(ranking)
            continue
        groups = group_ties(dict(zip(acts, row)), lower_is_better=True)
        ranking = (groups, groups == truth_groups)
        order = [position[name] for group in groups for name in group]
        steps = tuple((i, j, row[i] == row[j]) for i, j in zip(order, order[1:]))
        ranking_column.append(ranking)
    return Trajectory(
        seed=seed,
        rounds=rounds,
        rng_algorithm=RNG_ALGORITHM,
        truth=model.truth,
        hypotheses=hypotheses,
        truth_seu_groups=truth_groups,
        weights=weights,
        rankings=tuple(ranking_column),
        outcomes=(None, *drawn),
    )


def es_update(
    measures: Iterable[Measure], event: EventLike, threshold: Fraction | float
) -> tuple[Measure, ...]:
    """Threshold updating: condition, then drop relatively unlikely measures.

    Each measure's relative likelihood is Pr(event) divided by the maximum
    over the set; measures whose relative likelihood does not exceed the
    threshold (elimination on equality) are removed, the rest conditioned.
    The output is unweighted and deduplicated, and never empty: a most
    likely measure has relative likelihood 1, above any threshold.
    """
    threshold = Fraction(threshold)
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie strictly between 0 and 1")
    event = as_event(event)
    measures = tuple(measures)
    if not measures:
        raise AllEliminated("no measures to update")
    likelihoods = [m.event_prob(event) for m in measures]
    top = max(likelihoods)
    if top == 0:
        raise AllEliminated("every measure gives the event probability zero")
    survivors: list[Measure] = []
    for measure, likelihood in zip(measures, likelihoods):
        if likelihood / top > threshold:
            conditioned = measure.condition(event)
            if conditioned not in survivors:
                survivors.append(conditioned)
    return tuple(survivors)


@record
class ComparisonSummary:
    """The agreement shares of `compare_updaters`, one column of `rounds + 1`
    per pair of updating styles, named like its CSV columns."""

    rounds: int
    seeds: tuple[int, ...]
    threshold: Fraction
    agree_mwer_mer: tuple[float, ...]
    agree_mwer_es: tuple[float, ...]
    agree_mer_es: tuple[float, ...]
    agree_all: tuple[float, ...]

    def to_csv(self) -> str:
        # the four share columns are the fields after rounds, seeds and threshold
        header = ",".join(("round", *self._fields[3:]))
        rows = chain.from_iterable(zip(range(self.rounds + 1), *self[3:]))
        return header + "\n" + ("%d,%.6f,%.6f,%.6f,%.6f\n" * (self.rounds + 1)) % tuple(rows)


def compare_updaters(
    model: ObservationModel,
    prior: Mapping[str, Fraction | float | int],
    probe: Probe,
    rounds: int,
    seeds: Sequence[int],
    threshold: Fraction | float = Fraction(1, 2),
) -> ComparisonSummary:
    """Per-round ranking agreement between three updating styles.

    The three probe rankings compared each round: weighted regret under
    likelihood updating, unweighted worst-case expected regret keeping every
    hypothesis with positive history likelihood, and the same after
    threshold elimination (relative likelihood must exceed the threshold).
    Agreement is exact equality of the ranked groups, averaged over seeds.
    """
    threshold = Fraction(threshold)
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie strictly between 0 and 1")
    if not seeds:
        raise ValueError("at least one seed is needed")
    hypotheses = model.hypotheses
    regret_rows = probe.regret_rows(hypotheses)
    acts = probe.acts
    thr = float(threshold)
    # mer over the kept hypotheses is mwer with 0/1 weights, since a dropped
    # one's zero term never exceeds a nonnegative expected regret; both
    # rankings depend only on which hypotheses are kept, so each kept set is
    # ranked once, keyed by its kept flags, which are its 0/1 weights
    kept_groups: dict[tuple[bool, ...], Groups] = {}
    counts = [[0] * (rounds + 1) for _ in range(4)]  # per-round columns: mwer = mer, mwer = es, mer = es, all
    for seed in seeds:
        trajectory = simulate(model, prior, probe, rounds, seed)
        mwer = list(map(itemgetter(0), trajectory.rankings))
        kept = []  # per updater (w > 0, then w > thr): each round's groups of the hypotheses it keeps
        for cut in (0.0, thr):
            keys = list(zip(*[map(cut.__lt__, column) for column in trajectory.weights]))
            for key in set(keys).difference(kept_groups):
                scores = [max(map(mul, key, regrets)) for regrets in regret_rows]
                kept_groups[key] = group_ties(dict(zip(acts, scores)), lower_is_better=True)
            kept.append(list(map(kept_groups.__getitem__, keys)))
        mer, es = kept
        a, b = list(map(eq, mwer, mer)), list(map(eq, mwer, es))
        # equality is transitive, so mwer = mer and mwer = es make all three agree
        agreements = (a, b, map(eq, mer, es), map(and_, a, b))
        counts = [list(map(add, count, agreed)) for count, agreed in zip(counts, agreements)]
    shares = [tuple(map(truediv, count, repeat(len(seeds)))) for count in counts]
    return ComparisonSummary(rounds, tuple(seeds), threshold, *shares)
