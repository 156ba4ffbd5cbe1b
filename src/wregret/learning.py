"""Repeated observations: weight dynamics and updating-rule comparisons.

A stable generating process is observed round by round; each hypothesis's
weight is multiplied by the likelihood of the drawn outcome and the vector
is renormalized to maximum one.  For i.i.d. models this per-round update
coincides with a single update on the full history event, so the worst-case
weighted regret ranking of a probe menu converges to the expected-utility
ranking under the true hypothesis as its weight approaches one.  Likelihood
products are accumulated in log space (500-round products underflow);
everything outside the simulation loop stays exact.

`es_update` implements the threshold alternative: condition every measure,
then eliminate those whose relative likelihood does not exceed a cutoff.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence

from .decisions import Menu, PreferenceOracle, UtilitySpec, group_ties
from .errors import AllEliminated
from .measures import EventLike, Measure, as_event
from .rational import format_rational

RNG_ALGORITHM = "mt19937"  # CPython's random.Random core generator


@dataclass(frozen=True)
class ObservationModel:
    """Per-hypothesis i.i.d. outcome distributions over a shared alphabet."""

    outcomes: tuple[str, ...]
    likelihoods: Mapping[str, Mapping[str, Fraction]]
    truth: str

    def __post_init__(self) -> None:
        if self.truth not in self.likelihoods:
            raise ValueError(f"truth {self.truth!r} is not a hypothesis")
        alphabet = set(self.outcomes)
        for hyp, dist in self.likelihoods.items():
            if set(dist) != alphabet:
                raise ValueError(f"hypothesis {hyp!r} uses a different outcome alphabet")
            total = sum((Fraction(p) for p in dist.values()), Fraction(0))
            if total != 1:
                raise ValueError(
                    f"outcome distribution of {hyp!r} sums to {format_rational(total)}"
                )

    @property
    def hypotheses(self) -> tuple[str, ...]:
        return tuple(sorted(self.likelihoods))


@dataclass(frozen=True)
class Probe:
    """A decision problem re-ranked every round under the evolving weights."""

    menu: Menu
    utility: UtilitySpec
    measures: Mapping[str, Measure]  # hypothesis -> state-level measure


@dataclass(frozen=True)
class TrajectoryRow:
    round: int
    weights: dict[str, float]
    mwer_groups: tuple[tuple[str, ...], ...]
    matches_truth_seu: bool
    outcome: str | None = None  # the observation that produced this row


@dataclass(frozen=True)
class Trajectory:
    seed: int
    rounds: int
    rng_algorithm: str
    truth: str
    hypotheses: tuple[str, ...]
    truth_seu_groups: tuple[tuple[str, ...], ...]
    rows: tuple[TrajectoryRow, ...]

    def final_weights(self) -> dict[str, float]:
        return dict(self.rows[-1].weights)

    def to_csv(self) -> str:
        header = ["round"] + [f"weight_{h}" for h in self.hypotheses] + [
            "mwer_ranking", "matches_truth_seu",
        ]
        lines = [",".join(header)]
        for row in self.rows:
            ranking = ">".join("|".join(group) for group in row.mwer_groups)
            cells = [str(row.round)]
            cells += [f"{row.weights[h]:.12g}" for h in self.hypotheses]
            cells += [ranking, str(int(row.matches_truth_seu))]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _exact_scores(rule: str, belief, probe: Probe) -> dict[str, Fraction]:
    """The rule's exact score of every probe act."""
    oracle = PreferenceOracle(rule, belief, probe.utility, probe.menu.state_space)
    return oracle.scores(oracle.alternatives(probe.menu))


class _ProbeTable:
    """Precomputed per-act expected regrets per hypothesis (floats for speed)."""

    def __init__(self, probe: Probe, hypotheses: Sequence[str]):
        self.hypotheses = tuple(hypotheses)
        # mer under a single measure is the expected regret under it
        by_hypothesis = {h: _exact_scores("mer", (probe.measures[h],), probe) for h in hypotheses}
        self.expected_regret = {
            act.name: {h: float(by_hypothesis[h][act.name]) for h in self.hypotheses}
            for act in probe.menu
        }

    def mwer_groups(self, weights: Mapping[str, float]) -> tuple[tuple[str, ...], ...]:
        scores = {
            name: max(weights[h] * er[h] for h in self.hypotheses)
            for name, er in self.expected_regret.items()
        }
        return group_ties(scores, lower_is_better=True)


def _truth_seu_groups(probe: Probe, truth: str) -> tuple[tuple[str, ...], ...]:
    scores = _exact_scores("seu", probe.measures[truth], probe)
    return group_ties({name: float(s) for name, s in scores.items()}, lower_is_better=False)


def _draw(rng: random.Random, model: ObservationModel) -> str:
    r = rng.random()
    acc = 0.0
    dist = model.likelihoods[model.truth]
    for outcome in model.outcomes:
        acc += float(dist[outcome])
        if r < acc:
            return outcome
    return model.outcomes[-1]


def _normalized_weights(log_weights: Mapping[str, float]) -> dict[str, float]:
    top = max(log_weights.values())
    return {
        h: (math.exp(lw - top) if lw != float("-inf") else 0.0)
        for h, lw in log_weights.items()
    }


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
    for an i.i.d. model equals a single update on the whole history.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    hypotheses = model.hypotheses
    if set(prior) != set(hypotheses):
        raise ValueError("prior weights must cover exactly the model's hypotheses")
    weights = [float(w) for w in prior.values()]
    if min(weights) < 0 or max(weights) != 1.0:
        raise ValueError("prior weights must be normalized: in [0, 1], with maximum weight 1")
    table = _ProbeTable(probe, hypotheses)
    truth_groups = _truth_seu_groups(probe, model.truth)
    rng = random.Random(seed)

    log_weights = {
        h: (math.log(float(prior[h])) if float(prior[h]) > 0 else float("-inf"))
        for h in hypotheses
    }
    rows = []

    def record(round_index: int, outcome: str | None) -> None:
        weights = _normalized_weights(log_weights)
        groups = table.mwer_groups(weights)
        rows.append(
            TrajectoryRow(round_index, weights, groups, groups == truth_groups, outcome)
        )

    record(0, None)
    for round_index in range(1, rounds + 1):
        outcome = _draw(rng, model)
        for h in hypotheses:
            p = float(model.likelihoods[h][outcome])
            log_weights[h] = log_weights[h] + math.log(p) if p > 0 else float("-inf")
        record(round_index, outcome)
    return Trajectory(
        seed=seed,
        rounds=rounds,
        rng_algorithm=RNG_ALGORITHM,
        truth=model.truth,
        hypotheses=hypotheses,
        truth_seu_groups=truth_groups,
        rows=tuple(rows),
    )


def cupcake_weight(n: int) -> Fraction:
    """Exact posterior weight of the ten-broken hypothesis after seeing the
    first n items good, in the thousand-item delivery problem.

    The one-broken hypothesis keeps weight one; the ten-broken hypothesis's
    relative likelihood is C(1000-n, 10)/C(1000, 10) * 1000/(1000-n), which
    hits zero once fewer than ten unseen items remain (n >= 991).
    """
    if not 0 <= n <= 1000:
        raise ValueError("n must lie in [0, 1000]")
    if n >= 991:
        return Fraction(0)
    return Fraction(comb(1000 - n, 10), comb(1000, 10)) * Fraction(1000, 1000 - n)


def es_update(
    measures: Iterable[Measure], event: EventLike, threshold: Fraction | float
) -> tuple[Measure, ...]:
    """Threshold updating: condition, then drop relatively unlikely measures.

    Each measure's relative likelihood is Pr(event) divided by the maximum
    over the set; measures whose relative likelihood does not exceed the
    threshold (elimination on equality) are removed, the rest conditioned.
    The output is unweighted and deduplicated.
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
    if not survivors:
        raise AllEliminated("threshold eliminated every measure")
    return tuple(survivors)


@dataclass(frozen=True)
class ComparisonRow:
    round: int
    agree_mwer_mer: float
    agree_mwer_es: float
    agree_mer_es: float
    agree_all: float


@dataclass(frozen=True)
class ComparisonSummary:
    rounds: int
    seeds: tuple[int, ...]
    threshold: Fraction
    rows: tuple[ComparisonRow, ...]

    def to_csv(self) -> str:
        lines = ["round,agree_mwer_mer,agree_mwer_es,agree_mer_es,agree_all"]
        for row in self.rows:
            lines.append(
                f"{row.round},{row.agree_mwer_mer:.6f},{row.agree_mwer_es:.6f},"
                f"{row.agree_mer_es:.6f},{row.agree_all:.6f}"
            )
        return "\n".join(lines) + "\n"


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
    table = _ProbeTable(probe, hypotheses)
    thr = float(threshold)
    counts = [[0, 0, 0, 0] for _ in range(rounds + 1)]
    for seed in seeds:
        trajectory = simulate(model, prior, probe, rounds, seed)
        for row in trajectory.rows:
            mwer_groups = row.mwer_groups
            # mer over the kept hypotheses is mwer with 0/1 weights, since a
            # dropped one's zero term never exceeds a nonnegative expected regret
            mer_groups = table.mwer_groups({h: float(w > 0) for h, w in row.weights.items()})
            es_groups = table.mwer_groups({h: float(w > thr) for h, w in row.weights.items()})
            a = mwer_groups == mer_groups
            b = mwer_groups == es_groups
            c = mer_groups == es_groups
            counts[row.round][0] += a
            counts[row.round][1] += b
            counts[row.round][2] += c
            counts[row.round][3] += a and b and c
    total = len(seeds)
    rows = tuple(
        ComparisonRow(
            r,
            counts[r][0] / total,
            counts[r][1] / total,
            counts[r][2] / total,
            counts[r][3] / total,
        )
        for r in range(rounds + 1)
    )
    return ComparisonSummary(rounds, tuple(seeds), threshold, rows)
