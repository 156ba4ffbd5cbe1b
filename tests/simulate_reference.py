"""The straightforward simulator loop, kept as the reference.

`wregret.learning.simulate` builds its float tables once per probe,
computes each seed's log weights, weights and scores a column at a time
and regroups the acts only when a round's scores break the previous
round's ranking.
This loop does the plain thing every round instead: a weight dict, a score
dict and a fresh `group_ties` call.  Both do the same float operations in
the same order, so they must agree exactly: every row's round, weights
(compared with `==`), ranked groups, match flag and outcome, and every
`compare_updaters` share.  It takes the exact scores from
`PreferenceOracle` and the grouping from `group_ties`, the library's one
scorer and one tie grouping, and shares nothing else with `learning`.
`columns` lays the rows out as a `Trajectory` keeps them, and `csv` and
`comparison_csv` write the rows and the shares the plain way too, one field
at a time, for the trajectory and summary CSVs to be compared with byte for
byte.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from wregret.decisions import PreferenceOracle, group_ties


class Row(NamedTuple):
    round: int
    weights: dict
    mwer_groups: tuple
    matches_truth_seu: bool
    outcome: str | None


def _exact_scores(rule, belief, probe) -> dict:
    oracle = PreferenceOracle(rule, belief, probe.utility, probe.menu.state_space)
    return oracle.scores(oracle.alternatives(probe.menu))


class _ProbeTable:
    def __init__(self, probe, hypotheses: Sequence[str]):
        self.hypotheses = tuple(hypotheses)
        by_hypothesis = {h: _exact_scores("mer", (probe.measures[h],), probe) for h in hypotheses}
        self.expected_regret = {
            act.name: {h: float(by_hypothesis[h][act.name]) for h in self.hypotheses}
            for act in probe.menu
        }

    def mwer_groups(self, weights: Mapping[str, float]):
        scores = {
            name: max(weights[h] * er[h] for h in self.hypotheses)
            for name, er in self.expected_regret.items()
        }
        return group_ties(scores, lower_is_better=True)


def _truth_seu_groups(probe, truth: str):
    scores = _exact_scores("seu", probe.measures[truth], probe)
    return group_ties({name: float(s) for name, s in scores.items()}, lower_is_better=False)


def _draw(rng: random.Random, model) -> str:
    r = rng.random()
    acc = 0.0
    dist = model.likelihoods[model.truth]
    for outcome in model.outcomes:
        acc += float(dist[outcome])
        if r < acc:
            return outcome
    # float rounding left r above the sum: the last outcome the truth can produce
    return [o for o in model.outcomes if dist[o] > 0][-1]


def _normalized_weights(log_weights: Mapping[str, float]) -> dict:
    top = max(log_weights.values())
    return {
        h: (math.exp(lw - top) if lw != float("-inf") else 0.0)
        for h, lw in log_weights.items()
    }


def simulate(model, prior, probe, rounds: int, seed: int = 0) -> list[Row]:
    hypotheses = model.hypotheses
    table = _ProbeTable(probe, hypotheses)
    truth_groups = _truth_seu_groups(probe, model.truth)
    rng = random.Random(seed)
    log_weights = {
        h: (math.log(float(prior[h])) if float(prior[h]) > 0 else float("-inf"))
        for h in hypotheses
    }
    rows = []

    def record(round_index: int, outcome) -> None:
        weights = _normalized_weights(log_weights)
        groups = table.mwer_groups(weights)
        rows.append(Row(round_index, weights, groups, groups == truth_groups, outcome))

    record(0, None)
    for round_index in range(1, rounds + 1):
        outcome = _draw(rng, model)
        for h in hypotheses:
            p = float(model.likelihoods[h][outcome])
            log_weights[h] = log_weights[h] + math.log(p) if p > 0 else float("-inf")
        record(round_index, outcome)
    return rows


def columns(rows: Sequence[Row], hypotheses: Sequence[str]) -> tuple:
    """(weights, rankings, outcomes) as `Trajectory` keeps them: one weight
    column per hypothesis, then (groups, match flag) and the outcome per round."""
    weights = tuple(tuple(row.weights[h] for row in rows) for h in hypotheses)
    rankings = tuple((row.mwer_groups, row.matches_truth_seu) for row in rows)
    return weights, rankings, tuple(row.outcome for row in rows)


def csv(rows: Sequence[Row], hypotheses: Sequence[str], prefix: str = "") -> str:
    """The header, then one line per row led by `prefix`: the round, each
    weight as `%.12g`, the groups joined by `|` within and `>` between, and
    the match flag as 0 or 1."""
    header = ["round", *(f"weight_{h}" for h in hypotheses), "mwer_ranking", "matches_truth_seu"]
    lines = [",".join(header) + "\n"]
    for row in rows:
        weights = [format(row.weights[h], ".12g") for h in hypotheses]
        ranking = ">".join("|".join(group) for group in row.mwer_groups)
        flag = "1" if row.matches_truth_seu else "0"
        lines.append(prefix + ",".join([str(row.round), *weights, ranking, flag]) + "\n")
    return "".join(lines)


def compare_updaters(model, prior, probe, rounds: int, seeds, threshold) -> list[tuple]:
    """(round, four agreement shares) per round, in the order of the CSV columns."""
    table = _ProbeTable(probe, model.hypotheses)
    thr = float(Fraction(threshold))
    counts = [[0, 0, 0, 0] for _ in range(rounds + 1)]
    for seed in seeds:
        for row in simulate(model, prior, probe, rounds, seed):
            mwer_groups = row.mwer_groups
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
    return [(r, *(n / total for n in counts[r])) for r in range(rounds + 1)]


def comparison_csv(shares: Sequence[tuple]) -> str:
    """The header, then one line per round of `compare_updaters` output: the
    round, then each share with six decimals."""
    lines = ["round,agree_mwer_mer,agree_mwer_es,agree_mer_es,agree_all\n"]
    for round_index, *agreements in shares:
        fields = [str(round_index), *(format(share, ".6f") for share in agreements)]
        lines.append(",".join(fields) + "\n")
    return "".join(lines)
