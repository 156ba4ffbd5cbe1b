"""An independent re-derivation of the five decision rules on plain dicts.

Lotteries are dicts prize -> probability, acts dicts state -> lottery,
measures dicts state -> probability and a weighted belief a list of
(measure, weight) pairs.  Every score is computed here straight from the
definitions and shares no code with the library, so comparing `rank` with
`scores`, or `PreferenceOracle.rate` and `prefers` with `profile_scores`,
compares two implementations of each rule.
"""

from __future__ import annotations

from fractions import Fraction

LOWER_IS_BETTER = {"seu": False, "mmeu": False, "regret": True, "mer": True, "mwer": True}


def expected_utility(lottery: dict, utility: dict) -> Fraction:
    return sum((p * utility[prize] for prize, p in lottery.items()), Fraction(0))


def expectation(measure: dict, values: dict) -> Fraction:
    return sum((measure[s] * values[s] for s in values), Fraction(0))


def scores(rule: str, acts: dict, utility: dict, belief) -> dict:
    """Score of every act (name -> state -> lottery) under the rule.

    The belief is a measure for seu, a list of measures for mmeu and mer, a
    list of (measure, weight) pairs for mwer and None for regret.
    """
    profiles = {
        name: {s: expected_utility(lottery, utility) for s, lottery in act.items()}
        for name, act in acts.items()
    }
    return profile_scores(rule, profiles, belief)


def profile_scores(rule: str, profiles: dict, belief) -> dict:
    """Score of every utility profile (name -> state -> utility) under the
    rule, against the menu of all of them; the belief is as for `scores`."""
    states = list(next(iter(profiles.values())))
    best = {s: max(profile[s] for profile in profiles.values()) for s in states}
    out = {}
    for name, profile in profiles.items():
        regrets = {s: best[s] - profile[s] for s in states}
        if rule == "seu":
            out[name] = expectation(belief, profile)
        elif rule == "mmeu":
            out[name] = min(expectation(m, profile) for m in belief)
        elif rule == "regret":
            out[name] = max(regrets.values())
        elif rule == "mer":
            out[name] = max(expectation(m, regrets) for m in belief)
        elif rule == "mwer":
            out[name] = max(w * expectation(m, regrets) for m, w in belief)
        else:
            raise ValueError(f"unknown rule {rule!r}")
    return out


def groups(scores: dict, lower_is_better: bool) -> tuple:
    """Names grouped by exactly equal score, best group first, names sorted."""
    levels = sorted(set(scores.values()), reverse=not lower_is_better)
    return tuple(
        tuple(sorted(name for name, score in scores.items() if score == level))
        for level in levels
    )
