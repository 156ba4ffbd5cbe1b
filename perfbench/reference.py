"""Independent reference computations and output parsers for the checks.

The rules are re-derived from their definitions over utility profiles
(dicts state -> exact Fraction); nothing here imports the program, so a
defect in the program cannot hide in a shared helper.
"""

from __future__ import annotations

import re
from fractions import Fraction

LOWER_IS_BETTER = {"seu": False, "mmeu": False, "regret": True, "mer": True, "mwer": True}


def _expect(measure: dict[str, Fraction], values: dict[str, Fraction]) -> Fraction:
    return sum((p * values[s] for s, p in measure.items()), Fraction(0))


def scores(rule: str, profiles: dict[str, dict[str, Fraction]], belief) -> dict[str, Fraction]:
    """Score every act of a menu, given each act's utility profile.

    `belief` is one measure for seu, a list of measures for mmeu and mer, a
    list of (measure, weight) pairs for mwer and None for regret.
    """
    states = next(iter(profiles.values())).keys()
    best = {s: max(p[s] for p in profiles.values()) for s in states}
    out = {}
    for name, prof in profiles.items():
        reg = {s: best[s] - prof[s] for s in states}
        if rule == "seu":
            out[name] = _expect(belief, prof)
        elif rule == "mmeu":
            out[name] = min(_expect(m, prof) for m in belief)
        elif rule == "regret":
            out[name] = max(reg.values())
        elif rule == "mer":
            out[name] = max(_expect(m, reg) for m in belief)
        elif rule == "mwer":
            out[name] = max(w * _expect(m, reg) for m, w in belief)
        else:
            raise ValueError(f"unknown rule {rule!r}")
    return out


def groups(rule: str, act_scores: dict[str, Fraction]) -> list[list[str]]:
    """Acts best first, exact ties grouped, names sorted inside a group."""
    sign = 1 if LOWER_IS_BETTER[rule] else -1
    ordered = sorted(act_scores.items(), key=lambda kv: (sign * kv[1], kv[0]))
    out: list[list[str]] = []
    for i, (name, score) in enumerate(ordered):
        if i and score == ordered[i - 1][1]:
            out[-1].append(name)
        else:
            out.append([name])
    return out


def likelihood_update(entries, event: frozenset[str]):
    """Condition each measure, rescale weights by relative likelihood, merge
    duplicates by their largest weight.  Entries are (measure, weight)."""
    likelihoods = [w * sum(m[s] for s in event) for m, w in entries]
    top = max(likelihoods)
    merged: dict[tuple, Fraction] = {}
    for (m, w), lik in zip(entries, likelihoods):
        p_event = sum(m[s] for s in event)
        if p_event == 0:
            continue
        key = tuple(sorted((s, (q / p_event if s in event else Fraction(0))) for s, q in m.items()))
        if merged.get(key, -1) < lik / top:
            merged[key] = lik / top
    return merged


# -- parsers of the program's text output -----------------------------------------

def parse_ranking_tsv(text: str) -> tuple[list[list[str]], dict[str, Fraction]]:
    lines = text.rstrip("\n").split("\n")
    if lines[0] != "rank\tact\tscore\tdecimal":
        raise ValueError("bad ranking header")
    out: list[list[str]] = []
    act_scores = {}
    for line in lines[1:]:
        rank, name, score, _ = line.split("\t")
        if int(rank) == len(out):
            out[-1].append(name)
        elif int(rank) == len(out) + 1:
            out.append([name])
        else:
            raise ValueError(f"rank out of order in {line!r}")
        act_scores[name] = Fraction(score)
    return out, act_scores


_HYP_RE = re.compile(r"^hypothesis \S+ weight (\S+) = \{ (.*) \}$")


def parse_weighted_set(text: str) -> dict[tuple, Fraction]:
    lines = text.rstrip("\n").split("\n")
    if not lines[0].startswith("states: "):
        raise ValueError("bad weighted-set header")
    out = {}
    for line in lines[1:]:
        m = _HYP_RE.match(line)
        if m is None:
            raise ValueError(f"bad hypothesis line {line!r}")
        items = tuple(
            (s, Fraction(v)) for s, v in (pair.split(": ") for pair in m.group(2).split(", "))
        )
        out[items] = Fraction(m.group(1))
    return out


MATRIX_COLUMNS = ("ax1-6,8-10", "independence", "c-independence", "ax12")


def parse_matrix_text(text: str) -> dict[str, dict[str, bool]]:
    """rule -> column -> violated?"""
    lines = text.rstrip("\n").split("\n")
    if lines[0].split() != ["rule", *MATRIX_COLUMNS]:
        raise ValueError("bad matrix header")
    cells = {}
    for line in lines[1:]:
        rule, *marks = line.split()
        if any(m not in ("yes", "VIOLATED") for m in marks) or len(marks) != len(MATRIX_COLUMNS):
            raise ValueError(f"bad matrix row {line!r}")
        cells[rule] = {c: m == "VIOLATED" for c, m in zip(MATRIX_COLUMNS, marks)}
    return cells


def parse_tree_text(text: str) -> tuple[str, list[str], list[tuple[str, dict[str, Fraction], set[str], set[str]]]]:
    """(chosen, survivors, [(node, scores, kept, eliminated)])"""
    lines = text.rstrip("\n").split("\n")
    chosen = lines[0].removeprefix("chosen plan: ")
    survivors = lines[1].removeprefix("survivors: ").split(", ")
    nodes = []
    for line in lines[2:]:
        if line.startswith("node "):
            nodes.append((line.split()[1], {}, set(), set()))
            continue
        name, _, rest = line.strip().partition(": ")
        score, _, mark = rest.partition("  ")
        nodes[-1][1][name] = Fraction(score)
        if mark == "[kept]":
            nodes[-1][2].add(name)
        elif mark == "[eliminated]":
            nodes[-1][3].add(name)
    return chosen, survivors, nodes
