"""Conditional preferences and sequential decision problems.

This module owns conditional preference.  A family gives the preference on
each event: `likelihood_family` updates the weights by likelihood and
re-scores with mwer, and `evaluate_tree` uses it;
`frozen_weight_family` conditions each measure and keeps its weight.
Splicing (`splice`, `splice_menu`) ties the conditional and unconditional
orders together (`axioms.check_mdc` probes dynamic consistency on sampled
instances).  Decision trees are evaluated either once at the root (ex-ante:
every plan is scored once and the best is committed to) or by backward
induction, leaves-upward at every decision node (sophisticated): each
node's distinct continuations, the sub-plans of its subtree, are scored
once under the belief conditioned on its information set, with an explicit
choice of comparison menu, since a menu-dependent rule leaves that choice
open.  Likelihood updating zeroes every measure off the node's live states,
so a plan's score there is its continuation's.  One walk of the tree checks
its structure (unique decision node names; nature partitions disjoint and
exhaustive on the states still live), expands its plans, and records every
decision node in pre-order with its depth, live states, continuations as
ints over one denominator, and the continuation each plan takes there.
Nodes, plans and evaluations are immutable records (`records.record`); a
node rejects an empty or ambiguous shape (`MalformedTree`) when built.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Callable, Mapping, Optional, Sequence, Union

from .decisions import Act, Alternative, Lottery, Menu, PreferenceOracle, UtilitySpec
from .errors import MalformedTree, NullEvent, NullEventAtNode
from .measures import Event, EventLike, WeightedMeasureSet, as_event, is_null, likelihood_update, normalize
from .rational import as_integers, exact, format_rational
from .records import record


def splice(f: Act, event: EventLike, h: Act) -> Act:
    """Statewise composition: f inside the event, h outside."""
    if f.state_space != h.state_space:
        raise ValueError("spliced acts must share a state space")
    event = as_event(event)
    outcomes = {s: (f[s] if s in event else h[s]) for s in f.state_space}
    return Act(f"{f.name}_else_{h.name}", outcomes)


def splice_menu(menu: Menu, event: EventLike, h: Act) -> Menu:
    """Splice every menu act with the same off-event act."""
    event = as_event(event)
    return Menu(tuple(splice(f, event, h) for f in menu))


# A family gives the conditional preference on each event.  `check_mdc` calls
# it once per distinct event and reuses that oracle, so a family must be a
# function of the event alone.  On an event that is null under its belief a
# family raises NullEvent; `check_mdc` and `evaluate_tree` ask the family, so
# it alone decides which events are null.

OracleFamily = Callable[[Event], PreferenceOracle]


def _require_non_null(event: Event, wset: WeightedMeasureSet) -> None:
    if is_null(event, wset):
        raise NullEvent("conditional preferences are undefined on a null event")


def likelihood_family(wset: WeightedMeasureSet, u: UtilitySpec) -> OracleFamily:
    """Conditional preferences driven by likelihood updating of the weights."""

    def family(event: Event) -> PreferenceOracle:
        _require_non_null(event, wset)
        return PreferenceOracle("mwer", likelihood_update(wset, event), u, wset.state_space)

    return family


def frozen_weight_family(wset: WeightedMeasureSet, u: UtilitySpec) -> OracleFamily:
    """Measure-by-measure conditioning: weights frozen, zero-likelihood entries dropped."""

    def family(event: Event) -> PreferenceOracle:
        _require_non_null(event, wset)
        kept = [(m.condition(event), w) for m, w in wset.entries if m.event_prob(event) != 0]
        belief = normalize(WeightedMeasureSet(kept, wset.state_space))  # merges duplicates
        return PreferenceOracle("mwer", belief, u, wset.state_space)

    return family


# -- decision trees ----------------------------------------------------------------

@record
class Leaf:
    """Terminal node holding either a lottery or a bare exact utility value (a float raises TypeError)."""

    lottery: Optional[Lottery] = None
    utility: Optional[Fraction] = None

    def _check(self) -> None:
        if (self.lottery is None) == (self.utility is None):
            raise MalformedTree("a leaf holds exactly one of: lottery, utility")
        if self.utility is not None:
            exact(self.utility, "leaf utility")


@record
class DecisionNode:
    name: str
    branches: tuple[tuple[str, "TreeNode"], ...]

    def _check(self) -> None:
        if not self.branches:
            raise MalformedTree(f"decision node {self.name!r} has no branches")
        names = [b for b, _ in self.branches]
        if len(set(names)) != len(names):
            raise MalformedTree(f"decision node {self.name!r} has duplicate branch names")


@record
class NatureNode:
    partition: tuple[tuple[Event, "TreeNode"], ...]

    def _check(self) -> None:
        if not self.partition:
            raise MalformedTree("nature node has an empty partition")


TreeNode = Union[Leaf, DecisionNode, NatureNode]


@record
class DecisionTree:
    root: TreeNode


@record
class Plan:
    """A strategy: one branch per reachable decision node."""

    name: str
    choices: tuple[tuple[str, str], ...]


# a decision node's name -> (its depth, its live states in sorted order, its
# continuations (the sub-plans of its subtree) and the (plan index,
# continuation index) of every plan through it, in plan order)
DecisionNodes = dict[str, tuple[int, tuple[str, ...], list, list[tuple[int, int]]]]


def _walk(
    node: TreeNode, live: frozenset[str], depth: int, states: tuple[str, ...], u: UtilitySpec,
    nodes: DecisionNodes, leaves: dict[Leaf, tuple[int, Fraction]],
) -> list[tuple[tuple, tuple[int, ...]]]:
    """Check the subtree on the live states, record its decision nodes in
    pre-order and return its sub-plans, each as (its `via`: for every
    decision node it reaches, in tree order, the (node, branch) choice, the
    sub-plan's continuation index at that node and the node's plan list;
    its leaf ids: per state in sorted order, the id of its leaf in
    `leaves`, 0 off the live states)."""
    if isinstance(node, Leaf):
        if node not in leaves:  # each distinct leaf is valued once, when first reached
            value = exact(node.utility, "leaf utility") if node.lottery is None else u.utility(node.lottery)
            leaves[node] = (len(leaves) + 1, value)
        leaf = leaves[node][0]
        return [((), tuple([leaf if s in live else 0 for s in states]))]
    if isinstance(node, DecisionNode):
        if node.name in nodes:
            raise MalformedTree(f"duplicate decision node name {node.name!r}")
        continuations: list = []
        takes: list[tuple[int, int]] = []
        nodes[node.name] = (depth, tuple(sorted(live)), continuations, takes)
        out = []
        for branch, child in node.branches:
            choice = (node.name, branch)
            for via, ids in _walk(child, live, depth + 1, states, u, nodes, leaves):
                out.append((((choice, len(continuations), takes),) + via, ids))
                continuations.append(ids)
        return out
    combos: Optional[list[tuple[tuple, tuple[int, ...]]]] = None
    covered: set[str] = set()
    for event, child in node.partition:
        cell = event.members & live
        if not cell:
            raise MalformedTree(
                f"nature branch for {sorted(event.members)} is empty on live states {sorted(live)}"
            )
        duplicated = covered & cell
        if duplicated:
            raise MalformedTree(f"nature partition overlaps on states {sorted(duplicated)}")
        covered |= cell
        sub = _walk(child, frozenset(cell), depth + 1, states, u, nodes, leaves)
        if combos is None:
            combos = sub
        else:
            combos = [(via + v2, tuple(map(add, ids, i2))) for via, ids in combos for v2, i2 in sub]
    missing = live - covered
    if missing:
        raise MalformedTree(f"nature partition misses states {sorted(missing)}")
    return combos


def enumerate_plans(tree: DecisionTree, state_space: Sequence[str], u: UtilitySpec):
    """All strategies of the tree, from one walk that checks the tree; its
    decision nodes in pre-order (`DecisionNodes`); the root as a node
    through which every plan passes; and `born`, which makes a continuation
    (its leaf ids per state) an `Alternative.from_ints` of the leaf values
    over the LCM of their denominators."""
    states = tuple(sorted(state_space))
    nodes: DecisionNodes = {}
    leaves: dict[Leaf, tuple[int, Fraction]] = {}
    walked = _walk(tree.root, frozenset(states), 0, states, u, nodes, leaves)
    values = [Fraction(0)] + [value for _, value in leaves.values()]
    plans = []
    for j, (via, ids) in enumerate(walked):
        chosen = [choice for choice, _, _ in via]
        name = "+".join([branch for _, branch in chosen]) if via else "unconditional"
        chosen.sort()
        plans.append(Plan(name, tuple(chosen)))
        for _, k, takes in via:
            takes.append((j, k))
    if len({p.name for p in plans}) != len(plans):
        raise MalformedTree("plan names are not unique; rename branches")
    root = (0, states, [ids for _, ids in walked], [(j, j) for j in range(len(plans))])
    denominator, (ints,) = as_integers([values])
    int_of = ints.__getitem__

    def born(ids: tuple[int, ...]) -> Alternative:
        return Alternative.from_ints("", map(int_of, ids), denominator)

    return plans, nodes, root, born


@record
class NodeDiagnostic:
    node: str
    live: tuple[str, ...]
    menu: tuple[str, ...]
    scores: Mapping[str, Fraction]
    eliminated: tuple[str, ...]
    kept: tuple[str, ...]

    def to_obj(self) -> dict:
        return {**self._asdict(), "scores": {k: format_rational(v) for k, v in self.scores.items()}}


@record
class TreeEvaluation:
    planning: str
    menu_policy: str
    chosen: Plan
    survivors: tuple[str, ...]
    diagnostics: tuple[NodeDiagnostic, ...]
    plans: tuple[Plan, ...]

    def to_obj(self) -> dict:
        return {
            "planning": self.planning,
            "menu_policy": self.menu_policy,
            "chosen": self.chosen.name,
            "choices": dict(self.chosen.choices),
            "survivors": list(self.survivors),
            "plans": [p.name for p in self.plans],
            "diagnostics": [d.to_obj() for d in self.diagnostics],
        }

    def to_text(self) -> str:
        """The chosen plan, the survivors, and each node's menu with its
        scores, marking the plans it eliminated and those it kept."""
        lines = [f"chosen plan: {self.chosen.name}", f"survivors: {', '.join(self.survivors)}"]
        for diag in self.diagnostics:
            lines.append(f"node {diag.node} (live: {', '.join(diag.live)})")
            marks = dict.fromkeys(diag.kept, "  [kept]") | dict.fromkeys(diag.eliminated, "  [eliminated]")
            for name in diag.menu:
                score = diag.scores.get(name)
                lines.append(f"  {name}: {'-' if score is None else str(score)}{marks.get(name, '')}")
        return "\n".join(lines) + "\n"


def evaluate_tree(
    tree: DecisionTree, u: UtilitySpec, wset: WeightedMeasureSet,
    planning: str = "sophisticated", menu_policy: str = "full",
) -> TreeEvaluation:
    """Choose a plan, ex-ante or by backward induction.

    Ex-ante mode scores all plans at the root belief and commits.  The
    sophisticated mode resolves decision nodes leaves-upward: at each node
    the continuation plans are scored under the belief conditioned on the
    node's information set, against either every plan through the node
    (`full`) or only the still-viable ones (`viable`).  Ties keep every tied
    plan viable; the final pick among survivors is lexicographic by name.
    """
    if planning not in ("ex-ante", "sophisticated"):
        raise ValueError(f"unknown planning mode {planning!r}")
    if menu_policy not in ("full", "viable"):
        raise ValueError(f"unknown menu policy {menu_policy!r}")
    plans, nodes, root, born = enumerate_plans(tree, wset.state_space, u)
    if planning == "ex-ante":  # one node at the root, through which every plan passes
        order = [("<root>", root)]
    else:  # deepest first; the sort is stable, so pre-order among equal depths
        order = sorted(nodes.items(), key=lambda item: -item[1][0])
    names = [p.name for p in plans]
    alive = [True] * len(plans)
    conditional = likelihood_family(wset, u)
    oracles: dict[tuple[str, ...], PreferenceOracle] = {}  # one per information set
    diagnostics: list[NodeDiagnostic] = []
    for name, (_, live, continuations, takes) in order:
        viable = [(j, k) for j, k in takes if alive[j]]
        if not viable:
            raise MalformedTree(f"no viable plan reaches node {name!r}")
        if live not in oracles:
            try:
                oracles[live] = conditional(Event(live))
            except NullEvent as exc:
                raise NullEventAtNode(f"information set {list(live)} has upper likelihood 0") from exc
        pool = takes if menu_policy == "full" else viable
        used = range(len(continuations)) if pool is takes else sorted({k for _, k in viable})
        denominator, numerators = oracles[live].numerators([born(continuations[k]) for k in used])
        score = dict(zip(used, numerators))
        best = min([score[k] for _, k in viable])
        shown = {n: Fraction(n, denominator) for n in set(numerators)}  # one per distinct score
        dropped = [j for j, k in viable if score[k] != best]
        for j in dropped:
            alive[j] = False
        eliminated = tuple(sorted([names[j] for j in dropped]))
        kept = tuple(sorted([names[j] for j, k in viable if score[k] == best]))
        menu = tuple([names[j] for j, _ in pool])
        scores = dict(zip(menu, [shown[score[k]] for _, k in pool]))
        diagnostics.append(NodeDiagnostic(name, live, menu, scores, eliminated, kept))
    final = tuple(sorted(name for name, ok in zip(names, alive) if ok))
    chosen = plans[names.index(final[0])]
    return TreeEvaluation(planning, menu_policy, chosen, final, tuple(diagnostics), tuple(plans))
