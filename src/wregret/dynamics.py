"""Conditional preferences and sequential decision problems.

This module owns conditional preference.  A family gives the preference on
each event: `likelihood_family` updates the weights by likelihood and
re-scores with mwer, and `conditional_score` and `evaluate_tree` use it;
`frozen_weight_family` conditions each measure and keeps its weight.  The
spliced-menu identity

    score of (f on E else h) in the spliced menu
        = upper likelihood of E  *  conditional score of f

ties the conditional and unconditional orders together exactly
(`axioms.check_mdc` probes the resulting biconditional on sampled
instances).  Decision trees are evaluated by backward induction over their
plans, each seen as its utility profile: either once at the root (ex-ante,
committing to the best plan) or leaves-upward at every decision node, with
an explicit choice of comparison menu at each node, since a menu-dependent
rule leaves that choice genuinely open.  One walk of the tree checks its
structure (unique decision node names; nature partitions disjoint and
exhaustive on the states still live), expands its plans and records every
decision node in pre-order with its depth, live states and path.  Nodes,
plans and evaluations are immutable records (`records.record`); a node
rejects an empty or ambiguous shape (`MalformedTree`) when built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .decisions import Act, Lottery, Menu, PreferenceOracle, Profile, UtilitySpec, as_alternatives, mwer
from .errors import (
    ActNotInMenu,
    MalformedTree,
    NullEvent,
    NullEventAtNode,
)
from .measures import (
    Event,
    EventLike,
    WeightedMeasureSet,
    as_event,
    is_null,
    likelihood_update,
    normalize,
    upper_likelihood,
)
from .rational import format_rational
from .records import record


def splice(f: Act, event: EventLike, h: Act, name: str | None = None) -> Act:
    """Statewise composition: f inside the event, h outside."""
    if f.state_space != h.state_space:
        raise ValueError("spliced acts must share a state space")
    event = as_event(event)
    outcomes = {s: (f[s] if s in event else h[s]) for s in f.state_space}
    return Act(f"{f.name}_else_{h.name}" if name is None else name, outcomes)


def splice_menu(menu: Menu, event: EventLike, h: Act) -> Menu:
    """Splice every menu act with the same off-event act."""
    event = as_event(event)
    return Menu(tuple(splice(f, event, h) for f in menu))


# A family gives the conditional preference on each event.  `check_mdc` calls
# it once per distinct event and reuses that oracle, so a family must be a
# function of the event alone.  On an event that is null under its belief a
# family raises NullEvent.

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


def conditional_score(
    f: Act, event: EventLike, menu: Menu, u: UtilitySpec, wset: WeightedMeasureSet
) -> Fraction:
    """Worst-case weighted expected regret after updating on the event."""
    return likelihood_family(wset, u)(as_event(event)).score(f, menu)


def mdc_scaling_check(
    f: Act, event: EventLike, menu: Menu, h: Act, u: UtilitySpec, wset: WeightedMeasureSet
) -> tuple[Fraction, Fraction]:
    """Both sides of the spliced-menu scaling identity (they must be equal).

    Left: the unconditional score of fEh against the spliced menu.
    Right: the event's upper likelihood times the conditional score of f.
    """
    event = as_event(event)
    if f not in menu:
        raise ActNotInMenu(f"act {f.name!r} is not in the menu")
    if h not in menu:
        raise ActNotInMenu(f"act {h.name!r} is not in the menu")
    if is_null(event, wset):
        raise NullEvent("the scaling identity needs a non-null event")
    lhs = mwer(splice(f, event, h), splice_menu(menu, event, h), u, wset)
    rhs = upper_likelihood(wset, event) * conditional_score(f, event, menu, u, wset)
    return lhs, rhs


# -- decision trees ----------------------------------------------------------------

@record
class _LeafFields:
    lottery: Optional[Lottery] = None
    utility: Optional[Fraction] = None


class Leaf(_LeafFields):
    """Terminal node holding either a lottery or a bare utility value."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` checks too

    def __new__(cls, lottery: Optional[Lottery] = None, utility: Optional[Fraction] = None):
        if (lottery is None) == (utility is None):
            raise MalformedTree("a leaf holds exactly one of: lottery, utility")
        return super().__new__(cls, lottery, utility)


@record
class _DecisionFields:
    name: str
    branches: tuple[tuple[str, "TreeNode"], ...]


class DecisionNode(_DecisionFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` checks too

    def __new__(cls, name: str, branches: tuple[tuple[str, "TreeNode"], ...]):
        if not branches:
            raise MalformedTree(f"decision node {name!r} has no branches")
        names = [b for b, _ in branches]
        if len(set(names)) != len(names):
            raise MalformedTree(f"decision node {name!r} has duplicate branch names")
        return super().__new__(cls, name, branches)


@record
class _NatureFields:
    partition: tuple[tuple[Event, "TreeNode"], ...]


class NatureNode(_NatureFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # `_replace` checks too

    def __new__(cls, partition: tuple[tuple[Event, "TreeNode"], ...]):
        if not partition:
            raise MalformedTree("nature node has an empty partition")
        return super().__new__(cls, partition)


TreeNode = Union[Leaf, DecisionNode, NatureNode]


@record
class DecisionTree:
    root: TreeNode


@record
class Plan:
    """A strategy: one branch per reachable decision node, seen as its utility
    profile (one utility per state, in sorted state order)."""

    name: str
    choices: tuple[tuple[str, str], ...]
    profile: Profile


# a decision node's name -> (its depth, its live states, the (decision node,
# branch) pairs on the path to it)
DecisionNodes = dict[str, tuple[int, frozenset[str], tuple[tuple[str, str], ...]]]


def _walk(
    node: TreeNode,
    live: frozenset[str],
    depth: int,
    path: tuple[tuple[str, str], ...],
    u: UtilitySpec,
    nodes: DecisionNodes,
) -> list[tuple[dict[str, str], list[str], dict[str, Fraction]]]:
    """Check the subtree on the live states, record its decision nodes in
    pre-order and return its sub-plans as (choices, branch names, utility per
    live state)."""
    if isinstance(node, Leaf):
        value = Fraction(node.utility) if node.lottery is None else u.utility(node.lottery)
        return [({}, [], {s: value for s in live})]
    if isinstance(node, DecisionNode):
        if node.name in nodes:
            raise MalformedTree(f"duplicate decision node name {node.name!r}")
        nodes[node.name] = (depth, live, path)
        out = []
        for branch, child in node.branches:
            for choices, parts, outcomes in _walk(
                child, live, depth + 1, path + ((node.name, branch),), u, nodes
            ):
                out.append(({node.name: branch, **choices}, [branch] + parts, outcomes))
        return out
    combos = [({}, [], {})]
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
        sub = _walk(child, frozenset(cell), depth + 1, path, u, nodes)
        merged = []
        for choices, parts, outcomes in combos:
            for c2, p2, o2 in sub:
                merged.append(({**choices, **c2}, parts + p2, {**outcomes, **o2}))
        combos = merged
    missing = live - covered
    if missing:
        raise MalformedTree(f"nature partition misses states {sorted(missing)}")
    return combos


def enumerate_plans(
    tree: DecisionTree, state_space: Sequence[str], u: UtilitySpec
) -> tuple[list[Plan], DecisionNodes]:
    """All strategies of the tree, each with its utility profile, and the
    tree's decision nodes in pre-order, from one walk that checks the tree."""
    live = frozenset(state_space)
    nodes: DecisionNodes = {}
    states = sorted(live)
    plans = []
    for choices, parts, outcomes in _walk(tree.root, live, 0, (), u, nodes):
        name = "+".join(parts) if parts else "unconditional"
        plans.append(Plan(name, tuple(sorted(choices.items())), tuple(outcomes[s] for s in states)))
    if len({p.name for p in plans}) != len(plans):
        raise MalformedTree("plan names are not unique; rename branches")
    return plans, nodes


@record
class NodeDiagnostic:
    node: str
    live: tuple[str, ...]
    menu: tuple[str, ...]
    scores: dict[str, Fraction]
    eliminated: tuple[str, ...]
    kept: tuple[str, ...]

    def to_obj(self) -> dict:
        return {
            "node": self.node,
            "live": list(self.live),
            "menu": list(self.menu),
            "scores": {k: format_rational(v) for k, v in self.scores.items()},
            "eliminated": list(self.eliminated),
            "kept": list(self.kept),
        }


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


def evaluate_tree(
    tree: DecisionTree,
    u: UtilitySpec,
    wset: WeightedMeasureSet,
    planning: str = "sophisticated",
    menu_policy: str = "full",
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
    plans, nodes = enumerate_plans(tree, wset.state_space, u)
    if planning == "ex-ante":  # one node at the root, through which every plan passes
        order = [("<root>", (0, frozenset(wset.state_space), ()))]
    else:  # deepest first; the sort is stable, so pre-order among equal depths
        order = sorted(nodes.items(), key=lambda item: -item[1][0])
    survivors = {p.name for p in plans}
    conditional = likelihood_family(wset, u)
    alternatives = as_alternatives([p.name for p in plans], [p.profile for p in plans])
    diagnostics: list[NodeDiagnostic] = []
    for name, (_, live, path) in order:
        group = [a for p, a in zip(plans, alternatives) if all(pair in p.choices for pair in path)]
        alive = [a for a in group if a.name in survivors]
        if not alive:
            raise MalformedTree(f"no viable plan reaches node {name!r}")
        event = Event(live)
        if is_null(event, wset):
            raise NullEventAtNode(f"information set {sorted(live)} has upper likelihood 0")
        pool = group if menu_policy == "full" else alive
        scores = conditional(event).scores(pool)
        best = min(scores[p.name] for p in alive)
        dropped = tuple(sorted(p.name for p in alive if scores[p.name] != best))
        kept = tuple(sorted(p.name for p in alive if scores[p.name] == best))
        survivors -= set(dropped)
        diagnostics.append(
            NodeDiagnostic(
                name, tuple(sorted(live)),
                tuple(p.name for p in pool), scores, dropped, kept,
            )
        )
    final = tuple(sorted(survivors))
    chosen = next(p for p in plans if p.name == final[0])
    return TreeEvaluation(planning, menu_policy, chosen, final, tuple(diagnostics), tuple(plans))
