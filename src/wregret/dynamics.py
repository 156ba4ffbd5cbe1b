"""Conditional preferences and sequential decision problems.

Conditioning a worst-case weighted regret agent on an event means updating
the belief by likelihood and re-scoring; the spliced-menu identity

    score of (f on E else h) in the spliced menu
        = upper likelihood of E  *  conditional score of f

ties the conditional and unconditional orders together exactly
(`axioms.check_mdc` probes the resulting biconditional on sampled
instances).  Decision trees are evaluated by backward induction over their
plans, each seen as its utility profile: either once at the root (ex-ante,
committing to the best plan) or leaves-upward at every decision node, with
an explicit choice of comparison menu at each node, since a menu-dependent
rule leaves that choice genuinely open.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .decisions import Act, Lottery, Menu, Profile, UtilitySpec, mwer, score_profiles
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
    likelihood_update,
    normalize,
    upper_likelihood,
)
from .rational import format_rational


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


def is_null(event: EventLike, wset: WeightedMeasureSet) -> bool:
    """True when every entry gives the event weight-scaled probability zero.

    Such events cannot influence any weighted regret score: splicing an act
    on them is score-invisible.
    """
    event = as_event(event)
    return all(w * m.event_prob(event) == 0 for m, w in wset.entries)


def conditional_score(
    f: Act, event: EventLike, menu: Menu, u: UtilitySpec, wset: WeightedMeasureSet
) -> Fraction:
    """Worst-case weighted expected regret after updating on the event."""
    event = as_event(event)
    if is_null(event, wset):
        raise NullEvent("conditional preferences are undefined on a null event")
    return mwer(f, menu, u, likelihood_update(wset, event))


def mdc_scaling_check(
    f: Act,
    event: EventLike,
    menu: Menu,
    h: Act,
    u: UtilitySpec,
    wset: WeightedMeasureSet,
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

@dataclass(frozen=True)
class Leaf:
    """Terminal node holding either a lottery or a bare utility value."""

    lottery: Optional[Lottery] = None
    utility: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if (self.lottery is None) == (self.utility is None):
            raise MalformedTree("a leaf holds exactly one of: lottery, utility")


@dataclass(frozen=True)
class DecisionNode:
    name: str
    branches: tuple[tuple[str, "TreeNode"], ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise MalformedTree(f"decision node {self.name!r} has no branches")
        names = [b for b, _ in self.branches]
        if len(set(names)) != len(names):
            raise MalformedTree(f"decision node {self.name!r} has duplicate branch names")


@dataclass(frozen=True)
class NatureNode:
    partition: tuple[tuple[Event, "TreeNode"], ...]

    def __post_init__(self) -> None:
        if not self.partition:
            raise MalformedTree("nature node has an empty partition")


TreeNode = Union[Leaf, DecisionNode, NatureNode]


@dataclass(frozen=True)
class DecisionTree:
    root: TreeNode


@dataclass(frozen=True)
class Plan:
    """A strategy: one branch per reachable decision node, seen as its utility
    profile (one utility per state, in sorted state order)."""

    name: str
    choices: tuple[tuple[str, str], ...]
    profile: Profile

    def choice_at(self, node: str) -> Optional[str]:
        return dict(self.choices).get(node)


@dataclass
class _NodeInfo:
    name: str
    depth: int
    order: int
    live: frozenset[str]
    ancestors: tuple[tuple[str, str], ...]  # (decision node, branch) pairs


def _validate(node: TreeNode, live: frozenset[str], seen_names: set[str]) -> None:
    if isinstance(node, Leaf):
        return
    if isinstance(node, DecisionNode):
        if node.name in seen_names:
            raise MalformedTree(f"duplicate decision node name {node.name!r}")
        seen_names.add(node.name)
        for _, child in node.branches:
            _validate(child, live, seen_names)
        return
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
        _validate(child, frozenset(cell), seen_names)
    missing = live - covered
    if missing:
        raise MalformedTree(f"nature partition misses states {sorted(missing)}")


def _expand(
    node: TreeNode, live: frozenset[str], u: UtilitySpec
) -> list[tuple[dict[str, str], list[str], dict[str, Fraction]]]:
    if isinstance(node, Leaf):
        value = Fraction(node.utility) if node.lottery is None else u.utility(node.lottery)
        return [({}, [], {s: value for s in live})]
    if isinstance(node, DecisionNode):
        out = []
        for branch, child in node.branches:
            for choices, parts, outcomes in _expand(child, live, u):
                out.append(({node.name: branch, **choices}, [branch] + parts, outcomes))
        return out
    combos = [({}, [], {})]
    for event, child in node.partition:
        cell = frozenset(event.members & live)
        sub = _expand(child, cell, u)
        merged = []
        for choices, parts, outcomes in combos:
            for c2, p2, o2 in sub:
                merged.append(({**choices, **c2}, parts + p2, {**outcomes, **o2}))
        combos = merged
    return combos


def _decision_nodes(
    node: TreeNode,
    live: frozenset[str],
    ancestors: tuple[tuple[str, str], ...],
    depth: int,
    acc: list[_NodeInfo],
) -> None:
    if isinstance(node, Leaf):
        return
    if isinstance(node, DecisionNode):
        acc.append(_NodeInfo(node.name, depth, len(acc), live, ancestors))
        for branch, child in node.branches:
            _decision_nodes(child, live, ancestors + ((node.name, branch),), depth + 1, acc)
        return
    for event, child in node.partition:
        _decision_nodes(child, frozenset(event.members & live), ancestors, depth + 1, acc)


def enumerate_plans(
    tree: DecisionTree, state_space: Sequence[str], u: UtilitySpec
) -> list[Plan]:
    """All strategies of the tree, each with its utility profile."""
    live = frozenset(state_space)
    _validate(tree.root, live, set())
    states = sorted(live)
    plans = []
    for choices, parts, outcomes in _expand(tree.root, live, u):
        name = "+".join(parts) if parts else "unconditional"
        plans.append(Plan(name, tuple(sorted(choices.items())), tuple(outcomes[s] for s in states)))
    if len({p.name for p in plans}) != len(plans):
        raise MalformedTree("plan names are not unique; rename branches")
    return plans


@dataclass
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


@dataclass
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


def _belief_at(wset: WeightedMeasureSet, live: frozenset[str]) -> WeightedMeasureSet:
    event = Event(live)
    if upper_likelihood(wset, event) == 0:
        raise NullEventAtNode(
            f"information set {sorted(live)} has upper likelihood 0"
        )
    if set(live) == set(wset.state_space):
        return normalize(wset)
    return likelihood_update(wset, event)


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
    plans = enumerate_plans(tree, wset.state_space, u)
    live = frozenset(wset.state_space)
    if planning == "ex-ante":  # one node at the root, through which every plan passes
        infos = [_NodeInfo("<root>", 0, 0, live, ())]
    else:
        infos = []
        _decision_nodes(tree.root, live, (), 0, infos)
        infos.sort(key=lambda i: (-i.depth, i.order))
    states = tuple(sorted(live))
    survivors = {p.name for p in plans}
    diagnostics: list[NodeDiagnostic] = []
    for info in infos:
        anc = dict(info.ancestors)
        group = [
            p for p in plans
            if all(p.choice_at(node) == branch for node, branch in anc.items())
        ]
        alive = [p for p in group if p.name in survivors]
        if not alive:
            raise MalformedTree(f"no viable plan reaches node {info.name!r}")
        belief = _belief_at(wset, info.live)
        pool = group if menu_policy == "full" else alive
        scores = score_profiles("mwer", {p.name: p.profile for p in pool}, belief, states)
        best = min(scores[p.name] for p in alive)
        dropped = tuple(sorted(p.name for p in alive if scores[p.name] != best))
        kept = tuple(sorted(p.name for p in alive if scores[p.name] == best))
        survivors -= set(dropped)
        diagnostics.append(
            NodeDiagnostic(
                info.name, tuple(sorted(info.live)),
                tuple(p.name for p in pool), scores, dropped, kept,
            )
        )
    final = tuple(sorted(survivors))
    chosen = next(p for p in plans if p.name == final[0])
    return TreeEvaluation(planning, menu_policy, chosen, final, tuple(diagnostics), tuple(plans))
