"""Decision-tree evaluation by scanning the plan list, kept as the reference
for `dynamics.evaluate_tree`.

This is the library's evaluation before it went by backward induction over
the walk's sub-plans.  The walk builds each sub-plan as dicts (choices and
`Fraction` utilities per live state) and expands every plan.  At each
decision node it then scans all plans for those whose choices contain the
node's path, and scores every one of them, as a whole profile, under the
node's conditional oracle.  It returns the library's own records, so
results compare with `==`; the profiles stay here, beside the plans.
"""

from __future__ import annotations

from fractions import Fraction

from wregret.decisions import Alternative
from wregret.dynamics import (
    DecisionNode,
    Leaf,
    NodeDiagnostic,
    Plan,
    TreeEvaluation,
    likelihood_family,
)
from wregret.errors import MalformedTree, NullEventAtNode
from wregret.measures import Event, is_null
from wregret.rational import as_integers


def _walk(node, live, depth, path, u, nodes):
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


def enumerate_plans(tree, state_space, u):
    """(plans, their utility profiles in sorted state order, decision nodes)."""
    live = frozenset(state_space)
    nodes: dict = {}
    states = sorted(live)
    plans, profiles = [], []
    for choices, parts, outcomes in _walk(tree.root, live, 0, (), u, nodes):
        name = "+".join(parts) if parts else "unconditional"
        plans.append(Plan(name, tuple(sorted(choices.items()))))
        profiles.append(tuple(outcomes[s] for s in states))
    if len({p.name for p in plans}) != len(plans):
        raise MalformedTree("plan names are not unique; rename branches")
    return plans, profiles, nodes


def evaluate_tree(tree, u, wset, planning="sophisticated", menu_policy="full") -> TreeEvaluation:
    if planning not in ("ex-ante", "sophisticated"):
        raise ValueError(f"unknown planning mode {planning!r}")
    if menu_policy not in ("full", "viable"):
        raise ValueError(f"unknown menu policy {menu_policy!r}")
    plans, profiles, nodes = enumerate_plans(tree, wset.state_space, u)
    if planning == "ex-ante":
        order = [("<root>", (0, frozenset(wset.state_space), ()))]
    else:
        order = sorted(nodes.items(), key=lambda item: -item[1][0])
    survivors = {p.name for p in plans}
    conditional = likelihood_family(wset, u)
    denominator, rows = as_integers(profiles)
    alternatives = [Alternative.from_ints(p.name, row, denominator) for p, row in zip(plans, rows)]
    diagnostics = []
    for name, (_, live, path) in order:
        group = [a for p, a in zip(plans, alternatives) if all(pair in p.choices for pair in path)]
        alive = [a for a in group if a.name in survivors]
        if not alive:
            raise MalformedTree(f"no viable plan reaches node {name!r}")
        event = Event(live)
        if is_null(event, wset):
            raise NullEventAtNode(f"information set {sorted(live)} has upper likelihood 0")
        pool = group if menu_policy == "full" else alive
        oracle = conditional(event)
        # member by member, on the per-act kernels, not the library's whole-menu scoring
        scores = {a.name: oracle.rate(a, pool) for a in pool}
        best = min(scores[p.name] for p in alive)
        dropped = tuple(sorted(p.name for p in alive if scores[p.name] != best))
        kept = tuple(sorted(p.name for p in alive if scores[p.name] == best))
        survivors -= set(dropped)
        diagnostics.append(
            NodeDiagnostic(name, tuple(sorted(live)), tuple(p.name for p in pool), scores, dropped, kept)
        )
    final = tuple(sorted(survivors))
    chosen = next(p for p in plans if p.name == final[0])
    return TreeEvaluation(planning, menu_policy, chosen, final, tuple(diagnostics), tuple(plans))
