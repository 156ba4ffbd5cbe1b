"""Command-line interface.

Subcommands: eval, update, axioms, tree, simulate.  Results go to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 domain error or stdout
that cannot be written, 2 parse error, 3 usage error.

`run` is the process entry (`python -m wregret.cli`, the `wregret` script);
`main` runs one command in-process.  `run` turns the cyclic collector off and
ends in `os._exit` once stdout and stderr are flushed: nothing is collected or
torn down.  A command's uncollected cycles do not grow with its request
(tests/test_cli.py), and only a process that runs one command may call `run`.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import NoReturn

from .axioms import (
    AXIOM_IDS,
    GeneratorConfig,
    MATRIX_RULES,
    axiom_matrix,
    belief_fixtures,
    check_axiom,
)
from .dsl import ProblemDoc, parse_problem, parse_tree, serialize_weighted_set
from .dynamics import evaluate_tree
from .errors import DomainError, ParseError
from .learning import ObservationModel, Probe, compare_updaters, simulate
from .measures import likelihood_update
from .decisions import RULES, belief_for, rank
from .rational import parse_rational


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for parse errors
        raise UsageError(message)

    def print_help(self, file=None):  # argparse's own writer drops an OSError
        (file or sys.stdout).write(self.format_help())


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _write_json(obj) -> None:
    """The one writer of `--format json` output.  Only this output needs
    `json`, so the other commands do not pay for importing it."""
    import json

    print(json.dumps(obj, indent=2))


def _load_doc(path: str) -> ProblemDoc:
    return parse_problem(_read(path))


def _with_hypotheses(doc: ProblemDoc) -> ProblemDoc:
    """The document, checked to declare the hypotheses a belief is made of:
    the one check of that rule, made before any belief is built."""
    if not doc.hypotheses:
        raise UsageError("the document declares no hypotheses")
    return doc


def _lookup(table, name: str, what: str):
    if name not in table:
        known = ", ".join(sorted(table)) or "(none)"
        raise UsageError(f"unknown {what} {name!r}; known: {known}")
    return table[name]


def _belief_for(doc: ProblemDoc, rule: str, measure_name: str | None):
    def named():
        hypotheses = _with_hypotheses(doc).hypotheses
        if measure_name is None:
            raise UsageError(f"--rule {rule} requires --measure NAME")
        return _lookup(hypotheses, measure_name, "hypothesis")[0]

    return belief_for(
        rule, named, lambda: _with_hypotheses(doc).measures(), lambda: _with_hypotheses(doc).weighted_set()
    )


def _cmd_eval(args) -> int:
    doc = _load_doc(args.file)
    menu = _lookup(doc.menus, args.menu, "menu")
    belief = _belief_for(doc, args.rule, args.measure)
    ranking = rank(args.rule, menu, doc.utility, belief)
    if args.format == "json":
        _write_json(ranking.to_obj())
    else:
        sys.stdout.write(ranking.to_tsv())
    return 0


def _cmd_update(args) -> int:
    doc = _load_doc(args.file)
    event = _lookup(doc.events, args.event, "event")
    updated = likelihood_update(_with_hypotheses(doc).weighted_set(), event)
    # label each conditioned measure by the hypotheses that condition to it
    contributors: dict = {}
    for name, (measure, _) in sorted(doc.hypotheses.items()):
        if measure.event_prob(event) > 0:
            contributors.setdefault(measure.condition(event), []).append(name)
    labels = {measure: "+".join(who) for measure, who in contributors.items()}
    sys.stdout.write(serialize_weighted_set(updated, labels))
    return 0


def _cmd_axioms(args) -> int:
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    if args.axiom == "matrix" and args.rule:
        # cells are seeded by rule position, so a one-rule row would not match the matrix
        raise UsageError("--rule does not apply to --axiom matrix")
    doc = _load_doc(args.file)
    try:
        fixtures = belief_fixtures(doc)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    config = GeneratorConfig(samples=args.samples)
    if args.axiom == "matrix":
        matrix = axiom_matrix(fixtures=fixtures, seed=args.seed, config=config)
        if args.format == "json":
            _write_json(matrix.to_obj())
        else:
            sys.stdout.write(matrix.to_text())
        return 0
    rules = [args.rule] if args.rule else list(MATRIX_RULES)
    reports = [
        check_axiom(args.axiom, fixtures.oracle(rule), config, seed=args.seed)
        for rule in rules
    ]
    if args.format == "json":
        _write_json([r.to_obj() for r in reports])
    else:
        sys.stdout.write("".join([r.to_text() for r in reports]))
    return 0


def _cmd_tree(args) -> int:
    doc = _load_doc(args.file)
    tree = parse_tree(_read(args.treefile), doc)
    evaluation = evaluate_tree(
        tree, doc.utility, _with_hypotheses(doc).weighted_set(),
        planning=args.planning, menu_policy=args.menu_policy,
    )
    if args.format == "json":
        _write_json(evaluation.to_obj())
    else:
        sys.stdout.write(evaluation.to_text())
    return 0


def _cmd_simulate(args) -> int:
    if args.rounds < 1:
        raise UsageError("--rounds must be at least 1")
    if args.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    threshold = None
    if args.es_threshold is not None:
        try:
            threshold = parse_rational(args.es_threshold)
        except ValueError as exc:
            raise UsageError(f"--es-threshold: {exc}") from None
        if not 0 < threshold < 1:
            raise UsageError("--es-threshold must lie strictly between 0 and 1")
    doc = _load_doc(args.file)
    _lookup(_with_hypotheses(doc).hypotheses, args.truth, "hypothesis")
    if args.menu is None:
        if not doc.menus:
            raise UsageError("the file defines no menu; simulate needs one to probe")
        if len(doc.menus) > 1:
            raise UsageError(f"the file defines {len(doc.menus)} menus; name the one to probe with --menu NAME")
        menu = next(iter(doc.menus.values()))
    else:
        menu = _lookup(doc.menus, args.menu, "menu")
    measures = {name: measure for name, (measure, _) in doc.hypotheses.items()}
    model = ObservationModel(outcomes=tuple(doc.states), likelihoods=measures, truth=args.truth)
    probe = Probe(menu=menu, utility=doc.utility, measures=measures)
    prior = {name: weight for name, (_, weight) in doc.hypotheses.items()}
    seeds = range(args.seed, args.seed + args.seeds)
    if threshold is not None:
        summary = compare_updaters(model, prior, probe, args.rounds, seeds, threshold)
        sys.stdout.write(summary.to_csv())
        return 0
    for seed in seeds:  # each seed's rows are written as soon as it is simulated
        trajectory = simulate(model, prior, probe, args.rounds, seed)
        if seed == seeds[0]:
            sys.stdout.write(f"seed,{trajectory.csv_header()}\n")
        sys.stdout.write(trajectory.csv_text(f"{seed},"))
    return 0


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="wregret",
        description="Decision making under ambiguity with weighted sets of probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="rank a menu under a decision rule")
    p_eval.add_argument("file")
    p_eval.add_argument("--rule", required=True, choices=list(RULES))
    p_eval.add_argument("--menu", required=True)
    p_eval.add_argument("--measure", help="hypothesis name (required for --rule seu)")
    p_eval.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p_eval.set_defaults(func=_cmd_eval)

    p_update = sub.add_parser("update", help="likelihood-update the weighted set on an event")
    p_update.add_argument("file")
    p_update.add_argument("--event", required=True)
    p_update.set_defaults(func=_cmd_update)

    p_axioms = sub.add_parser("axioms", help="check axioms or print the rule-by-axiom matrix")
    p_axioms.add_argument("file")
    p_axioms.add_argument("--axiom", required=True, choices=list(AXIOM_IDS) + ["matrix"])
    p_axioms.add_argument("--rule", choices=list(MATRIX_RULES))
    p_axioms.add_argument("--samples", type=int, default=200)
    p_axioms.add_argument("--seed", type=int, default=0)
    p_axioms.add_argument("--format", choices=["text", "json"], default="text")
    p_axioms.set_defaults(func=_cmd_axioms)

    p_tree = sub.add_parser("tree", help="evaluate a decision tree")
    p_tree.add_argument("file")
    p_tree.add_argument("treefile")
    p_tree.add_argument("--planning", choices=["ex-ante", "sophisticated"], default="sophisticated")
    p_tree.add_argument("--menu-policy", choices=["full", "viable"], default="full")
    p_tree.add_argument("--format", choices=["text", "json"], default="text")
    p_tree.set_defaults(func=_cmd_tree)

    p_sim = sub.add_parser("simulate", help="repeated-observation weight dynamics (CSV)")
    p_sim.add_argument("file")
    p_sim.add_argument("--truth", required=True)
    p_sim.add_argument("--rounds", type=int, default=100)
    p_sim.add_argument("--seeds", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--menu")
    p_sim.add_argument("--es-threshold", help="compare updating styles at this threshold")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except ParseError as exc:
        for diagnostic in exc.diagnostics:
            print(str(diagnostic), file=sys.stderr)
        return 2
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """`main` as the whole process: its exit code, or 1 on a failed write."""
    gc.disable()
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's --help writes, then exits 0
            code = exc.code
        sys.stdout.flush()
    except OSError as exc:  # main turns every failed read into a usage error
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
