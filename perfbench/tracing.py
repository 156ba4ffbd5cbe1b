"""Per-layer tracing for the benchmark's traced run.

`install` wraps the public entry points of every wregret module and rebinds
each module-level name that refers to one of them (so `cli.rank`,
`axioms.mwer` and `measures.in_downward_convex_hull` go through the wrapper
too), then counts `Fraction.__new__` calls by patching the class.  Nothing in
the program changes: the wrappers live here and are installed only in a
traced process.

Self time of a wrapped function is its total time minus the time spent in
wrapped functions it called directly.

Run as a script, it is a traced stand-in for `python -m wregret.cli`:

    python3 perfbench/tracing.py STATS.json <wregret arguments...>

which runs the CLI with tracing installed and writes the raw counters to
STATS.json when the CLI returns.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# layer -> wrapped entry points ("Class.method" for methods)
TARGETS = {
    "cli": ("main",),
    "dsl": ("parse_problem", "parse_tree", "serialize_weighted_set"),
    "decisions": (
        "rank", "seu", "mmeu", "max_regret", "mer", "mwer", "regret_profile", "mix",
        "mix_menu", "Act.utility_profile", "Menu.best_profile", "Ranking.to_tsv",
        "Ranking.to_obj",
    ),
    "measures": (
        "likelihood_update", "sequential_update", "normalize", "Measure.condition",
        "Measure.expectation", "to_hull", "hull_equal", "support_value",
    ),
    "linfeas": ("solve_nonneg", "in_downward_convex_hull"),
    "axioms": (
        "check_axiom", "axiom_matrix", "PreferenceOracle.score", "AxiomMatrix.to_text",
        "AxiomMatrix.to_obj",
    ),
    "dynamics": ("evaluate_tree", "enumerate_plans"),
    "learning": ("simulate", "compare_updaters"),
    "rational": ("format_rational", "format_decimal", "parse_rational"),
}

MATRIX_AXIOMS = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12")
_SCORE = "axioms.PreferenceOracle.score"
_RULES = frozenset(f"decisions.{r}" for r in ("seu", "mmeu", "max_regret", "mer", "mwer"))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Counters and timers of one traced process."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.axiom_total: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # applicable, samples, rule_evals_in_score, seed_rounds, fraction_new
        self.active = True
        self._stack: list[list] = []

    def wrap(self, name: str, fn):
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name in _RULES and stack and stack[-1][0] == _SCORE:
                self.counts["rule_evals_in_score"] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
            if name == "axioms.check_axiom":
                self.axiom_total[str(_arg(args, kwargs, 0, "axiom"))] += elapsed
                self.counts["applicable"] += result.applicable
                self.counts["samples"] += result.samples
            elif name == "learning.simulate":
                self.counts["seed_rounds"] += _arg(args, kwargs, 3, "rounds")
            return result

        return wrapper

    def count_fractions(self) -> None:
        original = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            if self.active:
                self.counts["fraction_new"] += 1
            return original(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)

    def raw(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "axiom_total": dict(self.axiom_total),
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind all wregret module names bound to it."""
    import wregret.cli  # noqa: F401  (imports every wregret module)

    modules = [m for n, m in sys.modules.items() if n == "wregret" or n.startswith("wregret.")]
    for layer, names in TARGETS.items():
        module = sys.modules[f"wregret.{layer}"]
        for qualname in names:
            metric = f"{layer}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, attr, tracer.wrap(metric, cls.__dict__[attr]))
                continue
            original = getattr(module, qualname)
            wrapped = tracer.wrap(metric, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    tracer.count_fractions()


def merge(raws: list[dict]) -> dict:
    out = {"calls": Counter(), "total": Counter(), "self": Counter(), "axiom_total": Counter(), "counts": Counter()}
    for raw in raws:
        for key, table in out.items():
            table.update(raw[key])
    return {key: dict(table) for key, table in out.items()}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric the traced run emits, in a stable order."""
    spec = []

    def add(name, unit, better):
        spec.append({"name": name, "unit": unit, "better": better})

    for layer, names in TARGETS.items():
        for qualname in names:
            add(f"{layer}.{qualname}.calls", "count", "lower")
            add(f"{layer}.{qualname}.self_ms", "ms", "lower")
        if layer == "cli":
            add("cli.main.total_ms", "ms", "lower")
            add("cli.import_ms", "ms", "lower")
        elif layer == "axioms":
            for axiom in MATRIX_AXIOMS:
                add(f"axioms.check_axiom.{axiom}.total_ms", "ms", "lower")
            add("axioms.applicable_ratio", "ratio", "higher")
            add("axioms.score_cache_hit_ratio", "ratio", "higher")
        elif layer == "learning":
            add("learning.rounds_per_s", "1/s", "higher")
        elif layer == "rational":
            add("rational.fraction_new.calls", "count", "lower")
    add("trace_overhead_ratio", "ratio", "lower")
    return spec


def per_layer_metrics(raw: dict, import_ms: float, overhead: float) -> dict:
    calls, total, self_time, counts = raw["calls"], raw["total"], raw["self"], raw["counts"]
    score_calls = calls.get(_SCORE, 0)
    simulate_s = total.get("learning.simulate", 0.0)
    values = {}
    for layer, names in TARGETS.items():
        for qualname in names:
            metric = f"{layer}.{qualname}"
            values[f"{metric}.calls"] = calls.get(metric, 0)
            values[f"{metric}.self_ms"] = self_time.get(metric, 0.0) * 1000
    values["cli.main.total_ms"] = total.get("cli.main", 0.0) * 1000
    values["cli.import_ms"] = import_ms
    for axiom in MATRIX_AXIOMS:
        values[f"axioms.check_axiom.{axiom}.total_ms"] = raw["axiom_total"].get(axiom, 0.0) * 1000
    samples = counts.get("samples", 0)
    values["axioms.applicable_ratio"] = counts.get("applicable", 0) / samples if samples else 0.0
    values["axioms.score_cache_hit_ratio"] = (
        1 - counts.get("rule_evals_in_score", 0) / score_calls if score_calls else 0.0
    )
    values["learning.rounds_per_s"] = counts.get("seed_rounds", 0) / simulate_s if simulate_s else 0.0
    values["rational.fraction_new.calls"] = counts.get("fraction_new", 0)
    values["trace_overhead_ratio"] = overhead
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in per_layer_spec()}


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import wregret.cli as cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.active = False
        with open(stats_path, "w", encoding="utf-8") as out:
            json.dump(tracer.raw(), out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
