"""Workloads of the wregret benchmark and the worker process that runs one.

`run.py` starts this file as a fresh worker process per workload:

    python3 perfbench/bench.py '{"workload": ..., "seed": ..., "seconds": ...,
                                 "trace": 0|1, "smoke": false, "setup_only": false}'

The worker generates the workload's inputs from the seed, runs one warm-up
op, prints `ready`, and (unless `setup_only`) runs the workload's op list
from a single client in a closed loop: each op starts when the previous one
has finished, so at most one CLI child runs at a time.  It then checks every
op's output and prints one JSON line with the measurements.

The op list is fixed by (workload, seed, seconds, smoke): `seconds` sets how
many blocks of ops run, from each block's nominal cost on a 2-vCPU reference
machine, so both sides of a comparison do exactly the same work.

Maintenance: `python3 perfbench/bench.py --pin` re-records the expected
stdout digests for seed 0 in `digests.json`; do it only when a change to
stdout is intended and explained.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".bench_build") / "perfbench"  # relative to ROOT, where every child runs
FIXTURES = Path("src") / "wregret" / "fixtures"
DIGESTS = HERE / "digests.json"

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import gen  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

Check = Callable[[object], Optional[str]]  # returns an error message, or None when the output is right


# -- ops ------------------------------------------------------------------------------

@dataclass
class Captured:
    """What the client keeps of one CLI child's run."""

    code: int
    sha1: str
    stdout: bytes  # whole stdout, or what a streaming scanner extracted
    stderr: str


class Scanner:
    """Keeps the whole stdout; ops with large output use FinalRows instead."""

    def __init__(self):
        self.parts: list[bytes] = []

    def feed(self, chunk: bytes) -> None:
        self.parts.append(chunk)

    def result(self) -> bytes:
        return b"".join(self.parts)


class FinalRows(Scanner):
    """Keeps only the header, the line count and each seed's final row of a
    `simulate` CSV, so the client's memory does not grow with the output."""

    def __init__(self, rounds: int):
        self.pattern = re.compile(rb"^\d+,%d,.*$" % rounds, re.M)
        self.lines = 0
        self.rows: list[bytes] = []
        self.header = b""
        self.tail = b""

    def feed(self, chunk: bytes) -> None:
        data = self.tail + chunk
        cut = data.rfind(b"\n") + 1
        block, self.tail = data[:cut], data[cut:]
        if not self.lines and cut:
            self.header = block[: block.index(b"\n")]
        self.lines += block.count(b"\n")
        self.rows += self.pattern.findall(block)

    def result(self) -> bytes:
        return b"\n".join([self.header, b"%d" % self.lines, self.tail, *self.rows])


@dataclass
class CliOp:
    argv: list[str]  # arguments after `wregret`
    check: Check  # receives a Captured
    scanner: Callable[[], Scanner] = Scanner

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class LibOp:
    key: str
    call: Callable[[], object]  # the timed work
    check: Check  # receives what `call` returned
    text: Callable[[object], str]  # canonical output text, for the digest


@dataclass
class Outcome:
    cpu_s: float  # user+sys of the CLI child, or of this process for in-process ops
    wall_s: float
    rss_kb: int  # peak RSS of the CLI child; 0 for in-process ops
    output: object  # Captured or the library call's result
    sha1: str
    slowdown: float = 1.0  # the host's slowdown around the op

    @property
    def latency_s(self) -> float:
        """CPU time at the reference machine's fast speed."""
        return self.cpu_s / self.slowdown


# -- host speed -----------------------------------------------------------------------
# The vCPUs of the reference machine switch between two speeds every few
# seconds, and sometimes stay slow for a minute, under load from other
# tenants; the same op's CPU time differs by up to 1.7x between them.  Each
# op's CPU time is therefore divided by the host's slowdown, measured with
# fixed probes just before and just after the op.  Code slows by different
# factors (Fraction arithmetic more than interpreter start), so each workload
# weighs the two probes as its ops slow.

def _start_probe() -> float:
    """CPU time of starting a bare interpreter, the fixed part of a CLI op."""
    proc = subprocess.Popen([sys.executable, "-I", "-S", "-c", "pass"])
    _, _, usage = os.wait4(proc.pid, 0)
    return usage.ru_utime + usage.ru_stime


def _fraction_probe() -> float:
    start = time.process_time()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i % 97, i % 89 + 1) * Fraction(3, i)
    return time.process_time() - start


# CPU seconds of each probe on the reference machine at its fast speed
PROBE_SECONDS = {"start": 0.0112, "fraction": 0.0043}


def slowdown(fraction_weight: float) -> float:
    """How many times slower the host runs now than the reference machine at
    its fast speed: 1.0 there, 1.7 when the probes take 1.7 times as long."""
    factor = 0.0
    if fraction_weight < 1:
        factor += (1 - fraction_weight) * _start_probe() / PROBE_SECONDS["start"]
    if fraction_weight > 0:
        factor += fraction_weight * _fraction_probe() / PROBE_SECONDS["fraction"]
    return factor


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_cli(op: CliOp, stats_path: Optional[Path] = None) -> Outcome:
    if stats_path is None:
        cmd = [sys.executable, "-m", "wregret.cli", *op.argv]
    else:
        cmd = [sys.executable, str(HERE / "tracing.py"), str(stats_path), *op.argv]
    scanner = op.scanner()
    digest = hashlib.sha1()
    err_path = ROOT / WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=_env())
        try:
            while chunk := proc.stdout.read(1 << 16):
                digest.update(chunk)
                scanner.feed(chunk)
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
    captured = Captured(
        proc.returncode, digest.hexdigest(), scanner.result(),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )
    return Outcome(usage.ru_utime + usage.ru_stime, wall, usage.ru_maxrss, captured, captured.sha1)


def run_lib(op: LibOp) -> Outcome:
    start, cpu_start = time.perf_counter(), time.process_time()
    result = op.call()
    cpu, wall = time.process_time() - cpu_start, time.perf_counter() - start
    return Outcome(cpu, wall, 0, result, "")


def _exit_ok(captured: Captured, code: int = 0) -> Optional[str]:
    if captured.code != code:
        return f"exit code {captured.code}, expected {code}: {captured.stderr.strip()[:200]}"
    return None


# -- checks of CLI outputs ----------------------------------------------------------

def compare_ranking(problem: gen.Problem, rule: str, menu: str, entries: list, seu_index: int,
                    groups: list[list[str]], scores: dict) -> Optional[str]:
    """Compare a ranking with the reference over the weighted entries."""
    belief = {"seu": entries[seu_index][0], "mmeu": [m for m, _ in entries],
              "mer": [m for m, _ in entries], "mwer": entries, "regret": None}[rule]
    expected = reference.scores(rule, {a: problem.profile(a) for a in problem.menus[menu]}, belief)
    if scores != expected or groups != reference.groups(rule, expected):
        return f"{rule} ranking differs from the reference"
    return None


def check_eval(problem: gen.Problem, rule: str, menu: str, measure: Optional[str], fmt: str, c: Captured):
    if bad := _exit_ok(c):
        return bad
    if fmt == "json":
        obj = json.loads(c.stdout)
        groups = [[a["name"] for a in g["acts"]] for g in obj["groups"]]
        scores = {a["name"]: Fraction(a["score"]) for g in obj["groups"] for a in g["acts"]}
    else:
        groups, scores = reference.parse_ranking_tsv(c.stdout.decode())
    seu_index = list(problem.hypotheses).index(measure) if measure else 0
    return compare_ranking(problem, rule, menu, list(problem.hypotheses.values()), seu_index, groups, scores)


def check_update(problem: gen.Problem, event: str, c: Captured):
    if bad := _exit_ok(c):
        return bad
    expected = reference.likelihood_update(list(problem.hypotheses.values()), problem.events[event])
    if reference.parse_weighted_set(c.stdout.decode()) != expected:
        return "updated weighted set differs from the reference"
    return None


def check_tree(c: Captured, chosen_plan: Optional[str] = None):
    """Every node keeps its best-scoring plans; the pick is the first survivor."""
    if bad := _exit_ok(c):
        return bad
    chosen, survivors, nodes = reference.parse_tree_text(c.stdout.decode())
    if chosen != min(survivors) or not nodes:
        return f"chosen plan {chosen!r} is not the first survivor"
    for node, scores, kept, eliminated in nodes:
        kept_scores = {scores[n] for n in kept}
        if len(kept_scores) != 1 or any(scores[n] <= min(kept_scores) for n in eliminated):
            return f"node {node} keeps a plan that does not score best"
    if chosen_plan is not None and chosen != chosen_plan:
        return f"chose {chosen!r}, the known answer is {chosen_plan!r}"
    return None


_DIAGNOSTIC = re.compile(r"^error: line (\d+), column \d+: ", re.M)


def check_malformed(line: int, c: Captured):
    if bad := _exit_ok(c, code=2):
        return bad
    if line not in {int(n) for n in _DIAGNOSTIC.findall(c.stderr)}:
        return f"no positioned diagnostic at line {line}"
    return None


def check_known_ranking(best: list[str], score: Fraction, c: Captured):
    """A ranking the paper's delivery example fixes."""
    if bad := _exit_ok(c):
        return bad
    groups, scores = reference.parse_ranking_tsv(c.stdout.decode())
    if groups[0] != best or scores[best[0]] != score:
        return f"best group {groups[0]} at {scores[groups[0][0]]}, expected {best} at {score}"
    return None


# The paper's pattern: the weighted-regret rule alone fails constant-mix
# (ax12) and worst-case expected utility alone fails independence.
MATRIX_PATTERN = {("mwer", "ax12"), ("mmeu", "independence")}


def check_matrix(fmt: str, exact: bool, c: Captured):
    if bad := _exit_ok(c):
        return bad
    if fmt == "json":
        cells = json.loads(c.stdout)["cells"]
        violated = {(r, col) for r, row in cells.items() for col, v in row.items() if v == "violated"}
        rules = set(cells)
    else:
        cells = reference.parse_matrix_text(c.stdout.decode())
        violated = {(r, col) for r, row in cells.items() for col, v in row.items() if v}
        rules = set(cells)
    if rules != {"seu", "regret", "mer", "mwer", "mmeu"}:
        return f"matrix rows {sorted(rules)}"
    allowed = violated == MATRIX_PATTERN if exact else violated <= MATRIX_PATTERN
    if not allowed:
        return f"violations {sorted(violated)} do not match the paper's pattern"
    return None


def check_simulate(rounds: int, seeds: list[int], truth: str, c: Captured):
    """Row count, and every seed's final weights concentrated on the truth."""
    if bad := _exit_ok(c):
        return bad
    header, count, tail, *rows = c.stdout.split(b"\n")
    columns = header.decode().split(",")
    if tail or int(count) != 1 + len(seeds) * (rounds + 1) or len(rows) != len(seeds):
        return f"{int(count)} lines, expected {1 + len(seeds) * (rounds + 1)}"
    truth_col = columns.index(f"weight_{truth}")
    for seed, row in zip(seeds, rows):
        cells = row.decode().split(",")
        weights = [float(cells[i]) for i, name in enumerate(columns) if name.startswith("weight_")]
        if int(cells[0]) != seed or float(cells[truth_col]) != 1.0 or sorted(weights)[-2] > 1e-6:
            return f"seed {cells[0]} did not concentrate on {truth}: {row.decode()}"
        if cells[-1] != "1":
            return f"seed {seed}: final ranking differs from expected utility under the truth"
    return None


def check_compare(rounds: int, c: Captured):
    """Agreement shares lie in [0, 1]; once weights have concentrated, the
    weighted-regret ranking agrees with threshold updating on every seed."""
    if bad := _exit_ok(c):
        return bad
    lines = c.stdout.decode().rstrip("\n").split("\n")
    if lines[0] != "round,agree_mwer_mer,agree_mwer_es,agree_mer_es,agree_all" or len(lines) != rounds + 2:
        return "bad comparison table shape"
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")[1:]]
        if not all(0 <= v <= 1 for v in values) or values[3] > min(values[:3]):
            return f"inconsistent agreement row {line}"
    if float(lines[-1].split(",")[2]) != 1.0:
        return "final-round weighted-regret and threshold rankings disagree"
    return None


# -- workloads ------------------------------------------------------------------------

class Workload:
    name = ""
    block_seconds = 1.0  # nominal cost of one block of ops on the reference machine
    fraction_weight = 0.0  # weight of the Fraction probe in the slowdown; see slowdown()

    def __init__(self, seed: int, seconds: float, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.blocks = 1 if smoke else max(1, round(seconds / self.block_seconds))
        self.dir = WORK / f"{self.name}-{seed}{'-smoke' if smoke else ''}"

    def rng(self, block: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{block}")

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        (ROOT / path).write_text(text, encoding="utf-8")
        return str(path)

    def setup(self) -> None:
        # byte-compile the program as an installed package would be, so that
        # CLI children do not recompile it on every start when the
        # environment forbids writing bytecode
        compileall.compile_dir(str(ROOT / "src" / "wregret"), quiet=1)
        (ROOT / self.dir).mkdir(parents=True, exist_ok=True)
        self.ops = self.build()
        if len(self.ops) < 11:
            raise ValueError("a run needs at least 11 ops to report op_tail_ms")
        self.warm_up()

    def build(self) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, op, stats_path: Optional[Path] = None) -> Outcome:
        return run_cli(op, stats_path)


class CliWorkload(Workload):
    warm_up_op: CliOp

    def kind(self, op: CliOp) -> str:
        """The class of op, for the import share in the traced run's details."""
        return op.argv[0]

    def warm_up(self) -> None:
        outcome = run_cli(self.warm_up_op)
        if error := self.warm_up_op.check(outcome.output):
            raise RuntimeError(f"warm-up op failed: {error}")


class AxiomMatrix(CliWorkload):
    """`wregret axioms FILE --axiom matrix`: exact arithmetic in axioms/decisions.

    A block is one matrix over `delivery_weighted.dp` and three over seeded
    fixtures, so the median op is a generated one.  At 22 samples a run has
    20 ops; importing wregret.cli is about a tenth of each op's CPU time (the
    traced run reports the share per kind of op).
    """

    name = "axiom_matrix"
    block_seconds = 4.0
    fraction_weight = 0.5
    samples = 22
    generated_per_block = 3

    def build(self) -> list:
        weighted = str(FIXTURES / "delivery_weighted.dp")
        self.warm_up_op = CliOp(
            ["axioms", weighted, "--axiom", "1", "--rule", "seu", "--samples", "1"],
            _exit_ok,
        )
        samples = 2 if self.smoke else self.samples
        ops = []
        for block in range(self.blocks):
            rng = self.rng(block)
            paths = [(weighted, True)]
            for i in range(self.generated_per_block):
                problem = gen.problem(rng, 2, 2, 3)
                if all(w == 1 for _, w in problem.hypotheses.values()):
                    dist, _ = problem.hypotheses["h1"]
                    problem.hypotheses["h1"] = (dist, Fraction(1, 2))
                paths.append((self.write(f"axioms-{block}-{i}.dp", gen.problem_text(problem)), False))
            for i, (path, exact) in enumerate(paths):
                fmt = ("text", "json")[(block + i) % 2]
                argv = ["axioms", path, "--axiom", "matrix", "--samples", str(samples),
                        "--seed", str(rng.randrange(10**6)), "--format", fmt]
                ops.append(CliOp(argv, partial(check_matrix, fmt, exact)))
        if self.smoke:
            ops *= 3
        return ops

    def kind(self, op: CliOp) -> str:
        return "delivery_weighted" if op.argv[1].endswith("delivery_weighted.dp") else "generated"


# (rounds, seeds, es-threshold or None); one block costs about 18 s of CPU.
# 31 of its 36 ops are 500x10 runs, so the median and the tail (the
# 26th-fastest op) sit inside that class and do not jump between classes
# from run to run; the big runs set ops_per_s and peak_rss_mb.
SIMULATE_BLOCK = (
    (2000, 200, None), (2000, 10, None), (500, 50, None),
    *[(500, 10, None)] * 29, (500, 50, "1/2"), (500, 10, "1/3"), (500, 10, "1/2"), (2000, 10, "2/3"),
)
SIMULATE_SMOKE = tuple((r, 1, t) for r, _, t in SIMULATE_BLOCK)


class SimulateStream(CliWorkload):
    """`wregret simulate learning.dp`: the float simulator and CSV writing."""

    name = "simulate_stream"
    block_seconds = 18.0

    def build(self) -> list:
        learning = str(FIXTURES / "learning.dp")
        self.warm_up_op = CliOp(
            ["simulate", learning, "--truth", "coin", "--rounds", "2", "--seeds", "1"],
            _exit_ok,
        )
        ops = []
        for block in range(self.blocks):
            rng = self.rng(block)
            shape = list(SIMULATE_SMOKE if self.smoke else SIMULATE_BLOCK)
            rng.shuffle(shape)
            for rounds, seeds, threshold in shape:
                truth = rng.choice(("mostly_good", "coin"))
                first = rng.randrange(10**6)
                argv = ["simulate", learning, "--truth", truth, "--rounds", str(rounds),
                        "--seeds", str(seeds), "--seed", str(first)]
                if threshold is None:
                    seed_list = list(range(first, first + seeds))
                    check = partial(check_simulate, rounds, seed_list, truth)
                    ops.append(CliOp(argv, check, partial(FinalRows, rounds)))
                else:
                    ops.append(CliOp(argv + ["--es-threshold", threshold], partial(check_compare, rounds)))
        return ops

    def kind(self, op: CliOp) -> str:
        rounds, seeds = op.argv[op.argv.index("--rounds") + 1], op.argv[op.argv.index("--seeds") + 1]
        return f"{rounds}x{seeds}" + (" es-threshold" if "--es-threshold" in op.argv else "")


def _bundled_ops() -> list[CliOp]:
    """Every op over a bundled fixture that cli_cold may draw; their outputs
    are seed-independent, so their pinned digests apply to every seed."""
    fx = {name: str(FIXTURES / name) for name in (
        "delivery.dp", "delivery_weighted.dp", "cupcake.dp", "restaurant.dp", "restaurant.tree")}
    ops = []
    for doc in ("delivery.dp", "delivery_weighted.dp"):
        for menu in ("base", "extended"):
            for rule in ("seu", "mmeu", "regret", "mer", "mwer"):
                argv = ["eval", fx[doc], "--rule", rule, "--menu", menu]
                argv += ["--measure", "one"] if rule == "seu" else []
                check = _exit_ok
                if doc == "delivery.dp" and rule == "mer":
                    # the paper's menu-dependence example
                    best = (["check"], 4999) if menu == "base" else (["cont"], 10000)
                    check = partial(check_known_ranking, best[0], Fraction(best[1]))
                ops.append(CliOp(argv, check))
    for event in ("first100good", "one_class", "ten_class"):
        ops.append(CliOp(["update", fx["cupcake.dp"], "--event", event], _exit_ok))
    for planning in ("ex-ante", "sophisticated"):
        for policy in ("full", "viable"):
            # ex-ante commits to chinese+rice; backward induction picks italian
            known = "chinese+rice" if planning == "ex-ante" else "italian"
            argv = ["tree", fx["restaurant.dp"], fx["restaurant.tree"],
                    "--planning", planning, "--menu-policy", policy]
            ops.append(CliOp(argv, partial(check_tree, chosen_plan=known)))
    return ops


class CliCold(CliWorkload):
    """Many short CLI calls: interpreter start, import and `dsl` parsing.

    The tree ops run on a 6-state problem with a fixed-shape 512-plan tree,
    so they form the slowest class and op_tail_ms lands inside it (dynamics)
    rather than on whichever short ops a burst of host load slowed.
    """

    name = "cli_cold"
    block_seconds = 2.6

    def build(self) -> list:
        bundled = _bundled_ops()
        self.warm_up_op = bundled[0]
        ops = []
        for block in range(self.blocks):
            rng = self.rng(block)
            problem = gen.problem(rng, rng.randint(2, 6), rng.randint(2, 16), rng.randint(1, 8))
            problem.events["observed"] = gen.random_event(rng, problem.states)
            path = self.write(f"problem-{block}.dp", gen.problem_text(problem))
            tree_problem = gen.problem(rng, 6, 2, 4)
            tree = gen.tree_text(rng, tree_problem, fanout=8)
            tree_problem_path = self.write(f"tree-{block}.dp", gen.problem_text(tree_problem))
            tree_path = self.write(f"tree-{block}.tree", tree)
            for rule in reference.LOWER_IS_BETTER:
                menu = rng.choice(sorted(problem.menus))
                argv = ["eval", path, "--rule", rule, "--menu", menu]
                measure = rng.choice(sorted(problem.hypotheses)) if rule == "seu" else None
                argv += ["--measure", measure] if measure else []
                fmt = rng.choice(("tsv", "json"))
                argv += ["--format", fmt]
                ops.append(CliOp(argv, partial(check_eval, problem, rule, menu, measure, fmt)))
            ops.append(CliOp(["update", path, "--event", "observed"], partial(check_update, problem, "observed")))
            ops.append(CliOp(["tree", tree_problem_path, tree_path, "--planning", "ex-ante"], check_tree))
            policy = rng.choice(("full", "viable"))
            ops.append(CliOp(["tree", tree_problem_path, tree_path, "--menu-policy", policy], check_tree))
            ops += rng.sample(bundled, 3)
            kind = gen.MUTATIONS[(block + self.seed) % len(gen.MUTATIONS)]
            text, line = gen.malformed(rng, gen.problem_text(problem), kind)
            bad = self.write(f"malformed-{block}.dp", text)
            command = rng.choice((["eval", bad, "--rule", "mer", "--menu", "all"],
                                  ["update", bad, "--event", "observed"],
                                  ["tree", bad, tree_path]))
            ops.append(CliOp(command, partial(check_malformed, line)))
        return ops


class LibraryExact(Workload):
    """In-process library calls: ranking, sequential updating and the hull."""

    name = "library_exact"
    block_seconds = 3.0
    fraction_weight = 1.0
    menu_sizes = (4, 16, 64)
    belief_sizes = (2, 8, 32)

    def build(self) -> list:
        from wregret import decisions, measures

        ops = []
        menu_sizes = (2, 4) if self.smoke else self.menu_sizes
        belief_sizes = (2, 3) if self.smoke else self.belief_sizes
        for block in range(self.blocks):
            rng = self.rng(block)
            k = 0
            for m in menu_sizes:
                for b in belief_sizes:
                    problem = gen.problem(rng, 3 + k % 4, m, b)
                    k += 1
                    tag = f"s{self.seed}.{block}.m{m}.b{b}"
                    ops += self._instance_ops(rng, problem, tag, decisions, measures)
            # five 32-measure hulls per block put the 11th-slowest op inside
            # that class, so op_tail_ms follows linfeas; over 3 states each
            # costs about 0.3 s, so a run has 35 of them and their spread in
            # cost from instance to instance averages out
            shapes = [(belief_sizes[0], 6), (belief_sizes[1], 5), *[(belief_sizes[-1], 3)] * 5]
            for b, states in shapes:
                problem = gen.problem(rng, states, 2, b)
                wset = _wset(problem)
                ops.append(LibOp(
                    f"hull s{self.seed}.{block}.b{b}.n{states}",
                    lambda w=wset: measures.hull_equal(measures.to_hull(w), measures.to_hull(measures.normalize(w))),
                    lambda result: None if result is True else "hull of w differs from hull of normalize(w)",
                    str,
                ))
        return ops

    def _instance_ops(self, rng, problem: gen.Problem, tag: str, decisions, measures) -> list:
        u, menu, wset = _utility(problem), _menu(problem), _wset(problem)
        measure_list = tuple(m for m, _ in wset.entries)
        seu_measure = rng.randrange(len(measure_list))
        beliefs = {"seu": measure_list[seu_measure], "mmeu": measure_list, "regret": None,
                   "mer": measure_list, "mwer": wset}
        ops = []
        for rule, belief in beliefs.items():
            ops.append(LibOp(
                f"rank {rule} {tag}",
                partial(lambda r, b: decisions.rank(r, menu, u, b), rule, belief),
                partial(check_rank, problem, rule, seu_measure, list(problem.hypotheses.values())),
                lambda ranking: ranking.to_tsv(),
            ))
        first = gen.random_event(rng, problem.states)
        second = gen.random_event(rng, problem.states)
        while not first & second:
            second = gen.random_event(rng, problem.states)

        def update_and_rank():
            updated = measures.sequential_update(wset, first, second)
            return updated, decisions.rank("mwer", menu, u, updated)

        ops.append(LibOp(
            f"update {tag}", update_and_rank,
            partial(check_sequential, problem, wset, first, second),
            lambda result: result[1].to_tsv(),
        ))
        return ops

    def warm_up(self) -> None:
        from wregret import decisions, measures

        problem = gen.problem(random.Random(0), 3, 4, 3)
        wset = _wset(problem)
        for rule in reference.LOWER_IS_BETTER:
            belief = {"seu": wset.entries[0][0], "regret": None, "mwer": wset}.get(
                rule, tuple(m for m, _ in wset.entries))
            decisions.rank(rule, _menu(problem), _utility(problem), belief)
        if not measures.hull_equal(measures.to_hull(wset), measures.to_hull(measures.normalize(wset))):
            raise RuntimeError("warm-up hull check failed")

    def run(self, op, stats_path=None) -> Outcome:
        return run_lib(op)


def _utility(problem: gen.Problem):
    from wregret.decisions import UtilitySpec
    return UtilitySpec(problem.utility)


def _menu(problem: gen.Problem):
    from wregret.decisions import Act, Lottery, Menu
    lotteries = {name: Lottery(dist) for name, dist in problem.lotteries.items()}
    return Menu(Act(a, {s: lotteries[l] for s, l in problem.acts[a].items()}) for a in problem.menus["all"])


def _wset(problem: gen.Problem):
    from wregret.measures import Measure, WeightedMeasureSet
    return WeightedMeasureSet([(Measure(m), w) for m, w in problem.hypotheses.values()], problem.states)


def check_rank(problem: gen.Problem, rule: str, seu_index: int, entries: list, ranking):
    groups = [list(g) for g in ranking.groups]
    return compare_ranking(problem, rule, "all", entries, seu_index, groups, ranking.scores)


def check_sequential(problem, wset, first, second, result):
    """sequential_update(w, A, B) equals one update on A ∩ B, and both match
    the reference update; the re-rank matches the reference ranking."""
    from wregret.measures import likelihood_update

    updated, ranking = result
    if updated != likelihood_update(wset, first & second):
        return "sequential update differs from the update on the intersection"
    step = reference.likelihood_update(list(problem.hypotheses.values()), first)
    step = reference.likelihood_update([(dict(k), w) for k, w in step.items()], second)
    if {tuple(m.items()): w for m, w in updated.entries} != step:
        return "sequential update differs from the reference update"
    entries = [(dict(m.items()), w) for m, w in updated.entries]
    return check_rank(problem, "mwer", 0, entries, ranking)


WORKLOADS = {w.name: w for w in (AxiomMatrix, SimulateStream, CliCold, LibraryExact)}


# -- measuring ------------------------------------------------------------------------

def load_digests(smoke: bool) -> dict[str, str]:
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table["smoke" if smoke else "default"] | table["bundled"]


def digest_of(op, outcome: Outcome) -> str:
    if isinstance(op, LibOp):
        return hashlib.sha1(op.text(outcome.output).encode()).hexdigest()
    return outcome.sha1


def verify(ops: list, outcomes: list[Outcome], expected: dict[str, str]) -> list[str]:
    """One message per failed op: a wrong output, a wrong exit code, a digest
    that differs from the pinned one or from an earlier run of the same op."""
    failures = []
    seen: dict[str, str] = {}
    for op, outcome in zip(ops, outcomes):
        try:
            error = op.check(outcome.output)
        except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
            error = f"unparseable output: {exc!r}"
        digest = digest_of(op, outcome)
        if error is None and expected.get(op.key, digest) != digest:
            error = "stdout digest differs from the pinned one"
        if error is None and seen.setdefault(op.key, digest) != digest:
            error = "same op, different stdout"
        if error is not None:
            failures.append(f"{op.key}: {error}")
    return failures


def run_ops(workload: Workload, ops: list, trace_dir: Optional[Path] = None) -> list[Outcome]:
    outcomes = []
    before = slowdown(workload.fraction_weight)
    for i, op in enumerate(ops):
        stats = None if trace_dir is None else trace_dir / f"{i}.json"
        outcome = workload.run(op, stats)
        after = slowdown(workload.fraction_weight)
        outcome.slowdown = (before + after) / 2
        outcomes.append(outcome)
        before = after
    return outcomes


def measure(workload: Workload, expected: dict[str, str]) -> dict:
    outcomes = run_ops(workload, workload.ops)
    failures = verify(workload.ops, outcomes, expected)
    latencies = sorted(o.latency_s for o in outcomes)
    n = len(latencies)
    return {
        "attempted": n,
        "failures": failures,
        "ops_per_s": n / sum(latencies),
        "cpu_ops_per_s": n / sum(o.cpu_s for o in outcomes),
        "wall_ops_per_s": n / sum(o.wall_s for o in outcomes),
        "slowdown": statistics.median(o.slowdown for o in outcomes),
        "op_p50_ms": statistics.median(latencies) * 1000,
        # the highest percentile with at least ten samples above it
        "op_tail_ms": latencies[n - 11] * 1000,
        "op_tail_percentile": 100 * (n - 10) / n,
        "child_rss_kb": max(o.rss_kb for o in outcomes),
    }


def import_ms(repeats: int = 5) -> float:
    code = "import time; t = time.process_time(); import wregret.cli; print(time.process_time() - t)"
    times = [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, cwd=ROOT, env=_env()).stdout)
        for _ in range(repeats)
    ]
    return statistics.median(times) * 1000


def _traced(tracer: tracing.Tracer, call: Callable[[], object]) -> object:
    tracer.active = True
    try:
        return call()
    finally:
        tracer.active = False


def trace(workload: Workload, expected: dict[str, str]) -> dict:
    """Untraced pass, then the same ops traced; counts are exact per seed."""
    untraced = run_ops(workload, workload.ops)
    if isinstance(workload, LibraryExact):
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = False
        ops = workload.build()  # fresh objects: no warm caches from the first pass
        for op in ops:  # trace the ops alone, not the slowdown probes between them
            op.call = partial(_traced, tracer, op.call)
        outcomes = run_ops(workload, ops)
        raw = tracer.raw()
    else:
        trace_dir = ROOT / workload.dir / "trace"
        trace_dir.mkdir(exist_ok=True)
        ops = workload.ops
        outcomes = run_ops(workload, ops, trace_dir)
        raw = tracing.merge([json.loads((trace_dir / f"{i}.json").read_text()) for i in range(len(ops))])
    traced_s = sum(o.latency_s for o in outcomes)
    untraced_s = sum(o.latency_s for o in untraced)
    cli_import_ms = import_ms()
    result = {
        "attempted": len(ops),
        "failures": verify(ops, outcomes, expected),
        "per_layer": tracing.per_layer_metrics(raw, cli_import_ms, traced_s / untraced_s),
        "traced_s": traced_s,
        "untraced_s": untraced_s,
    }
    if not isinstance(workload, LibraryExact):
        # share of each op's CPU time spent importing wregret.cli, per kind of op
        by_kind: dict[str, list[float]] = {}
        for op, outcome in zip(workload.ops, untraced):
            by_kind.setdefault(workload.kind(op), []).append(outcome.cpu_s)
        result["import_share"] = {kind: cli_import_ms / 1000 / statistics.median(cpu)
                                  for kind, cpu in sorted(by_kind.items())}
    return result


def pin() -> None:
    """Record the stdout digests of every seed-0 op and every bundled op."""
    table = {"bundled": {}, "default": {}, "smoke": {}}
    bundled = _bundled_ops()
    (ROOT / WORK).mkdir(parents=True, exist_ok=True)
    for op in bundled:
        table["bundled"][op.key] = run_cli(op).sha1
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    for smoke in (False, True):
        for cls in WORKLOADS.values():
            workload = cls(0, seconds, smoke)
            workload.setup()
            outcomes = run_ops(workload, workload.ops)
            failures = verify(workload.ops, outcomes, {})
            if failures:
                raise SystemExit(f"not pinning {cls.name}: {failures[:3]}")
            for op, outcome in zip(workload.ops, outcomes):
                if op.key not in table["bundled"]:
                    table["smoke" if smoke else "default"][op.key] = digest_of(op, outcome)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    if argv == ["--pin"]:
        pin()
        return 0
    config = json.loads(argv[0])
    workload = WORKLOADS[config["workload"]](config["seed"], config["seconds"], config["smoke"])
    workload.setup()
    # set-up CPU time of this worker and of the warm-up child, from interpreter start
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    print("ready", sum(u.ru_utime + u.ru_stime for u in usage), flush=True)
    if config["setup_only"]:
        return 0
    expected = load_digests(config["smoke"])
    result = trace(workload, expected) if config["trace"] else measure(workload, expected)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
