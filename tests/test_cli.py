"""The command-line surface: outputs, determinism, exit codes."""

import ast
import gc
import hashlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import wregret
from wregret import cli
from wregret.axioms import AXIOM_IDS
from wregret.cli import main
from wregret.fixtures import fixture_path, fixture_text

DELIVERY = str(fixture_path("delivery.dp"))
WEIGHTED = str(fixture_path("delivery_weighted.dp"))
CUPCAKE = str(fixture_path("cupcake.dp"))
RESTAURANT = str(fixture_path("restaurant.dp"))
RESTAURANT_TREE = str(fixture_path("restaurant.tree"))
LEARNING = str(fixture_path("learning.dp"))


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env() -> dict:
    """The environment of a child interpreter that imports this package."""
    package = str(Path(wregret.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package, os.environ.get("PYTHONPATH")]))}


def entry(*argv, unbuffered=False, **popen) -> subprocess.Popen:
    """`python -m wregret.cli ARGV`: the command as its own process.  Its
    stdout is block-buffered, as a shell starts it, unless `unbuffered`."""
    env = {key: value for key, value in child_env().items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "wregret.cli", *argv], env=env, **popen)


class TestEval:
    def test_mer_base_ranks_check_first(self, capsys):
        code, out, err = run(capsys, "eval", DELIVERY, "--rule", "mer", "--menu", "base")
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "rank\tact\tscore\tdecimal"
        assert lines[1] == "1\tcheck\t4999/1\t4999.000000"

    def test_mer_extended_ranks_cont_first(self, capsys):
        code, out, _ = run(capsys, "eval", DELIVERY, "--rule", "mer", "--menu", "extended")
        assert code == 0
        first = out.strip().split("\n")[1]
        assert first.startswith("1\tcont\t10000/1")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "eval", DELIVERY, "--rule", "mwer", "--menu", "base", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["rule"] == "mwer" and obj["lower_is_better"] is True

    def test_seu_requires_measure(self, capsys):
        code, _, err = run(capsys, "eval", DELIVERY, "--rule", "seu", "--menu", "base")
        assert code == 3 and "--measure" in err

    def test_seu_with_measure(self, capsys):
        code, out, _ = run(
            capsys, "eval", DELIVERY, "--rule", "seu", "--menu", "base", "--measure", "one"
        )
        assert code == 0
        assert out.strip().split("\n")[1].startswith("1\tcont\t10000/1")

    def test_unknown_menu_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", DELIVERY, "--rule", "mer", "--menu", "nope")
        assert code == 3 and "unknown menu" in err

    def test_deterministic_output(self, capsys):
        argv = ("eval", DELIVERY, "--rule", "regret", "--menu", "base")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


class TestUpdate:
    def test_cupcake_update_prints_exact_weight(self, capsys):
        code, out, _ = run(capsys, "update", CUPCAKE, "--event", "first100good")
        assert code == 0
        from fractions import Fraction

        weight = Fraction(comb(900, 10) * 10, 9 * comb(1000, 10))
        canonical = f"{weight.numerator}/{weight.denominator}"
        assert f"hypothesis ten weight {canonical}" in out
        assert "hypothesis one weight 1/1" in out

    def test_undefined_update_is_domain_error(self, tmp_path, capsys):
        text = fixture_text("delivery.dp") + "event impossible = { }\n"
        path = tmp_path / "imp.dp"
        path.write_text(text)
        code, _, err = run(capsys, "update", str(path), "--event", "impossible")
        assert code == 1 and "upper likelihood 0" in err


class TestParseFailures:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.dp"
        path.write_text("states s1\n")
        code, out, err = run(capsys, "eval", str(path), "--rule", "mer", "--menu", "m")
        assert code == 2
        assert out == ""
        assert "line 1" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "/nonexistent.dp", "--rule", "mer", "--menu", "m")
        assert code == 3 and "cannot read" in err

    def test_bad_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", DELIVERY, "--rule", "bogus", "--menu", "base")
        assert code == 3

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.dp"
        path.write_bytes(fixture_text("delivery.dp").encode() + "# caf\xe9\n".encode("latin-1"))
        code, out, err = run(capsys, "eval", str(path), "--rule", "mer", "--menu", "base")
        assert code == 3 and out == "" and err.startswith(f"usage error: cannot read {path}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--rule", "mer", "--menu", "plans"),
            ("eval", "--rule", "seu", "--menu", "plans", "--measure", "msg"),
            ("update", "--event", "msg_only"),
            ("tree", RESTAURANT_TREE),
            ("simulate", "--truth", "msg"),
        ],
    )
    def test_no_hypotheses_is_one_usage_error(self, tmp_path, capsys, argv):
        text = "".join(
            line for line in fixture_text("restaurant.dp").splitlines(keepends=True)
            if not line.startswith("hypothesis")
        )
        path = tmp_path / "no_hypotheses.dp"
        path.write_text(text)
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (3, "", "usage error: the document declares no hypotheses\n")

    @pytest.mark.parametrize("dropped", [("hypothesis ten",), ("hypothesis one", "hypothesis ten")])
    def test_axioms_need_two_hypotheses(self, tmp_path, capsys, dropped):
        path = tmp_path / "one_hypothesis.dp"
        lines = fixture_text("delivery_weighted.dp").splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith(dropped)))
        code, out, err = run(capsys, "axioms", str(path), "--axiom", "matrix", "--samples", "1")
        assert (code, out, err) == (3, "", "usage error: axiom fixtures need at least two hypotheses\n")

    def test_probability_free_rule_needs_no_hypotheses(self, tmp_path, capsys):
        path = tmp_path / "no_hypotheses.dp"
        path.write_text(fixture_text("delivery.dp").replace("hypothesis", "# hypothesis"))
        code, out, _ = run(capsys, "eval", str(path), "--rule", "regret", "--menu", "base")
        assert code == 0 and out.startswith("rank\tact\tscore\tdecimal\n")


class TestAxiomsCommand:
    def test_single_axiom_all_rules(self, capsys):
        code, out, _ = run(
            capsys, "axioms", WEIGHTED, "--axiom", "12", "--samples", "40", "--seed", "1"
        )
        assert code == 0
        assert "axiom 12 under mwer: violated" in out
        assert "axiom 12 under mer: no-violation-found" in out

    def test_matrix_text(self, capsys):
        code, out, _ = run(
            capsys, "axioms", WEIGHTED, "--axiom", "matrix", "--samples", "30", "--seed", "0"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].split() == [
            "rule", "ax1-6,8-10", "independence", "c-independence", "ax12",
        ]
        mwer_row = next(l for l in lines if l.startswith("mwer"))
        assert "VIOLATED" in mwer_row

    def test_matrix_json(self, capsys):
        code, out, _ = run(
            capsys, "axioms", WEIGHTED, "--axiom", "matrix", "--samples", "20",
            "--seed", "0", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["cells"]["mwer"]["ax12"] == "violated"

    @pytest.mark.parametrize(
        "seed,fmt,sha1",
        [
            (0, "text", "3dfc4d605177d659804485a76f06a0608bea5b01"),
            (0, "json", "febf9e15e8f0d5a1db3c3ab5d36668a75f81be35"),
            (1, "text", "3dfc4d605177d659804485a76f06a0608bea5b01"),
            (1, "json", "1cfff0a98952f7640b537d07503dafb5842eb268"),
            (2, "text", "3dfc4d605177d659804485a76f06a0608bea5b01"),
            (2, "json", "9fa880223a698c3fcd63bb13d86df775aa4aa947"),
        ],
    )
    def test_matrix_output_is_pinned(self, capsys, seed, fmt, sha1):
        code, out, _ = run(
            capsys, "axioms", WEIGHTED, "--axiom", "matrix", "--samples", "40",
            "--seed", str(seed), "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == sha1

    @pytest.mark.parametrize(
        "seed,sha1",
        [
            (1, "db580a781c8458bbf57e5174cf16561ec8e8605b"),
            (2, "772bbbdb82408e2a8163441cda40720d6e0219a2"),
            (3, "d8f05eaf2a66df5d8678273044131cb213ad9fdc"),
        ],
    )
    def test_matrix_json_at_the_default_samples_is_pinned(self, capsys, seed, sha1):
        # every report of 200 draws, pinned when the sampler called
        # `random.Random`'s `choice`, `randint`, `sample` and `shuffle`: a draw
        # stream that leaves theirs changes them
        code, out, _ = run(
            capsys, "axioms", WEIGHTED, "--axiom", "matrix", "--samples", "200",
            "--seed", str(seed), "--format", "json",
        )
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == sha1

    @pytest.mark.parametrize(
        "axiom,samples,seed,fmt,sha1",
        [
            ("7", 200, 0, "text", "d2813220e35523fce693ae006e3f72afaf21aad5"),
            ("7", 200, 0, "json", "66cbd558fa46ffd92164fec578081157f8858be0"),
            ("12", 40, 1, "text", "8a3acb0af70692af65d4625fc5413e5e28212471"),
            ("12", 40, 1, "json", "c3aa79d2c1e8068c76ebd1808d529480078f1b81"),
            ("menu", 40, 1, "text", "3f3a6a9ff03bac15cae6e8e42fdc7a79c23d6d57"),
            ("menu", 40, 1, "json", "f14915379b024c50aa46677fd52337ddc0f4d1a6"),
        ],
    )
    def test_single_axiom_output_is_pinned(self, capsys, axiom, samples, seed, fmt, sha1):
        # the witness, menu and scores lines of every rule's report
        code, out, _ = run(
            capsys, "axioms", WEIGHTED, "--axiom", axiom, "--samples", str(samples),
            "--seed", str(seed), "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == sha1

    def test_matrix_with_rule_is_usage_error(self, capsys):
        # matrix cells are seeded by rule position, so one rule's row is not well defined
        code, out, err = run(capsys, "axioms", WEIGHTED, "--axiom", "matrix", "--rule", "mwer")
        assert code == 3 and out == "" and "--rule" in err

    @pytest.mark.parametrize("samples", ["-5", "0"])
    def test_samples_below_one_is_usage_error(self, capsys, samples):
        code, out, err = run(capsys, "axioms", WEIGHTED, "--axiom", "1", "--samples", samples)
        assert code == 3 and out == "" and "--samples" in err

    @pytest.mark.parametrize("utility", ["win = 1/2, lose = 0", "win = 3, lose = -1/2"])
    def test_matrix_draws_inside_the_utility_range(self, tmp_path, capsys, utility):
        # utilities that do not cover [-1, 1]; the sampler's grid must fit them
        path = tmp_path / "narrow.dp"
        path.write_text(
            "states: good bad\nprizes: win lose\n"
            f"utility: {utility}\n"
            "hypothesis mostly_good weight 1 = { good: 3/4, bad: 1/4 }\n"
            "hypothesis mostly_bad weight 1/2 = { good: 1/4, bad: 3/4 }\n"
        )
        code, out, err = run(
            capsys, "axioms", str(path), "--axiom", "matrix", "--samples", "50", "--format", "json"
        )
        assert code == 0 and err == ""
        cells = json.loads(out)["cells"]
        violated = {(r, c) for r, row in cells.items() for c, v in row.items() if v == "violated"}
        assert violated == {("mwer", "ax12"), ("mmeu", "independence")}

    def test_unweighted_fixture_rejected_for_matrix(self, capsys):
        code, _, err = run(capsys, "axioms", DELIVERY, "--axiom", "matrix")
        assert code == 3 and "non-unit weight" in err

    def test_mdc_is_not_an_axiom_choice(self, capsys):
        # dynamic consistency runs through the same checker, but only
        # `check_mdc` reaches it: the CLI offers the static ids alone
        statics = tuple(str(i) for i in range(1, 13)) + ("12u", "menu")
        assert AXIOM_IDS == statics
        code, out, err = run(capsys, "axioms", WEIGHTED, "--axiom", "mdc")
        assert code == 3 and out == "" and "invalid choice: 'mdc'" in err


class TestTreeCommand:
    def test_sophisticated_text(self, capsys):
        code, out, _ = run(
            capsys, "tree", RESTAURANT, RESTAURANT_TREE,
            "--planning", "sophisticated", "--menu-policy", "full",
        )
        assert code == 0
        assert "chosen plan: italian" in out
        assert "[eliminated]" in out

    def test_ex_ante_json(self, capsys):
        code, out, _ = run(
            capsys, "tree", RESTAURANT, RESTAURANT_TREE,
            "--planning", "ex-ante", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["chosen"] == "chinese+rice"
        assert obj["diagnostics"][0]["scores"]["chinese+rice"] == "5/1"

    def test_tree_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.tree"
        bad.write_text("decision d { branch x = leaf utility }")
        code, _, err = run(capsys, "tree", RESTAURANT, str(bad))
        assert code == 2 and "line 1" in err

    def test_duplicate_decision_node_is_a_parse_error(self, tmp_path, capsys):
        dup = tmp_path / "dup.tree"
        dup.write_text("decision d {\n  branch x = decision d { branch y = leaf utility 0 }\n}\n")
        code, out, err = run(capsys, "tree", RESTAURANT, str(dup))
        assert code == 2 and out == ""
        assert "line 2, column 23: duplicate decision node 'd'" in err


class TestSimulateCommand:
    def test_trajectory_csv(self, capsys):
        code, out, _ = run(
            capsys, "simulate", LEARNING, "--truth", "mostly_good",
            "--rounds", "5", "--seeds", "2", "--seed", "7",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "seed,round,weight_coin,weight_mostly_good,mwer_ranking,matches_truth_seu"
        assert len(lines) == 1 + 2 * 6  # header + two seeds x rounds 0..5
        assert lines[1].startswith("7,0,1,1,")

    def test_es_threshold_summary(self, capsys):
        code, out, _ = run(
            capsys, "simulate", LEARNING, "--truth", "mostly_good",
            "--rounds", "4", "--seeds", "3", "--seed", "0",
            "--es-threshold", "1/2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "round,agree_mwer_mer,agree_mwer_es,agree_mer_es,agree_all"
        assert len(lines) == 6

    @pytest.mark.skipif(sys.platform != "linux", reason="sets RLIMIT_AS, which only Linux enforces as used here")
    def test_a_huge_seed_count_streams_in_bounded_memory(self):
        # the seeds are a range, not a list built up front: under a 100 MB
        # address-space limit the first row still comes out
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (100 * 2**20, 100 * 2**20))

        child = subprocess.Popen(
            [sys.executable, "-c", "import sys; from wregret.cli import main; sys.exit(main(sys.argv[1:]))",
             "simulate", LEARNING, "--truth", "mostly_good", "--rounds", "5", "--seeds", "100000000"],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=limit,
        )
        try:
            header, first = child.stdout.readline(), child.stdout.readline()
        finally:
            child.kill()
            child.communicate()
        assert header.startswith(b"seed,round,") and first.startswith(b"0,0,1,1,")

    def test_multi_seed_output_is_pinned(self, capsys):
        code, out, _ = run(
            capsys, "simulate", LEARNING, "--truth", "mostly_good",
            "--rounds", "300", "--seeds", "8", "--seed", "3",
        )
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == "27faa17e2d59c6e2c56b6f57720a2b8cea0777ce"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--truth", "coin", "--rounds", "500", "--seeds", "50", "--seed", "11",
                 "--es-threshold", "1/2"),
                "5da4ed6a2700a9b260e66c82ddeea752e58e8bb6",
            ),
            (
                ("--truth", "mostly_good", "--rounds", "300", "--seeds", "20", "--seed", "2",
                 "--es-threshold", "1/3"),
                "3debd5fe77ca49078a69d786cdc98b05b6b6313e",
            ),
            (
                ("--truth", "coin", "--rounds", "500", "--seeds", "100", "--seed", "0"),
                "bc32525b0af536b36c40fd20063e81656e86ce72",
            ),
            (
                # long horizon: the coin's exp underflows to 0.0
                ("--truth", "coin", "--rounds", "2000", "--seeds", "4", "--seed", "41"),
                "e53c24f216f251f82b403e89e3823a303c1e455f",
            ),
            (
                # the 17 MB run: 200 trajectories of 2001 rows
                ("--truth", "mostly_good", "--rounds", "2000", "--seeds", "200"),
                "4241d48004ac682a32cf7bb864d7b0edd4b8ae30",
            ),
        ],
    )
    def test_trajectories_and_comparisons_are_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "simulate", LEARNING, *argv)
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == digest

    def test_simulate_deterministic(self, capsys):
        argv = (
            "simulate", LEARNING, "--truth", "mostly_good",
            "--rounds", "10", "--seeds", "3", "--seed", "5",
        )
        assert run(capsys, *argv) == run(capsys, *argv)

    @pytest.mark.parametrize("threshold", ["1.5", "0", "abc"])
    def test_bad_es_threshold_is_usage_error(self, capsys, threshold):
        code, out, err = run(
            capsys, "simulate", LEARNING, "--truth", "mostly_good", "--es-threshold", threshold,
        )
        assert code == 3 and out == "" and "--es-threshold" in err

    def test_unknown_truth_is_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", LEARNING, "--truth", "ghost")
        assert code == 3 and "unknown hypothesis" in err

    @pytest.mark.parametrize("option", ["--rounds", "--seeds"])
    def test_zero_rounds_or_seeds_is_usage_error(self, capsys, option):
        code, out, err = run(capsys, "simulate", LEARNING, "--truth", "coin", option, "0")
        assert (code, out) == (3, "") and f"{option} must be at least 1" in err

    @pytest.mark.parametrize(
        "menus, count", [("", "no menu;"), ("menu probe = [ risky, steady ]\nmenu solo = [ risky ]\n", "2 menus;")],
    )
    def test_the_menu_count_is_named_when_no_menu_is_given(self, capsys, tmp_path, menus, count):
        text = fixture_text("learning.dp").replace("menu probe = [ risky, steady ]\n", menus)
        path = tmp_path / "menus.dp"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "simulate", str(path), "--truth", "coin", "--rounds", "2")
        assert (code, out) == (3, "") and f"the file defines {count}" in err

    def test_naming_the_only_menu_changes_nothing(self, capsys):
        argv = ("simulate", LEARNING, "--truth", "coin", "--rounds", "20", "--seeds", "2")
        named = run(capsys, *argv, "--menu", "probe")
        assert named[0] == 0 and named == run(capsys, *argv)


# each case with the exit code it must end in; {impossible} and {broken}
# name files the test writes
ENTRY_CASES = {
    "eval": (0, "eval", WEIGHTED, "--rule", "mwer", "--menu", "base"),
    "eval json": (0, "eval", WEIGHTED, "--rule", "mer", "--menu", "extended", "--format", "json"),
    "update": (0, "update", CUPCAKE, "--event", "first100good"),
    "tree": (0, "tree", RESTAURANT, RESTAURANT_TREE, "--planning", "ex-ante"),
    "matrix": (0, "axioms", WEIGHTED, "--axiom", "matrix", "--samples", "4"),
    "simulate": (0, "simulate", LEARNING, "--truth", "coin", "--rounds", "40", "--seeds", "3"),
    "domain error": (1, "update", "{impossible}", "--event", "impossible"),
    "parse error": (2, "eval", "{broken}", "--rule", "mer", "--menu", "m"),
    "usage error": (3, "eval", DELIVERY, "--rule", "mer", "--menu", "ghost"),
}

HELP = ("--help",)


# the command replaced by one that reports whether the collector runs under
# it; the process prints more only if `run` returns or the interpreter exits
ENTRY_PROBE = """
import atexit, gc
import wregret.cli as cli
atexit.register(print, "interpreter exit")
cli.main = lambda: print(gc.isenabled()) or 0
try:
    cli.run()
finally:
    print("run returned or raised")
"""


def large_problem() -> str:
    """A problem far larger than the bundled ones: 6 states, a menu `all` of
    60 acts and 30 hypotheses, which condition to 30 measures on `half`."""
    states = [f"s{k}" for k in range(6)]
    return "\n".join([
        "states: " + " ".join(states),
        "prizes: " + " ".join(f"z{j}" for j in range(12)),
        "utility: " + ", ".join(f"z{j} = {j * 7 % 12 - 5}" for j in range(12)),
        *(f"lottery l{j} = {{ z{j}: 1 }}" for j in range(12)),
        *(
            f"act a{i} = {{ " + ", ".join(f"{s}: l{(i * (k + 1) + k) % 12}" for k, s in enumerate(states)) + " }"
            for i in range(60)
        ),
        "menu all = [ " + ", ".join(f"a{i}" for i in range(60)) + " ]",
        *(
            f"hypothesis h{j} weight {1 if j == 0 else f'{j}/{j + 1}'} = {{ "
            + ", ".join(f"{s}: {j + k + 1}/{6 * j + 21}" for k, s in enumerate(states)) + " }"
            for j in range(30)
        ),
        "event half = { s0, s1, s2 }",
    ]) + "\n"


def wide_tree() -> str:
    """A tree over restaurant.dp with 300 plans: three first choices, each
    followed by a choice among ten dishes once nature reveals the allergy."""
    dishes = ["enjoy_pasta", "enjoy_stirfry", "eat_rice", "react_msg", "react_basil"]

    def order(node: str) -> str:
        return f"decision {node} {{ " + " ".join(f"branch o{j} = leaf {dishes[j % 5]}" for j in range(10)) + " }"

    return "decision root { " + " ".join(
        f"branch r{i} = nature {{ on msg_only: {order(f'm{i}')} on basil_only: {order(f'b{i}')} }}" for i in range(3)
    ) + " }\n"


SIMULATE = ("simulate", LEARNING, "--truth", "coin")

# each command with a small and a large request; {problem} and {tree} name
# `large_problem()` and `wide_tree()`, which the test writes
GARBAGE_CASES = {
    "eval": (("eval", WEIGHTED, "--rule", "mwer", "--menu", "base"), ("eval", "{problem}", "--rule", "mwer", "--menu", "all")),
    "eval json": (
        ("eval", WEIGHTED, "--rule", "mwer", "--menu", "base", "--format", "json"),
        ("eval", "{problem}", "--rule", "mwer", "--menu", "all", "--format", "json"),
    ),
    "update": (("update", CUPCAKE, "--event", "first100good"), ("update", "{problem}", "--event", "half")),
    "tree": (("tree", RESTAURANT, RESTAURANT_TREE), ("tree", RESTAURANT, "{tree}")),
    "tree json": (("tree", RESTAURANT, RESTAURANT_TREE, "--format", "json"), ("tree", RESTAURANT, "{tree}", "--format", "json")),
    "matrix": (
        ("axioms", WEIGHTED, "--axiom", "matrix", "--samples", "2"),
        ("axioms", WEIGHTED, "--axiom", "matrix", "--samples", "300"),
    ),
    "matrix json": (
        ("axioms", WEIGHTED, "--axiom", "matrix", "--samples", "2", "--format", "json"),
        ("axioms", WEIGHTED, "--axiom", "matrix", "--samples", "300", "--format", "json"),
    ),
    "simulate": ((*SIMULATE, "--rounds", "5", "--seeds", "2"), (*SIMULATE, "--rounds", "2000", "--seeds", "50")),
    "simulate es": (
        (*SIMULATE, "--rounds", "5", "--seeds", "2", "--es-threshold", "1/2"),
        (*SIMULATE, "--rounds", "2000", "--seeds", "50", "--es-threshold", "1/2"),
    ),
}


class TestProcessEntry:
    @pytest.mark.parametrize("case", ENTRY_CASES)
    def test_a_process_prints_what_main_prints(self, capsys, tmp_path, case):
        expected, *argv = ENTRY_CASES[case]
        (tmp_path / "impossible.dp").write_text(fixture_text("delivery.dp") + "event impossible = { }\n")
        (tmp_path / "broken.dp").write_text("states s1\n")
        argv = [arg.format(impossible=tmp_path / "impossible.dp", broken=tmp_path / "broken.dp") for arg in argv]
        code, out, err = run(capsys, *argv)
        child = entry(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        child_out, child_err = child.communicate()
        assert code == expected
        assert (child.returncode, child_out, child_err) == (code, out.encode(), err.encode())

    def test_main_in_process_leaves_collection_as_it_was(self, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        assert run(capsys, "axioms", WEIGHTED, "--axiom", "matrix", "--samples", "4")[0] == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_the_entry_runs_the_command_uncollected_and_never_returns(self):
        # the command's output arrives, and nothing after `run` runs
        out = subprocess.run(
            [sys.executable, "-c", ENTRY_PROBE], env=child_env(), capture_output=True, text=True, check=True,
        ).stdout
        assert out == "False\n"

    @pytest.mark.parametrize("case", GARBAGE_CASES)
    def test_a_command_leaves_no_more_cyclic_garbage_for_a_larger_request(self, capsys, tmp_path, case):
        # `run` never collects, so what a command leaves in reference cycles
        # must not grow with its request; counts, not absolutes, which vary
        # with the Python version
        (tmp_path / "large.dp").write_text(large_problem())
        (tmp_path / "wide.tree").write_text(wide_tree())
        small, large = (
            [arg.format(problem=tmp_path / "large.dp", tree=tmp_path / "wide.tree") for arg in argv]
            for argv in GARBAGE_CASES[case]
        )

        def garbage(argv) -> int:
            gc.collect()
            assert main(argv) == 0
            capsys.readouterr()
            return gc.collect()

        enabled = gc.isenabled()
        gc.disable()
        try:
            garbage(small)  # the first call's imports and caches
            counts = garbage(small), garbage(large)
        finally:
            if enabled:
                gc.enable()
        assert counts[0] == counts[1]

    def test_every_process_enters_through_run(self):
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        block = next(
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        )
        called = {node.func.id for node in ast.walk(block) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert "run" in called and "main" not in called
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert 'wregret = "wregret.cli:run"' in pyproject.read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize(
        "argv, lines",
        [
            # 40,020 rows, far more than a pipe holds: closed while the child writes
            (("simulate", LEARNING, "--truth", "coin", "--rounds", "2000", "--seeds", "20"), 1),
            # closed before the child starts: a buffered stdout fails at the flush
            (("eval", DELIVERY, "--rule", "mer", "--menu", "base"), 0),
            # argparse writes its help and then raises SystemExit
            (HELP, 0),
            (("eval", "--help"), 0),
        ],
    )
    def test_a_pipe_closed_early_ends_the_command_silently(self, argv, lines, unbuffered):
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as reader:
            if not lines:
                reader.close()
            child = entry(*argv, unbuffered=unbuffered, stdout=write_end, stderr=subprocess.PIPE)
            os.close(write_end)
            read = [reader.readline() for _ in range(lines)]
        with child.stderr:
            err = child.stderr.read()
        assert all(line.endswith(b"\n") for line in read)
        assert (child.wait(), err) == (1, b"")

    @pytest.mark.skipif(sys.platform != "linux", reason="writes to Linux's /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", DELIVERY, "--rule", "mer", "--menu", "base"),  # buffered, fails at the flush
            ("simulate", LEARNING, "--truth", "coin", "--rounds", "2000", "--seeds", "20"),  # fails mid-command
            HELP,
            ("eval", "--help"),  # a subcommand's parser, made by the same class
        ],
    )
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_full_device_ends_the_command_with_one_line(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            child = entry(*argv, unbuffered=unbuffered, stdout=full, stderr=subprocess.PIPE)
            _, err = child.communicate()
        expected = ["error: cannot write output: [Errno 28] No space left on device"]
        assert (child.returncode, err.decode().splitlines()) == (1, expected)
