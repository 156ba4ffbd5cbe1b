"""The text formats: parsing, diagnostics, canonical round-trips, trees."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from wregret import likelihood_update, rank, regret_profile, upper_likelihood
from wregret.dsl import (
    MAX_TREE_DEPTH,
    ParseDiagnostic,
    Token,
    _tokenize,
    parse_problem,
    parse_tree,
    serialize_weighted_set,
)
from wregret.dynamics import DecisionNode, NatureNode, enumerate_plans, evaluate_tree
from wregret.errors import DomainError, ParseError
from wregret.fixtures import fixture_text

from conftest import random_wset, serialize_problem
from tokenize_reference import tokenize as reference_tokenize

F = Fraction

FIXTURES = [
    "delivery.dp",
    "delivery_weighted.dp",
    "cupcake.dp",
    "restaurant.dp",
    "learning.dp",
]


def diagnostics_of(text: str) -> list[ParseDiagnostic]:
    with pytest.raises(ParseError) as excinfo:
        parse_problem(text)
    return excinfo.value.diagnostics


class TestParseProblem:
    def test_delivery_reproduces_known_regret_table(self):
        doc = parse_problem(fixture_text("delivery.dp"))
        menu = doc.menus["base"]
        expect = {
            ("cont", "one_broken"): 0, ("cont", "ten_broken"): 10000,
            ("back", "one_broken"): 10000, ("back", "ten_broken"): 0,
            ("check", "one_broken"): 4999, ("check", "ten_broken"): 4999,
        }
        for (name, state), value in expect.items():
            assert regret_profile(doc.acts[name], menu, doc.utility)[state] == value
        ranking = rank("mer", menu, doc.utility, doc.measures())
        assert ranking.groups[0] == ("check",)

    def test_bad_lottery_sum_cites_exact_fraction(self):
        text = (
            "states: s\nprizes: win lose\nutility: win = 1, lose = 0\n"
            "lottery l = { win: 1/2, lose: 1/3 }\n"
        )
        diags = diagnostics_of(text)
        assert any("5/6" in d.message for d in diags)
        assert all(d.line >= 1 and d.column >= 1 for d in diags)

    def test_empty_input_reports_missing_states(self):
        diags = diagnostics_of("")
        assert any("no states section" in d.message for d in diags)
        assert [str(d) for d in diags] == ["error: line 1, column 1: no states section"]

    def test_unknown_references_are_positioned(self):
        text = (
            "states: s\nprizes: p\nutility: p = 1\n"
            "lottery l = { p: 1 }\n"
            "act a = { s: ghost }\n"
        )
        diags = diagnostics_of(text)
        assert any("unknown lottery 'ghost'" in d.message and d.line == 5 for d in diags)

    def test_duplicate_definitions_rejected(self):
        text = (
            "states: s\nprizes: p q\nutility: p = 1, q = 0\n"
            "lottery l = { p: 1 }\nlottery l = { q: 1 }\n"
        )
        diags = diagnostics_of(text)
        assert any("duplicate lottery 'l'" in d.message for d in diags)

    def test_every_bad_lottery_key_is_reported(self):
        text = "states: s\nprizes: p\nutility: p = 1\nlottery l = { x: 1/2, y: 1/2 }\n"
        diags = diagnostics_of(text)
        found = [(d.line, d.column, d.message, d.token) for d in diags]
        assert found == [(4, 15, "unknown prize 'x'", "x"), (4, 23, "unknown prize 'y'", "y")]
        assert str(diags[0]) == "error: line 4, column 15: unknown prize 'x' (near 'x')"

    def test_weight_outside_unit_interval(self):
        text = (
            "states: s t\nprizes: p q\nutility: p = 1, q = 0\n"
            "hypothesis h weight 3/2 = { s: 1, t: 0 }\n"
        )
        diags = diagnostics_of(text)
        assert any("outside [0, 1]" in d.message for d in diags)

    def test_act_must_cover_all_states(self):
        text = (
            "states: s t\nprizes: p q\nutility: p = 1, q = 0\n"
            "lottery l = { p: 1 }\nact a = { s: l }\n"
        )
        diags = diagnostics_of(text)
        assert any("does not cover states" in d.message for d in diags)

    def test_measure_sum_checked(self):
        text = (
            "states: s t\nprizes: p q\nutility: p = 1, q = 0\n"
            "hypothesis h weight 1 = { s: 1/2, t: 1/4 }\n"
        )
        diags = diagnostics_of(text)
        assert any("sum to 3/4" in d.message for d in diags)

    def test_weights_normalized_at_load(self):
        text = (
            "states: s t\nprizes: p q\nutility: p = 1, q = 0\n"
            "hypothesis a weight 1/2 = { s: 1, t: 0 }\n"
            "hypothesis b weight 1/4 = { s: 0, t: 1 }\n"
        )
        doc = parse_problem(text)
        assert doc.hypotheses["a"][1] == 1
        assert doc.hypotheses["b"][1] == F(1, 2)

    def test_tokens_and_diagnostics_are_values(self):
        text = "states: s\nprizes: p\nutility: p = 1\nlottery l = { x: 1 }\n"
        first, second = _tokenize(text, []), _tokenize(text, [])
        assert first == second and first is not second
        assert len(set(first + second)) == len(first)
        assert Token("IDENT", "s", 1, 9) in set(first)
        diagnostic = ParseDiagnostic(4, 15, "unknown prize 'x'", "x")
        assert diagnostic == diagnostics_of(text)[0] and len({diagnostic, diagnostic}) == 1
        for record, field in ((first[0], "text"), (diagnostic, "message")):
            with pytest.raises(AttributeError):
                setattr(record, field, "")

    def test_decimals_convert_exactly(self):
        text = (
            "states: s\nprizes: p q\nutility: p = 0.1, q = -2.5\n"
            "lottery l = { p: 0.25, q: 0.75 }\n"
        )
        doc = parse_problem(text)
        assert doc.utility["p"] == F(1, 10)
        assert doc.utility["q"] == F(-5, 2)
        assert dict(doc.lotteries["l"].items()) == {"p": F(1, 4), "q": F(3, 4)}


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_serialize_parse_serialize_is_stable(self, name):
        doc = parse_problem(fixture_text(name))
        once = serialize_problem(doc)
        twice = serialize_problem(parse_problem(once))
        assert once == twice

    def test_inline_lotteries_survive(self):
        text = (
            "states: s t\nprizes: p q\nutility: p = 1, q = 0\n"
            "act a = { s: { p: 1/2, q: 1/2 }, t: { q: 1 } }\n"
        )
        doc = parse_problem(text)
        once = serialize_problem(doc)
        assert once == serialize_problem(parse_problem(once))


def parses_back(wset) -> bool:
    """Does the serialized set, each measure labelled h0, h1, ..., parse back to itself?"""
    labels = {m: f"h{i}" for i, (m, _) in enumerate(wset.entries)}
    return parse_problem(serialize_weighted_set(wset, labels)).weighted_set() == wset


class TestSerializeWeightedSet:
    def test_sorted_by_label_and_exact(self, delivery_wset):
        one, ten = (m for m, _ in delivery_wset.entries)
        text = serialize_weighted_set(delivery_wset, {one: "z_one", ten: "a_ten"})
        assert text == (
            "states: one_broken ten_broken\n"
            "hypothesis a_ten weight 1/2 = { one_broken: 0/1, ten_broken: 1/1 }\n"
            "hypothesis z_one weight 1/1 = { one_broken: 1/1, ten_broken: 0/1 }\n"
        )

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_updates_parse_back(self, name):
        doc = parse_problem(fixture_text(name))
        wset = doc.weighted_set()
        assert parses_back(wset)
        updated = [
            likelihood_update(wset, event)
            for event in doc.events.values()
            if upper_likelihood(wset, event) > 0
        ]
        assert updated and all(parses_back(u) for u in updated)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6), states=st.sampled_from(["abc", "cba", "ba"]))
    def test_random_sets_parse_back(self, seed, states):
        assert parses_back(random_wset(random.Random(seed), tuple(states)))


class TestParseTree:
    def test_restaurant_tree_shape(self):
        doc = parse_problem(fixture_text("restaurant.dp"))
        tree = parse_tree(fixture_text("restaurant.tree"), doc)
        root = tree.root
        assert isinstance(root, DecisionNode) and root.name == "restaurant"
        chinese = dict(root.branches)["chinese"]
        assert isinstance(chinese, DecisionNode) and chinese.name == "order"
        assert isinstance(dict(root.branches)["italian"], NatureNode)

    def test_restaurant_tree_evaluates_like_the_handbuilt_one(self):
        doc = parse_problem(fixture_text("restaurant.dp"))
        tree = parse_tree(fixture_text("restaurant.tree"), doc)
        result = evaluate_tree(tree, doc.utility, doc.weighted_set(), planning="ex-ante")
        assert result.chosen.name == "chinese+rice"
        assert result.diagnostics[0].scores["chinese+rice"] == 5

    def test_overlapping_partition_rejected(self):
        doc = parse_problem(fixture_text("restaurant.dp"))
        text = (
            "nature { on either: leaf utility 0, on msg_only: leaf utility 1 }"
        )
        with pytest.raises(ParseError) as excinfo:
            parse_tree(text, doc)
        assert any("duplicates states" in str(d) for d in excinfo.value.diagnostics)

    def test_missing_states_named(self):
        doc = parse_problem(fixture_text("restaurant.dp"))
        with pytest.raises(ParseError) as excinfo:
            parse_tree("nature { on msg_only: leaf utility 0 }", doc)
        assert any("misses states ['basil_allergy']" in d.message for d in excinfo.value.diagnostics)

    def test_single_leaf_is_a_constant_plan(self):
        doc = parse_problem(fixture_text("restaurant.dp"))
        tree = parse_tree("leaf utility 7/2", doc)
        result = evaluate_tree(tree, doc.utility, doc.weighted_set())
        assert result.chosen.name == "unconditional"
        # the one continuation, at the root, is worth 7/2 in every state
        _, _, root, born = enumerate_plans(tree, doc.states, doc.utility)
        assert born(root[2][0]).profile == (F(7, 2),) * len(doc.states)

    def test_unknown_event_positioned(self):
        doc = parse_problem(fixture_text("restaurant.dp"))
        with pytest.raises(ParseError) as excinfo:
            parse_tree("nature { on nowhere: leaf utility 0 }", doc)
        assert any("unknown event" in d.message for d in excinfo.value.diagnostics)

    def test_rational_does_not_span_lines(self):
        # as in problem files, where each line is parsed on its own
        doc = parse_problem(fixture_text("restaurant.dp"))
        assert parse_tree("leaf utility 1 / 2", doc).root.utility == F(1, 2)
        with pytest.raises(ParseError) as excinfo:
            parse_tree("leaf utility 1\n/ 2", doc)
        [diagnostic] = excinfo.value.diagnostics
        assert (diagnostic.line, diagnostic.column, diagnostic.token) == (2, 1, "/")

    def test_deep_nesting_is_a_positioned_parse_error(self):
        doc = parse_problem(fixture_text("restaurant.dp"))
        depth = 1200
        text = "decision d { branch b = " * depth + "leaf eat_rice" + " }" * depth
        with pytest.raises(ParseError) as excinfo:
            parse_tree(text, doc)
        [diagnostic] = excinfo.value.diagnostics
        assert "nested deeper than" in diagnostic.message
        assert diagnostic.line == 1 and diagnostic.column > 1

    def test_nesting_up_to_the_limit_parses(self):
        doc = parse_problem(fixture_text("restaurant.dp"))
        depth = MAX_TREE_DEPTH
        text = "".join(f"decision d{i} {{ branch b = " for i in range(depth))
        tree = parse_tree(text + "leaf eat_rice" + " }" * depth, doc)
        assert evaluate_tree(tree, doc.utility, doc.weighted_set()).chosen.name == "+".join(["b"] * depth)


_HEAD = "states: s t\nprizes: p q\nutility: p = 1, q = 0\n"
_EVENTS = _HEAD + "event es = { s }\nevent et = { t }\n"


@pytest.mark.parametrize("problem, tree, found", [
    pytest.param(_HEAD + "states: s\n", None, (4, 1, "duplicate states section"), id="states-twice"),
    pytest.param(_HEAD + "prizes: p\n", None, (4, 1, "duplicate prizes section"), id="prizes-twice"),
    pytest.param(_HEAD + "utility: q = 1\n", None, (4, 10, "duplicate utility for prize 'q'"), id="utility-twice"),
    pytest.param("states: s t s\n", None, (1, 1, "duplicate state names"), id="state-names"),
    pytest.param(
        _HEAD + "lottery l = { p: 3/2, q: -1/2 }\n", None,
        (4, 9, "negative probability -1/2 for prize 'q'"), id="negative-lottery",
    ),
    pytest.param(
        _HEAD + "hypothesis h weight 1 = { s: 3/2, t: -1/2 }\n", None,
        (4, 12, "negative probability -1/2 for state 't'"), id="negative-hypothesis",
    ),
    pytest.param(_HEAD + "menu m = [ ]\n", None, (4, 6, "a menu needs at least one act"), id="empty-menu"),
    pytest.param(
        _HEAD + "hypothesis h weight 0 = { s: 1, t: 0 }\nhypothesis k weight 0 = { s: 0, t: 1 }\n", None,
        (4, 12, "every hypothesis has weight 0"), id="zero-weights",
    ),
    pytest.param(
        _EVENTS, "decision d { branch b = leaf utility 0, branch b = leaf utility 1 }",
        (1, 10, "decision node 'd' has duplicate branch names"), id="branch-twice",
    ),
    pytest.param(
        _EVENTS, "nature { on es: nature { on es: leaf utility 0, on et: leaf utility 1 }, on et: leaf utility 1 }",
        (1, 52, "nature branch covers no surviving state"), id="branch-off-live-states",
    ),
])
def test_each_rule_reports_where_and_what(problem, tree, found):
    """A document, or a tree over it, that breaks one rule: the one
    diagnostic's line, column and message."""
    with pytest.raises(ParseError) as excinfo:
        doc = parse_problem(problem)
        parse_tree(tree, doc)
    assert [(d.line, d.column, d.message) for d in excinfo.value.diagnostics] == [found]


def _mutate(rng: random.Random, text: str) -> str:
    ops = rng.randint(0, 4)
    chars = list(text)
    for _ in range(ops):
        kind = rng.randrange(4)
        if not chars:
            break
        position = rng.randrange(len(chars))
        if kind == 0:
            del chars[position]
        elif kind == 1:
            chars.insert(position, rng.choice("{}[]:,=#/ \n\tabc019-"))
        elif kind == 2:
            chars[position] = rng.choice("{}[]:,=#/ \n\txyz$%^")
        else:
            cut = rng.randrange(len(chars))
            chars = chars[:cut]
    return "".join(chars)


class TestFuzz:
    """Each fuzz corpus is generated and parsed (and its trees evaluated)
    once, by a class-scoped fixture; one test checks that every rejection is
    positioned and every evaluation chooses a survivor, another pins the
    digest of everything produced."""

    @pytest.fixture(scope="class")
    def problem_outcomes(self):
        """Smoke-sized fuzz here; the acceptance suite runs the full corpus.
        One entry per text: None if it parsed, else its diagnostics."""
        rng = random.Random(99)
        seed_text = fixture_text("delivery.dp")
        outcomes = []
        for _ in range(1500):
            try:
                parse_problem(_mutate(rng, seed_text))
            except ParseError as exc:
                outcomes.append(exc.diagnostics)
            else:
                outcomes.append(None)
        return outcomes

    @pytest.fixture(scope="class")
    def tree_outcomes(self):
        """One (diagnostics, results) pair per fuzzed tree: its diagnostics if
        it failed to parse, else None and its evaluation in each of the four
        planning and menu-policy modes (or the DomainError it raised)."""
        rng = random.Random(7)
        doc = parse_problem(fixture_text("restaurant.dp"))
        wset = doc.weighted_set()
        seed_text = fixture_text("restaurant.tree")
        outcomes = []
        for _ in range(2000):
            try:
                tree = parse_tree(_mutate(rng, seed_text), doc)
            except ParseError as exc:
                outcomes.append((exc.diagnostics, None))
                continue
            results = []
            for planning in ("ex-ante", "sophisticated"):
                for policy in ("full", "viable"):
                    try:
                        results.append(evaluate_tree(tree, doc.utility, wset, planning, policy))
                    except DomainError as exc:
                        results.append(exc)
            outcomes.append((None, results))
        return outcomes

    def test_fuzzed_inputs_never_crash(self, problem_outcomes):
        for diagnostics in problem_outcomes:
            if diagnostics is not None:
                assert diagnostics
                for d in diagnostics:
                    assert d.line >= 1 and d.column >= 1 and d.message

    def test_fuzzed_trees_parse_or_fail_positioned_and_evaluate(self, tree_outcomes):
        for diagnostics, results in tree_outcomes:
            if results is None:
                assert diagnostics
                for d in diagnostics:
                    assert d.line >= 1 and d.column >= 1 and d.message
                continue
            for result in results:
                if not isinstance(result, DomainError):
                    assert result.chosen.name in result.survivors

    def test_fuzzed_diagnostics_are_pinned(self, problem_outcomes):
        """A digest of every diagnostic's line, column, message and token, in
        the order reported."""
        digest = hashlib.sha1()
        for diagnostics in problem_outcomes:
            for d in diagnostics or ():
                digest.update(f"{d.line}:{d.column}:{d.message}:{d.token}\n".encode())
            digest.update(b"--\n")
        assert digest.hexdigest() == "7c260e62645a351a2bb831a9cb0f8f0192b31a32"

    def test_fuzzed_tree_evaluations_are_pinned(self, tree_outcomes):
        """A digest of every evaluation in all four planning and menu-policy
        modes (or the name of the error it raised)."""
        digest = hashlib.sha1()
        for _, results in tree_outcomes:
            if results is None:
                digest.update(b"ParseError\n")
                continue
            for result in results:
                if isinstance(result, DomainError):
                    digest.update(f"{type(result).__name__}\n".encode())
                else:
                    digest.update(json.dumps(result.to_obj()).encode() + b"\n")
        assert digest.hexdigest() == "e9e325f428665777435e073cccf58497b5434625"


def _tokenized(tokenize, text: str) -> tuple[list[Token], list[ParseDiagnostic]]:
    diagnostics: list[ParseDiagnostic] = []
    return tokenize(text, diagnostics), diagnostics


class TestTokenizerReference:
    """`_tokenize` against the match-per-token tokenizer it replaced
    (`tokenize_reference`): the same tokens and the same diagnostics (line,
    column, message, token), in the same order."""

    def test_c11_corpus(self):
        # Neither tokenizer lets a token or a diagnostic span a newline, so a
        # text's output is its lines' outputs, renumbered.  Every distinct
        # line of the corpus is compared, and every 50th text whole, which
        # checks the line numbering.
        rng = random.Random(20260811)  # test_c11's corpus
        seeds = [fixture_text(n) for n in FIXTURES]
        corpus = [_mutate(rng, seeds[i % len(seeds)]) for i in range(10_000)]
        lines = {line for text in corpus for line in text.split("\n")}
        assert len(lines) > 10_000
        for text in sorted(lines) + corpus[::50]:
            assert _tokenized(_tokenize, text) == _tokenized(reference_tokenize, text), text

    def test_fresh_mutated_corpus(self):
        # lines of the fixtures and the tree, and pairs of them, mutated with
        # carriage returns, tabs, other whitespace, stray characters and
        # numbers cut short
        rng = random.Random(4417)
        lines = [line for n in FIXTURES + ["restaurant.tree"] for line in fixture_text(n).split("\n")]
        pieces = ["\r", "\t", "\r\n", "\x0b", "\x0c", "\xa0", "\u2028", " ", "\n", "3/", "1 /", "/ 2",
                  ".", "-", "-.", "2.", ".5", "-7/", "#", "$", "@", "\u0663", "\xe9", "{", "}", ":", ","]
        for _ in range(20_000):
            start = rng.randrange(len(lines))
            chars = list("\n".join(lines[start:start + (2 if rng.random() < 0.2 else 1)]))
            for _ in range(rng.randint(1, 4)):
                position = rng.randint(0, len(chars))
                if rng.random() < 0.3 and chars:
                    del chars[min(position, len(chars) - 1)]
                else:
                    chars[position:position] = rng.choice(pieces)
            text = "".join(chars)
            assert _tokenized(_tokenize, text) == _tokenized(reference_tokenize, text), text


HEADER = "states: s\nprizes: p q\nutility: p = 1, q = 0\n"


@pytest.mark.parametrize("build, error, message", [
    (lambda: parse_problem(HEADER).weighted_set(), ValueError, "the document declares no hypotheses"),
    (lambda: parse_problem(HEADER + "lottery l = { p: 1/2, p: 1/2 }\n"), ParseError,
     "error: line 4, column 23: duplicate prize 'p' in lottery (near 'p')"),
])
def test_error_types_and_messages(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message
