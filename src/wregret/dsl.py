"""Text format for decision problems and trees.

Problem files are line-oriented; `#` starts a comment.  Rationals are
written `a/b`, as decimals (converted exactly), or as integers.

    states: s1 s2 ...
    prizes: p1 p2 ...
    utility: p1 = 1, p2 = -1/2
    lottery name = { prize: rational, ... }
    act name = { state: lottery-or-inline, ... }
    menu name = [ act, act, ... ]
    hypothesis name weight rational = { state: rational, ... }
    event name = { state, state, ... }

Trees use a nested prefix form over the same tokens:

    decision name { branch name = <node> ... }
    nature { on event: <node> ... }
    leaf utility rational        or        leaf lottery-name

Both formats are tokenized in one `finditer` pass that counts lines at
newline matches, skips comments and other whitespace, reports each stray
character, and tracks brace depth, so a tree nested too deeply is caught
without a second pass over its tokens.

Every rejection carries at least one diagnostic with a line and column; the
parsers never raise anything else on malformed input.  Each unknown or
repeated key of an entry is reported, not just the first; in a tree, so is
a decision node whose name is already taken.  The values a definition
builds (lotteries, measures, menus, utility tables, tree nodes) check their
own rules, such as sums, signs and emptiness, and a value's refusal is
reported at its definition.  Tokens, diagnostics and the parsed
`ProblemDoc` are immutable records (`records.record`).
`serialize_weighted_set` writes a weighted set back in the problem format.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .decisions import Act, Lottery, Menu, UtilitySpec
from .dynamics import DecisionNode, DecisionTree, Leaf, NatureNode, TreeNode
from .errors import AllZeroWeights, MalformedTree, ParseError
from .measures import Event, Measure, WeightedMeasureSet, normalize
from .rational import RATIONAL_LITERAL, format_map, format_rational, parse_rational
from .records import record

MAX_TREE_DEPTH = 100  # nested decision and nature nodes; the walkers recurse per level


@record
class ParseDiagnostic:
    line: int      # 1-based
    column: int    # 1-based
    message: str
    token: str = ""

    def __str__(self) -> str:
        near = f" (near {self.token!r})" if self.token else ""
        return f"error: line {self.line}, column {self.column}: {self.message}{near}"


@record
class Token:
    kind: str  # IDENT | NUMBER | PUNCT | EOF
    text: str
    line: int
    column: int


# The first characters of the token kinds are disjoint, so at any position at
# most one kind can start; `STRAY` takes any other non-space character.
# Other whitespace matches nothing, so `finditer` steps over it.
_TOKEN_RE = re.compile(
    r"""(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<PUNCT>[:={}\[\],])
      | (?P<NUMBER>-?""" + RATIONAL_LITERAL + r""")
      | (?P<NEWLINE>\n)
      | (?P<COMMENT>\#[^\n]*)
      | (?P<STRAY>\S)
    """,
    re.VERBOSE,
)
_new = tuple.__new__  # builds a Token without the namedtuple's Python-level `__new__`


def _tokenize(
    text: str, diagnostics: list[ParseDiagnostic], too_deep: Optional[list[Token]] = None
) -> list[Token]:
    """The tokens of the text and an EOF token, from one pass of `finditer`
    that counts lines at newline matches, skips comments and reports each
    stray character.  When `too_deep` is given, the first '{' that nests
    more than MAX_TREE_DEPTH braces deep is appended to it."""
    tokens: list[Token] = []
    line, line_start, depth = 1, 0, 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "NEWLINE":
            line += 1
            line_start = match.end()
        elif kind == "STRAY":
            column = match.start() - line_start + 1
            diagnostics.append(ParseDiagnostic(line, column, "unexpected character", match.group()))
        elif kind != "COMMENT":
            value = match.group()
            token = _new(Token, (kind, value, line, match.start() - line_start + 1))
            tokens.append(token)
            if value == "{":
                depth += 1
                if depth > MAX_TREE_DEPTH and too_deep == []:  # the first only
                    too_deep.append(token)
            elif value == "}":
                depth -= 1
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens: Sequence[Token], diagnostics: list[ParseDiagnostic]):
        self.tokens = tokens
        self.index = 0
        self.diagnostics = diagnostics

    def peek(self) -> Token:
        return self.tokens[self.index]

    def next(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "EOF":
            self.index += 1
        return token

    def error(self, token: Token, message: str) -> None:
        self.diagnostics.append(
            ParseDiagnostic(token.line, token.column, message, token.text)
        )

    # `expect` and `accept` never match EOF, so a match always advances

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Optional[Token]:
        token = self.tokens[self.index]
        if token.kind != kind or (text is not None and token.text != text):
            expected = what or (text if text is not None else kind.lower())
            self.error(token, f"expected {expected}")
            return None
        self.index += 1
        return token

    def accept(self, kind: str, text: str | None = None) -> Optional[Token]:
        token = self.tokens[self.index]
        if token.kind == kind and (text is None or token.text == text):
            self.index += 1
            return token
        return None


# -- problem documents -----------------------------------------------------------

@record
class ProblemDoc:
    """A fully resolved decision problem: the named sections of one file."""

    states: tuple[str, ...]
    prizes: tuple[str, ...]
    utility: UtilitySpec
    lotteries: Mapping[str, Lottery]
    acts: Mapping[str, Act]
    menus: Mapping[str, Menu]
    hypotheses: Mapping[str, tuple[Measure, Fraction]]
    events: Mapping[str, Event]

    def weighted_set(self) -> WeightedMeasureSet:
        """The hypotheses as a weighted set; without hypotheses, `EmptySet`."""
        return WeightedMeasureSet(
            tuple((m, w) for m, w in self.hypotheses.values()), self.states
        )

    def measures(self) -> tuple[Measure, ...]:
        return tuple(m for m, _ in (self.hypotheses[k] for k in sorted(self.hypotheses)))


@record
class _RawEntry:
    token: Token
    payload: object


def parse_problem(text: str) -> ProblemDoc:
    """Parse a problem document; raise ParseError with diagnostics on failure."""
    diagnostics: list[ParseDiagnostic] = []
    sections: dict[str, dict[str, _RawEntry]] = {
        "lottery": {}, "act": {}, "menu": {}, "hypothesis": {}, "event": {},
    }
    name_lists: dict[str, tuple[Token, list[str]]] = {}  # "states" and "prizes"
    utility_decl: dict[str, tuple[Token, Fraction]] = {}

    # one pass over the file; each line is then parsed on its own tokens, and a
    # line with a lexical error is reported but not parsed
    lexical: list[ParseDiagnostic] = []
    lines: dict[int, list[Token]] = {}
    for token in _tokenize(text, lexical)[:-1]:
        lines.setdefault(token.line, []).append(token)
    rejected: dict[int, list[ParseDiagnostic]] = {}
    for d in lexical:
        rejected.setdefault(d.line, []).append(d)
    raw_lines = text.split("\n")
    for line_no in sorted(lines.keys() | rejected.keys()):
        if line_no in rejected:
            diagnostics.extend(rejected[line_no])
            continue
        raw = raw_lines[line_no - 1]
        code_end = raw.find("#")  # a comment runs to the end of the line
        end = Token("EOF", "", line_no, (len(raw) if code_end < 0 else code_end) + 1)
        stream = _TokenStream(lines[line_no] + [end], diagnostics)
        head = stream.peek()
        if head.kind != "IDENT":
            stream.error(head, "expected a section keyword")
            continue
        keyword = head.text
        if keyword in ("states", "prizes", "utility"):
            stream.next()
            if not stream.accept("PUNCT", ":"):
                stream.error(stream.peek(), f"expected ':' after '{keyword}'")
                continue
        if keyword in ("states", "prizes"):
            names = _ident_list(stream)
            if keyword in name_lists:
                stream.error(head, f"duplicate {keyword} section")
            elif not names:
                stream.error(head, f"{keyword} section declares no {keyword}")
            else:
                name_lists[keyword] = (head, names)
        elif keyword == "utility":
            pairs = _assignment_list(stream)
            if stream.peek().kind != "EOF":
                stream.error(stream.peek(), "unexpected trailing input")
                continue
            for name_tok, value in pairs:
                if name_tok.text in utility_decl:
                    stream.error(name_tok, f"duplicate utility for prize '{name_tok.text}'")
                else:
                    utility_decl[name_tok.text] = (name_tok, value)
        elif keyword in sections:
            stream.next()
            name_tok = stream.expect("IDENT", what="a name")
            if name_tok is None:
                continue
            payload = _parse_definition(keyword, stream)
            if payload is None:
                continue
            if stream.peek().kind != "EOF":
                stream.error(stream.peek(), "unexpected trailing input")
                continue
            if name_tok.text in sections[keyword]:
                stream.error(name_tok, f"duplicate {keyword} '{name_tok.text}'")
            else:
                sections[keyword][name_tok.text] = _RawEntry(name_tok, payload)
        else:
            stream.error(head, f"unknown section keyword '{keyword}'")

    doc = _resolve_problem(
        name_lists.get("states"), name_lists.get("prizes"), utility_decl, sections, diagnostics
    )
    if diagnostics:
        raise ParseError(diagnostics)
    assert doc is not None
    return doc


def _ident_list(stream: _TokenStream) -> list[str]:
    names = []
    while True:
        token = stream.accept("IDENT")
        if token is None:
            break
        names.append(token.text)
    if stream.peek().kind != "EOF":
        stream.error(stream.peek(), "expected an identifier")
    return names


def _assignment_list(stream: _TokenStream) -> list[tuple[Token, Fraction]]:
    pairs = []
    while True:
        name_tok = stream.expect("IDENT", what="a prize name")
        if name_tok is None:
            break
        if not stream.expect("PUNCT", "="):
            break
        value = _rational(stream)
        if value is None:
            break
        pairs.append((name_tok, value))
        if not stream.accept("PUNCT", ","):
            break
    return pairs


def _rational(stream: _TokenStream) -> Optional[Fraction]:
    token = stream.peek()
    if token.kind != "NUMBER":
        stream.error(token, "expected a rational number")
        return None
    stream.next()
    try:
        return parse_rational(token.text)
    except ValueError as exc:
        stream.error(token, str(exc))
        return None


def _parse_definition(keyword: str, stream: _TokenStream):
    if keyword == "hypothesis":
        if not stream.expect("IDENT", "weight", what="'weight'"):
            return None
        weight = _rational(stream)
        if weight is None:
            return None
        if not stream.expect("PUNCT", "="):
            return None
        body = _delimited(stream, "{", "}", _number_entry)
        if body is None:
            return None
        return (weight, body)
    if not stream.expect("PUNCT", "="):
        return None
    if keyword == "lottery":
        return _delimited(stream, "{", "}", _number_entry)
    if keyword == "act":
        return _delimited(stream, "{", "}", _entry(_lottery_term))
    if keyword == "menu":
        return _delimited(stream, "[", "]", _name("an act name"))
    if keyword == "event":
        return _delimited(stream, "{", "}", _name("a state name"))
    raise AssertionError(keyword)


_Item = Callable[[_TokenStream], object]


def _delimited(stream: _TokenStream, opener: str, closer: str, item: _Item) -> Optional[list]:
    """`opener item, ... closer`, possibly empty; None after a diagnostic
    (an item parser returns None when it has reported one)."""
    if not stream.expect("PUNCT", opener):
        return None
    items: list = []
    if stream.accept("PUNCT", closer):
        return items
    while True:
        value = item(stream)
        if value is None:
            return None
        items.append(value)
        if stream.accept("PUNCT", ","):
            continue
        if stream.accept("PUNCT", closer):
            return items
        stream.error(stream.peek(), f"expected ',' or '{closer}'")
        return None


def _name(what: str) -> _Item:
    return lambda stream: stream.expect("IDENT", what=what)


def _entry(value: _Item) -> _Item:
    """`ident: value`, as a (key token, value) pair."""

    def item(stream: _TokenStream):
        key = stream.expect("IDENT", what="a name")
        if key is None or not stream.expect("PUNCT", ":"):
            return None
        parsed = value(stream)
        return None if parsed is None else (key, parsed)

    return item


_number_entry = _entry(_rational)


def _lottery_term(stream: _TokenStream):
    """An inline `{ prize: rational, ... }` or a lottery name."""
    if stream.peek().kind == "PUNCT" and stream.peek().text == "{":
        return _delimited(stream, "{", "}", _number_entry)
    return stream.expect("IDENT", what="a lottery name or inline lottery")


def _built(report: Callable[[Token, str], None], token: Token, make: Callable, *fields):
    """`make(*fields)`, or None once the ValueError, MalformedTree or
    AllZeroWeights it raised has been reported at the token."""
    try:
        return make(*fields)
    except (ValueError, MalformedTree, AllZeroWeights) as exc:
        report(token, str(exc))
        return None


def _resolve_problem(states_decl, prizes_decl, utility_decl, sections, diagnostics):
    def err(token: Token, message: str) -> None:
        diagnostics.append(ParseDiagnostic(token.line, token.column, message, token.text))

    if states_decl is None:
        diagnostics.append(ParseDiagnostic(1, 1, "no states section"))
        return None
    states_tok, state_names = states_decl
    if len(set(state_names)) != len(state_names):
        err(states_tok, "duplicate state names")
        return None
    states = tuple(state_names)
    state_set = set(states)

    prize_names = prizes_decl[1] if prizes_decl else []
    if prizes_decl and len(set(prize_names)) != len(prize_names):
        err(prizes_decl[0], "duplicate prize names")
        return None
    prizes = tuple(prize_names)
    prize_set = set(prizes)

    utils: dict[str, Fraction] = {}
    for prize, (token, value) in utility_decl.items():
        if prize not in prize_set:
            err(token, f"utility assigned to undeclared prize '{prize}'")
        else:
            utils[prize] = value

    def resolve(pairs, known, what: str, where: str, check=None, cover=None) -> Optional[dict]:
        """The (key token, value) pairs as a dict by key name.  Reports each key
        that is unknown or repeated, each value that `check(key, value)`
        rejects (it reports and returns None) and, at a `cover` token, the
        known names no key gives.  None when anything was reported."""
        resolved: dict = {}
        ok = True
        for key, value in pairs:
            if key.text not in known:
                err(key, f"unknown {what} '{key.text}'")
            elif key.text in resolved:
                err(key, f"duplicate {what} '{key.text}' in {where}")
            else:
                value = value if check is None else check(key, value)
                if value is not None:
                    resolved[key.text] = value
                    continue
            ok = False
        if ok and cover is not None and len(resolved) < len(known):
            err(cover, f"{where} does not cover {what}s {sorted(set(known) - set(resolved))}")
            ok = False
        return resolved if ok else None

    def with_utility(key: Token, value: Fraction) -> Optional[Fraction]:
        if key.text not in utils:
            err(key, f"prize '{key.text}' has no utility assignment")
            return None
        return value

    def build_lottery(entries, context: Token) -> Optional[Lottery]:
        probs = resolve(entries, prize_set, "prize", "lottery", with_utility)
        return None if probs is None else _built(err, context, Lottery, probs)

    lotteries: dict[str, Lottery] = {}
    for name, entry in sections["lottery"].items():
        lottery = build_lottery(entry.payload, entry.token)
        if lottery is not None:
            lotteries[name] = lottery

    def outcome(key: Token, value) -> Optional[Lottery]:
        """A named lottery (a token) or an inline one (its entries)."""
        if not isinstance(value, Token):
            return build_lottery(value, key)
        if value.text not in lotteries:
            err(value, f"unknown lottery '{value.text}'")
            return None
        return lotteries[value.text]

    acts: dict[str, Act] = {}
    for name, entry in sections["act"].items():
        outcomes = resolve(entry.payload, state_set, "state", "act", outcome, entry.token)
        if outcomes is not None:
            acts[name] = Act(name, outcomes)

    menus: dict[str, Menu] = {}
    for name, entry in sections["menu"].items():
        listed = resolve(((t, acts.get(t.text)) for t in entry.payload), acts, "act", "menu")
        menu = None if listed is None else _built(err, entry.token, Menu, listed.values())
        if menu is not None:
            menus[name] = menu

    hypotheses: dict[str, tuple[Measure, Fraction]] = {}
    for name, entry in sections["hypothesis"].items():
        weight, body = entry.payload
        probs = resolve(body, state_set, "state", "hypothesis", cover=entry.token)
        measure = None if probs is None else _built(err, entry.token, Measure, probs)
        # the weighted set owns the weight's range, and `normalize` the rule that one is positive
        if measure is not None and _built(err, entry.token, WeightedMeasureSet, [(measure, weight)]) is not None:
            hypotheses[name] = (measure, weight)

    first = next((entry.token for entry in sections["hypothesis"].values()), None)
    if hypotheses and _built(err, first, normalize, WeightedMeasureSet(hypotheses.values())) is not None:
        top = max(w for _, w in hypotheses.values())
        hypotheses = {k: (m, w / top) for k, (m, w) in hypotheses.items()}

    events: dict[str, Event] = {}
    for name, entry in sections["event"].items():
        members = resolve(((t, t) for t in entry.payload), state_set, "state", "event")
        if members is not None:
            events[name] = Event(members)

    if diagnostics:
        return None
    # a lottery resolves only over prizes with utilities, so a document without
    # any is measures-only, and still needs a nominal utility table
    utility = _built(err, states_tok, UtilitySpec, utils or {"_zero": 0, "_one": 1})
    if utility is None:
        return None
    return ProblemDoc(
        states=states,
        prizes=prizes,
        utility=utility,
        lotteries=lotteries,
        acts=acts,
        menus=menus,
        hypotheses=hypotheses,
        events=events,
    )


# -- serialization -------------------------------------------------------------------

def serialize_weighted_set(wset: WeightedMeasureSet, labels: Mapping[Measure, str]) -> str:
    """The weighted set as a states line and one hypothesis line per entry,
    each measure under its label, sorted by label."""
    lines = ["states: " + " ".join(sorted(wset.state_space))]
    for measure, weight in sorted(wset.entries, key=lambda entry: labels[entry[0]]):
        lines.append(_hypothesis_line(labels[measure], measure, weight))
    return "\n".join(lines) + "\n"


def _hypothesis_line(name: str, measure: Measure, weight: Fraction) -> str:
    return f"hypothesis {name} weight {format_rational(weight)} = {format_map(measure.items())}"


# -- decision trees -----------------------------------------------------------------

def parse_tree(text: str, doc: ProblemDoc) -> DecisionTree:
    """Parse a tree against an already-parsed problem document.

    Nature partitions are validated during the walk: each node's events must
    be disjoint and cover exactly the states still possible at that point.
    Decision node names must be unique across the tree.
    """
    diagnostics: list[ParseDiagnostic] = []
    too_deep: list[Token] = []  # every decision or nature node opens one brace
    tokens = _tokenize(text, diagnostics, too_deep)
    if diagnostics:
        raise ParseError(diagnostics)
    stream = _TokenStream(tokens, diagnostics)
    if too_deep:
        stream.error(too_deep[0], f"tree nested deeper than {MAX_TREE_DEPTH} levels")
        raise ParseError(diagnostics)
    root = _parse_node(stream, doc, frozenset(doc.states), set())
    if root is not None and stream.peek().kind != "EOF":
        stream.error(stream.peek(), "unexpected trailing input")
    if diagnostics:
        raise ParseError(diagnostics)
    assert root is not None
    return DecisionTree(root)


def _parse_node(
    stream: _TokenStream, doc: ProblemDoc, live: frozenset[str], names: set[str]
) -> Optional[TreeNode]:
    """One node over the live states; `names` holds the decision node names seen."""
    token = stream.peek()
    if token.kind != "IDENT":
        stream.error(token, "expected 'decision', 'nature' or 'leaf'")
        return None
    if token.text == "decision":
        return _parse_decision(stream, doc, live, names)
    if token.text == "nature":
        return _parse_nature(stream, doc, live, names)
    if token.text == "leaf":
        return _parse_leaf(stream, doc)
    stream.error(token, f"expected 'decision', 'nature' or 'leaf', found '{token.text}'")
    return None


def _parse_decision(
    stream: _TokenStream, doc: ProblemDoc, live: frozenset[str], names: set[str]
) -> Optional[TreeNode]:
    stream.next()
    name_tok = stream.expect("IDENT", what="a decision node name")
    if name_tok is None or not stream.expect("PUNCT", "{"):
        return None
    ok = name_tok.text not in names
    if not ok:
        stream.error(name_tok, f"duplicate decision node '{name_tok.text}'")
    names.add(name_tok.text)
    branches: list[tuple[str, TreeNode]] = []
    while not stream.accept("PUNCT", "}"):
        if stream.peek().kind == "EOF":
            stream.error(stream.peek(), "unterminated decision node")
            return None
        if not stream.expect("IDENT", "branch", what="'branch'"):
            return None
        branch_tok = stream.expect("IDENT", what="a branch name")
        if branch_tok is None or not stream.expect("PUNCT", "="):
            return None
        child = _parse_node(stream, doc, live, names)
        if child is None:
            return None
        branches.append((branch_tok.text, child))
        stream.accept("PUNCT", ",")
    node = _built(stream.error, name_tok, DecisionNode, name_tok.text, tuple(branches))
    return node if ok else None


def _parse_nature(
    stream: _TokenStream, doc: ProblemDoc, live: frozenset[str], names: set[str]
) -> Optional[TreeNode]:
    nature_tok = stream.next()
    if not stream.expect("PUNCT", "{"):
        return None
    cells: list[tuple[Event, TreeNode]] = []
    covered: set[str] = set()
    ok = True
    while not stream.accept("PUNCT", "}"):
        if stream.peek().kind == "EOF":
            stream.error(stream.peek(), "unterminated nature node")
            return None
        if not stream.expect("IDENT", "on", what="'on'"):
            return None
        event_tok = stream.expect("IDENT", what="an event name")
        if event_tok is None or not stream.expect("PUNCT", ":"):
            return None
        event = doc.events.get(event_tok.text)
        if event is None:
            stream.error(event_tok, f"unknown event '{event_tok.text}'")
            return None
        cell = event.members & live
        overlap = covered & cell
        if overlap:
            stream.error(event_tok, f"nature partition duplicates states {sorted(overlap)}")
            ok = False
        if not cell:
            stream.error(event_tok, "nature branch covers no surviving state")
            ok = False
        covered |= cell
        child = _parse_node(stream, doc, frozenset(cell), names)
        if child is None:
            return None
        cells.append((Event(cell), child))
        stream.accept("PUNCT", ",")
    missing = live - covered
    if missing:
        stream.error(nature_tok, f"nature partition misses states {sorted(missing)}")
        ok = False
    node = _built(stream.error, nature_tok, NatureNode, tuple(cells))
    return node if ok else None


def _parse_leaf(stream: _TokenStream, doc: ProblemDoc) -> Optional[TreeNode]:
    stream.next()
    if stream.accept("IDENT", "utility"):
        value = _rational(stream)
        if value is None:
            return None
        return Leaf(utility=value)
    ref = stream.expect("IDENT", what="'utility' or a lottery name")
    if ref is None:
        return None
    lottery = doc.lotteries.get(ref.text)
    if lottery is None:
        stream.error(ref, f"unknown lottery '{ref.text}'")
        return None
    return Leaf(lottery=lottery)
