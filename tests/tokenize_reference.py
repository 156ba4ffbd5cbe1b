"""The tokenizer of the text formats as it was before it became one
`finditer` pass, kept as the reference for `dsl._tokenize`.

It matches one token at a time with `re.match` at the current position,
whitespace (newlines included) as a token kind of its own, and counts the
newlines inside each whitespace match.  A character where nothing matches
is reported as unexpected and skipped.
"""

from __future__ import annotations

import re

from wregret.dsl import ParseDiagnostic, Token

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<number>-?(?:\d+[^\S\n]*/[^\S\n]*\d+|\d+\.\d*|\.\d+|\d+))  # within one line
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[:={}\[\],])
    """,
    re.VERBOSE,
)


def tokenize(text: str, diagnostics: list[ParseDiagnostic]) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            column = pos - line_start + 1
            diagnostics.append(
                ParseDiagnostic("error", line, column, "unexpected character", text[pos])
            )
            pos += 1
            continue
        kind = match.lastgroup
        value = match.group()
        if kind not in ("ws", "comment"):
            tokens.append(
                Token(kind.upper() if kind != "punct" else "PUNCT", value, line, pos - line_start + 1)
            )
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + value.rindex("\n") + 1
        pos = match.end()
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens
