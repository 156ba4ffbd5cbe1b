"""Exact rational parsing and canonical formatting.

All arithmetic in the library uses fractions.Fraction.  Text formats accept
`a/b`, decimals and plain integers; decimals convert exactly (a decimal with
k digits after the point becomes an integer over 10**k).  Canonical output
is always `numerator/denominator` in lowest terms so serialized documents
are byte-stable; `format_map` writes every `{ key: n/d, ... }` map.
`exact` is the one check on what enters an exact type: ints, Fractions and
strings pass, and a float raises TypeError.  The other form a rational leaves the core in is
`as_integers`: rows over one common denominator as ints, for the rule
kernels, the exact types and the exact simplex.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

Rational = Union[Fraction, int]

_RATIONAL_RE = re.compile(
    r"""^[+-]?(
            \d+\s*/\s*\d+     # a/b
          | \d+\.\d*          # 12.  12.5
          | \.\d+             # .5
          | \d+               # 12
        )$""",
    re.VERBOSE,
)


def parse_rational(text: str) -> Fraction:
    """Parse `a/b`, a decimal, or an integer into an exact Fraction.

    Raises ValueError on anything else (including float syntax like 1e3,
    which has no place in an exact format).
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    sign = -1 if text.startswith("-") else 1
    body = text.lstrip("+-")
    if "/" in body:
        num_s, den_s = body.split("/")
        den = int(den_s)
        if den == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(sign * int(num_s), den)
    if "." in body:
        whole, _, frac = body.partition(".")
        whole_i = int(whole) if whole else 0
        scale = 10 ** len(frac)
        frac_i = int(frac) if frac else 0
        return Fraction(sign * (whole_i * scale + frac_i), scale)
    return Fraction(sign * int(body))


def exact(value: Union[Rational, str], what: str, key: str | None = None, kind: str = "state") -> Fraction:
    """The value as a Fraction.  A float, or any other type than int,
    Fraction and str, raises TypeError naming the value and the key (a
    state, or another `kind` of label) it belongs to."""
    if not isinstance(value, (int, Fraction, str)):
        where = "" if key is None else f" for {kind} {key!r}"
        raise TypeError(f"{what} {value!r}{where} is not an int, a Fraction or a string")
    return value if type(value) is Fraction else Fraction(value)


def format_rational(value: Fraction) -> str:
    """Canonical `numerator/denominator` form, denominator always present."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def format_map(items: Iterable[tuple[str, Fraction]]) -> str:
    """Canonical `{ key: n/d, ... }` text of (key, rational) pairs, in order."""
    return "{ " + ", ".join(f"{key}: {format_rational(v)}" for key, v in items) + " }"


def as_integers(rows: Sequence[Sequence[Rational]]) -> tuple[int, list[tuple[int, ...]]]:
    """The rows over the LCM D of all their entries' denominators: (D, rows
    of ints), each int being its entry times D.  Entries are ints or
    Fractions; rows may differ in length, and no rows at all gives D = 1."""
    common = lcm(*{v.denominator for row in rows for v in row})
    return common, [tuple([v.numerator * (common // v.denominator) for v in row]) for row in rows]


DECIMAL_PLACES = 6


def format_decimal(value: Fraction) -> str:
    """Fixed-point decimal rendering with DECIMAL_PLACES digits after the
    point (round half to even is irrelevant here: we truncate-round via
    integer arithmetic, matching round-half-up on the scaled numerator)."""
    scaled = Fraction(value) * 10**DECIMAL_PLACES
    # round to nearest, ties away from zero, on exact integers
    num, den = scaled.numerator, scaled.denominator
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    sign = "-" if num < 0 and q != 0 else ""
    digits = str(q).rjust(DECIMAL_PLACES + 1, "0")
    return f"{sign}{digits[:-DECIMAL_PLACES]}.{digits[-DECIMAL_PLACES:]}"
