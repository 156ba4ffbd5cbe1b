"""Exact rational parsing, canonical formatting and the one exact-vector type.

Text formats accept `a/b`, decimals and plain integers; decimals convert
exactly (a decimal with k digits after the point becomes an integer over
10**k).  Canonical output is always `numerator/denominator` in lowest terms
so serialized documents are byte-stable; `format_map` writes every
`{ key: n/d, ... }` map.  `exact` is the one check on what enters an exact
type: ints, Fractions and strings pass, and a float raises TypeError.
Inside the core a rational vector is ints over one denominator: `IntVector`
(measures, lotteries, utility tables, hull generators) holds them reduced,
`over_common` puts such vectors over one LCM, and `as_integers` puts rows of
`Fraction`s over one, for the rule kernels and the LPs of `linfeas`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import lt
from typing import Iterable, Mapping, Sequence, Union

from .records import Frozen

Rational = Union[Fraction, int]

# An unsigned rational literal: `a/b` (spaces but no line break around the
# slash), `12.`, `12.5`, `.5` or `12`.  The `.dp` tokenizer's NUMBER is this
# after an optional minus sign.
RATIONAL_LITERAL = r"(?:\d+[^\S\n]*/[^\S\n]*\d+|\d+\.\d*|\.\d+|\d+)"
_RATIONAL_RE = re.compile(f"[+-]?{RATIONAL_LITERAL}")


def parse_rational(text: str) -> Fraction:
    """Parse `a/b`, a decimal, or an integer, with an optional sign and
    surrounding whitespace, into an exact Fraction.

    Raises ValueError on anything else (including float syntax like 1e3,
    which has no place in an exact format) and on a zero denominator.
    """
    text = text.strip()
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction("".join(text.split()))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def exact(value: Union[Rational, str], what: str, key: str | None = None, kind: str = "state") -> Fraction:
    """The value as a Fraction, a string read by `parse_rational`.  A float,
    or any other type than int, Fraction and str, raises TypeError naming
    the value and the key (a state, or another `kind` of label) it belongs
    to."""
    if isinstance(value, str):
        return parse_rational(value)
    if not isinstance(value, (int, Fraction)):
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


def over_common(vectors: Sequence) -> tuple[int, list[tuple[int, ...]]]:
    """The vectors' `numerators` over the LCM L of their `denominator`s:
    (L, rows of ints), each row a vector's value times L (1 for no vectors)."""
    common = lcm(*{v.denominator for v in vectors})
    return common, [v.numerators if v.denominator == common else
                    tuple([n * (common // v.denominator) for n in v.numerators]) for v in vectors]


class IntVector(Frozen):
    """Exact values over sorted labels: `keys` in sorted order, one int of
    `numerators` per key, over one positive `denominator`, all reduced by
    their gcd, so vectors of one type are equal, and hash alike, exactly when
    their `items()` are.  `items()`, `[key]` and `total()` build `Fraction`s
    only when read.  Built from a mapping of exact values or by `from_ints`,
    a vector then meets its type's `_check`; it is immutable, and a
    `records.Frozen` rebuilt through `from_ints`.
    """

    __slots__ = ("keys", "numerators", "denominator")
    _value_name, _key_name = "value", "key"  # how an error message names a value and its key

    def __init__(self, values: Mapping[str, Union[Rational, str]]):
        items = sorted((key, exact(v, self._value_name, key, self._key_name)) for key, v in values.items())
        denominator, (numerators,) = as_integers([[v for _, v in items]])
        # over the LCM of their reduced denominators the numerators are coprime
        self._fill(tuple([key for key, _ in items]), numerators, denominator)

    @classmethod
    def from_ints(cls, keys: Sequence[str], numerators: Sequence[int], denominator: int) -> "IntVector":
        """The vector of the numerators over the denominator, keys in sorted order."""
        keys, numerators = tuple(keys), tuple(numerators)
        if len(keys) != len(numerators) or denominator < 1 or not all(map(lt, keys, keys[1:])):
            raise ValueError("from_ints needs sorted distinct keys, one numerator each, a denominator > 0")
        return cls._reduced(keys, numerators, denominator)

    _build = from_ints

    def _args(self) -> tuple:
        return self.keys, self.numerators, self.denominator

    @classmethod
    def _reduced(cls, keys: tuple[str, ...], numerators: tuple[int, ...], denominator: int) -> "IntVector":
        """`from_ints` for keys and ints that fit: reduced, then `_check`ed."""
        g = gcd(denominator, *numerators)  # raises TypeError unless all are ints
        if g > 1:
            numerators, denominator = tuple([n // g for n in numerators]), denominator // g
        self = object.__new__(cls)
        self._fill(keys, numerators, denominator)
        return self

    def _fill(self, keys: tuple[str, ...], numerators: tuple[int, ...], denominator: int) -> None:
        for set_field, value in zip(_SETTERS, (keys, numerators, denominator)):
            set_field(self, value)
        self._check()

    def _check(self) -> None:
        """Raise ValueError unless the vector keeps its type's contract."""

    def _nonnegative(self) -> None:
        for key, n in zip(self.keys, self.numerators):
            if n < 0:
                value = Fraction(n, self.denominator)
                raise ValueError(f"negative {self._value_name} {value} for {self._key_name} {key!r}")

    def items(self) -> tuple[tuple[str, Fraction], ...]:
        d = self.denominator
        return tuple([(key, Fraction(n, d)) for key, n in zip(self.keys, self.numerators)])

    def __getitem__(self, key: str) -> Fraction:
        return dict(self.items())[key]

    # `[key]` takes labels, so iteration and `in` must not fall back to
    # indexing by 0, 1, ...; they raise TypeError instead
    __iter__ = None

    def total(self) -> Fraction:
        return Fraction(sum(self.numerators), self.denominator)

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}: {format_rational(v)}" for key, v in self.items())
        return f"{type(self).__name__}({{{inner}}})"


# An immutable IntVector sets its own slots through their descriptors.
_SETTERS = tuple([IntVector.__dict__[slot].__set__ for slot in IntVector.__slots__])


DECIMAL_PLACES = 6


def format_decimal(value: Fraction) -> str:
    """The value with DECIMAL_PLACES digits after the point, rounded to the
    nearest such decimal, a tie away from zero, in exact integers.  A value
    that rounds to zero prints without a sign."""
    scaled = Fraction(value) * 10**DECIMAL_PLACES
    num, den = scaled.numerator, scaled.denominator
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    sign = "-" if num < 0 and q != 0 else ""
    digits = str(q).rjust(DECIMAL_PLACES + 1, "0")
    return f"{sign}{digits[:-DECIMAL_PLACES]}.{digits[-DECIMAL_PLACES:]}"
