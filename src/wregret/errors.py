"""Exception types shared across the package.

The library raises a `DomainError` subclass for a well-formed request that
the domain rejects (an undefined update, an act outside its menu),
`ValueError` or `TypeError` for a malformed argument (an empty act name, a
float where an exact value is needed, a mixture weight outside [0, 1]), and
a `ParseError`, which carries positioned diagnostics, for text that does not
parse.  `cli.main` exits 1 on a `DomainError` or `ValueError`, 2 on a
`ParseError` and 3 on a usage error (bad options, an unreadable file).
"""

from __future__ import annotations


class DomainError(Exception):
    """A well-formed request that the domain rules reject."""


# -- weighted measure sets ---------------------------------------------------

class EmptySet(DomainError):
    """A weighted measure set needs at least one entry."""


class AllZeroWeights(DomainError):
    """Normalization is undefined when every weight is zero."""


class UndefinedUpdate(DomainError):
    """Likelihood updating on an event with zero upper likelihood."""


class NegativeDirection(DomainError):
    """Support values are only defined for nonnegative directions."""


class DimensionMismatch(DomainError):
    """Operands are defined over different state spaces."""


class NoInformativeDirection(DomainError):
    """Weight recovery needs a direction with negative expectation."""


# -- acts, menus and decision rules ------------------------------------------

class UnknownPrize(DomainError):
    """A lottery references a prize with no utility assignment."""


class ActNotInMenu(DomainError):
    """Regret is only defined for acts that belong to the menu."""


class BeliefKindMismatch(DomainError):
    """The belief object does not match the decision rule's kind."""


# -- axiom checking -----------------------------------------------------------

class UnknownAxiom(DomainError):
    """No checker is registered under the requested axiom id."""


# -- conditional preferences and trees ----------------------------------------

class NullEvent(DomainError):
    """Conditional scores are undefined on null events."""


class MalformedTree(DomainError):
    """The decision tree violates a structural invariant."""


class NullEventAtNode(DomainError):
    """Backward induction reached a node whose information set is null."""


# -- threshold updating --------------------------------------------------------

class AllEliminated(DomainError):
    """Threshold updating removed every measure."""


# -- parsing -------------------------------------------------------------------

class ParseError(Exception):
    """Raised by the text-format parsers; carries positioned diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        head = self.diagnostics[0] if self.diagnostics else None
        message = str(head) if head is not None else "parse error"
        if len(self.diagnostics) > 1:
            message += f" (+{len(self.diagnostics) - 1} more)"
        super().__init__(message)
