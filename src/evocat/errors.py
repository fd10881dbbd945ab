"""Exception hierarchy for the evocat machine.

Everything raised on purpose by this package derives from EvoError, so
callers can catch one type at the boundary.  Parse-time problems carry a
source position.  An error raised while a sequential body runs carries, in
``instruction``, the index of the innermost instruction that was executing
when it was raised; enclosing bodies leave it as they find it.
"""

from __future__ import annotations


class EvoError(Exception):
    """Base class for all errors raised by evocat."""

    instruction: int | None = None


# --- text format ---------------------------------------------------------

class ParseError(EvoError):
    """Malformed source text; knows where the problem is."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class DuplicateSibling(ParseError):
    """Two children of one node carry the same label."""


class VariablesOutsideRules(ParseError):
    """A ``$`` form appeared in a plain state file."""


# --- addressing ----------------------------------------------------------

class PathUnresolvable(EvoError):
    """A path did not lead to a node where one was required."""


class NotASet(EvoError):
    """A set node was required but a leaf (or other node) was found."""


class FrozenCode(EvoError):
    """A node writer met frozen template code, which copies share."""


class OrdinalInMeet(EvoError):
    """meet() is defined on label-only paths; normalize ordinals first."""


# --- evaluation ----------------------------------------------------------

class EvalError(EvoError):
    """Generic evaluation failure (malformed term, bad arity, ...)."""


class UnknownOperation(EvalError):
    """Operation identifier is neither built in nor a visible template."""


class FuelExhausted(EvalError):
    """The step budget ran out; the run would probably not terminate."""


class DepthExceeded(EvalError):
    """The run nested deeper than the host interpreter's stack allows."""


class CyclicReference(EvalError):
    """A chain of references revisited a node already being evaluated."""


class UnboundVariable(EvalError):
    """A template used a variable the binding does not define."""


class MissingArgument(EvalError):
    """A function was called with an argument slot still unfilled."""


# --- value operations ----------------------------------------------------

class MixedKinds(EvoError):
    """Binary set/leaf operation applied to one leaf and one set."""


class NotBoolean(EvoError):
    """A boolean (leaf 0 or 1) was required."""


class NotALeaf(EvoError):
    """A natural-number leaf was required."""


class DivisionByZero(EvoError):
    """Remainder with zero divisor."""


# --- appliances ----------------------------------------------------------

class CompareFailed(EvoError):
    """The heap's compare function failed on a pair of items."""


class EmptyHeap(EvoError):
    """get() on a heap with no items."""


# --- devices -------------------------------------------------------------

class UnboundDevice(EvoError):
    """No device is mounted at the path, or the direction is wrong."""


class EndOfInput(EvoError):
    """The input device has no more data."""


class NotEncodable(EvoError):
    """The value cannot be rendered by the output device."""
