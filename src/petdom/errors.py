"""Exception types shared across the package, and the integer check
that raises one."""

import numpy as np


class PetdomError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PetdomError, ValueError):
    """A precondition on an argument was violated.

    The message always names the violated bound (e.g. "k must satisfy
    1 <= k < n/2, got k=3 for n=5").
    """


class SizeLimitError(ParameterError):
    """An instance exceeds a hard size guard of an algorithm."""


class InfeasibleError(PetdomError):
    """No valid set exists within the requested cardinality budget."""


class ClassificationImpossibleError(PetdomError):
    """A singleton block whose member cannot dominate the block's
    central outer vertex.

    This cannot happen for a valid [1,2]-dominating set; raising it
    signals corrupted input rather than a recoverable condition.
    """


class CensusError(PetdomError, ValueError):
    """The induced subgraph is not a disjoint union of paths and cycles
    (some vertex has induced degree 0 or 3), so the input set was not
    [1,2]-total dominating."""


class InternalError(PetdomError, RuntimeError):
    """An internal invariant was breached (e.g. a solver produced a
    witness that fails validation).  Must never occur."""


class ConstructionError(InternalError):
    """A construction produced a set that failed its own emit-time
    validation.  Internal invariant breach; must never occur."""


def require_int(name: str, value, lo: int, caller: str | None = None) -> int:
    """Return ``value`` as an int, or raise ParameterError.

    Accepts int and numpy integers; refuses bool and everything else.  A
    value below ``lo`` is refused with "<name> must be >= <lo>, got
    <value>", or, given ``caller``, with "<caller> requires <name> >=
    <lo>, got <name>=<value>".
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < lo:
        if caller is None:
            raise ParameterError(f"{name} must be >= {lo}, got {value}")
        raise ParameterError(f"{caller} requires {name} >= {lo}, got {name}={value}")
    return int(value)
