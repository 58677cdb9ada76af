"""Exception types shared across the package, and the integer and size
checks that raise them."""

import numpy as np


class PetdomError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PetdomError, ValueError):
    """A precondition on an argument was violated.

    The message always names the violated bound (e.g. "k must satisfy
    k < n/2, got k=3 for n=5").
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


def is_int(value) -> bool:
    """True for int and numpy integers; False for bool and everything else."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def require_int(
    name: str, value, lo: int | None = None, hi: int | None = None,
    caller: str | None = None,
) -> int:
    """Return ``value`` as a Python int, or raise ParameterError.

    The one check of every integer parameter of the package.  Accepts int
    and numpy integers; refuses bool and everything else.  Given ``lo``
    (and optionally ``hi``), a value outside the bound is refused with
    "<name> must satisfy <bound>, got <name>=<value>", or, given
    ``caller``, "<caller> requires <bound>, got <name>=<value>", where
    <bound> is "<name> >= <lo>" or "<lo> <= <name> <= <hi>".
    """
    if type(value) is not int:  # the common case skips the slower checks
        if not is_int(value):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if lo is not None and (value < lo or hi is not None and value > hi):
        bound = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
        head = f"{name} must satisfy" if caller is None else f"{caller} requires"
        raise ParameterError(f"{head} {bound}, got {name}={value}")
    return value


MAX_COLUMNS = 2**23  # most columns of P(n,2) one call materialises


def check_columns(columns: int) -> None:
    """Refuse a call that would materialise more than MAX_COLUMNS columns
    with SizeLimitError; callers check before allocating anything."""
    if columns > MAX_COLUMNS:
        raise SizeLimitError(
            f"a call materialises at most 2^23 = {MAX_COLUMNS} columns, got {columns}"
        )
