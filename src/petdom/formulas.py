"""Closed-form domination numbers of P(n,2).

These formulas serve as oracles for the exact solvers:

* ``f_one_two(n)``      -- minimum size of a [1,2]-dominating set,
* ``g_one_two_total(n)`` -- minimum size of a [1,2]-total dominating set,
* ``gamma_ref(n)``      -- ordinary domination number, ceil(3n/5),
* ``gamma_t_ref(n)``    -- total domination number, 2*ceil(n/3).

Both [1,2] numbers are the total domination number with one exception
each: f(n) is one less when n = 1 (mod 6), and g(5) = 5.

The [1,2] formulas are defined for n >= 5 and are rejected below that
instead of extrapolating.  ``BY_KIND`` maps each ``DominationKind`` to its
formula, in enum order; every layer that needs a kind's closed form reads
it there.
"""

from .domination import DominationKind
from .errors import require_int

__all__ = ["BY_KIND", "f_one_two", "g_one_two_total", "gamma_ref", "gamma_t_ref"]


def f_one_two(n: int) -> int:
    """[1,2]-domination number of P(n,2) for n >= 5.

    The total domination number 2*ceil(n/3), less one when n = 1 (mod 6):
    2n/3 when n = 0,3 (mod 6), 2*floor(n/3)+1 when n = 1 and
    2*floor(n/3)+2 otherwise.  Satisfies f(n) = f(n-6) + 4 for n >= 11.
    """
    n = require_int("n", n, 5)
    return 2 * -(-n // 3) - (n % 6 == 1)


def g_one_two_total(n: int) -> int:
    """[1,2]-total domination number of P(n,2) for n >= 5.

    The total domination number 2*ceil(n/3), except 5 at n = 5.  Equals
    f_one_two(n) except when n = 5 or n = 1 (mod 6).
    """
    n = require_int("n", n, 5)
    return 5 if n == 5 else 2 * -(-n // 3)


def gamma_ref(n: int) -> int:
    """Domination number of P(n,2): ceil(3n/5)."""
    n = require_int("n", n, 3)
    return -(-3 * n // 5)


def gamma_t_ref(n: int) -> int:
    """Total domination number of P(n,2): 2*ceil(n/3)."""
    n = require_int("n", n, 3)
    return 2 * (-(-n // 3))


BY_KIND = {
    DominationKind.PLAIN: gamma_ref,
    DominationKind.TOTAL: gamma_t_ref,
    DominationKind.ONE_TWO: f_one_two,
    DominationKind.ONE_TWO_TOTAL: g_one_two_total,
}
