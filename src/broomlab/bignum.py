"""Exact arithmetic on ledger values too large to materialize or to
print with ``str()``.

:class:`PowerSum` holds a sum of huge powers symbolically, with exact
bit length, residues and comparisons; :func:`decimal_string` prints a
large int or a PowerSum in sub-quadratic time, the latter without
materializing it.  The ledger loads this module only when it needs one
of them, so importing broomlab does not compile it.
"""

from __future__ import annotations

import functools
import sys
from typing import Callable

from .constants import DECIMAL_LEAF_BITS, SERIALIZE_BITS_CAP

# Moduli for the residue test in PowerSum equality (Mersenne primes).
_RESIDUE_MODULI = ((1 << 61) - 1, (1 << 89) - 1, (1 << 107) - 1)


class UndecidedComparison(ArithmeticError):
    """A symbolic ledger value whose bit length or order against another
    value could not be proved within ``SERIALIZE_BITS_CAP`` bits of
    precision.  Raised instead of a guess."""


@functools.total_ordering
class PowerSum:
    """The exact positive integer ``sum(c * b**e for b, e, c in terms) + offset``.

    ``terms`` is canonical: sorted, one entry per (b, e), with b >= 2,
    e >= 1 and c >= 1; ``offset`` is a non-negative int.  Sums with ints
    or PowerSums and products with non-negative ints stay exact; other
    arithmetic raises TypeError.  ``bit_length``, residues (``x % m``)
    and comparisons never materialize the value.
    """

    __slots__ = ("terms", "offset")

    def __init__(self, terms, offset: int = 0):
        merged: dict[tuple[int, int], int] = {}
        for b, e, c in terms:
            if b < 2 or e < 1 or c < 1:
                raise ValueError(f"not a positive power term: {c}*{b}**{e}")
            merged[b, e] = merged.get((b, e), 0) + c
        if not merged or offset < 0:
            raise ValueError("need a power term and a non-negative offset")
        self.terms = tuple(sorted((b, e, c) for (b, e), c in merged.items()))
        self.offset = offset

    def __repr__(self) -> str:
        terms = " + ".join(f"{_show(c)}*{_show(b)}**{_show(e)}" for b, e, c in self.terms)
        return f"PowerSum({terms} + {_show(self.offset)})"

    def __int__(self) -> int:
        """Materialize the value; costs as much as the value is large."""
        return sum(c * b**e for b, e, c in self.terms) + self.offset

    def __add__(self, other):
        if isinstance(other, PowerSum):
            return PowerSum(self.terms + other.terms, self.offset + other.offset)
        if isinstance(other, int) and other >= 0:
            return PowerSum(self.terms, self.offset + other)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, int) or other < 0:
            return NotImplemented
        if other == 0:
            return 0
        return PowerSum([(b, e, c * other) for b, e, c in self.terms],
                        self.offset * other)

    __rmul__ = __mul__

    def __mod__(self, m):
        if not isinstance(m, int) or m < 1:
            return NotImplemented
        return (sum(c * pow(b, e, m) for b, e, c in self.terms) + self.offset) % m

    def __hash__(self) -> int:
        # CPython hashes a non-negative int as its residue modulo
        # sys.hash_info.modulus, so this agrees with hash(int(self)).
        return hash(self % sys.hash_info.modulus)

    def __eq__(self, other):
        if not isinstance(other, (int, PowerSum)):
            return NotImplemented
        if any(self % m != other % m for m in _RESIDUE_MODULI):
            return False
        return _compare(self, other) == 0

    def __lt__(self, other):
        if isinstance(other, (int, PowerSum)):
            return _compare(self, other) < 0
        return NotImplemented

    def bit_length(self) -> int:
        def decide(precision: int) -> int | None:
            lo, hi, shift = _bounds(self, precision)
            if lo > 0 and lo.bit_length() == hi.bit_length():
                return lo.bit_length() + shift
            return None

        return _refine(decide, self)


Value = int | PowerSum


def _show(v: Value) -> str:
    """A short text for messages; a large int gives its bit length."""
    if isinstance(v, int) and v.bit_length() > 64:
        return f"<{v.bit_length()}-bit int>"
    return repr(v)


def _power_bounds(b: int, e: int, precision: int) -> tuple[int, int, int]:
    """(lo, hi, shift) with ``lo * 2**shift <= b**e <= hi * 2**shift``.

    Square-and-multiply over the odd part of b that keeps only the
    leading ``precision`` bits of each bound, rounding lo down and hi up;
    a power of two comes out exact.
    """
    twos = (b & -b).bit_length() - 1
    odd = b >> twos
    lo = hi = 1
    shift = 0
    for bit in bin(e)[2:]:
        lo, hi, shift = lo * lo, hi * hi, 2 * shift
        if bit == "1":
            lo, hi = lo * odd, hi * odd
        drop = hi.bit_length() - precision
        if drop > 0:
            lo, hi, shift = lo >> drop, -(-hi >> drop), shift + drop
    return lo, hi, shift + twos * e


def _bounds(x: Value, precision: int) -> tuple[int, int, int]:
    """(lo, hi, shift) with ``lo * 2**shift <= x <= hi * 2**shift``; an int
    is its own exact bound."""
    if isinstance(x, int):
        return x, x, 0
    parts = []
    for b, e, c in x.terms:
        lo, hi, s = _power_bounds(b, e, precision)
        parts.append((c * lo, c * hi, s))
    top = max(x.offset.bit_length(), *(hi.bit_length() + s for _, hi, s in parts))
    grid = max(top - precision, 0)
    lo, hi = x.offset >> grid, -(-x.offset >> grid)
    for plo, phi, s in parts:
        if s >= grid:
            lo, hi = lo + (plo << (s - grid)), hi + (phi << (s - grid))
        else:
            lo, hi = lo + (plo >> (grid - s)), hi - (-phi >> (grid - s))
    return lo, hi, grid


def _below(h: int, hs: int, l: int, ls: int) -> bool:
    """``h * 2**hs < l * 2**ls``; only an int bound (shift 0) is negative."""
    if h <= 0 or l <= 0:
        return h < l
    th, tl = h.bit_length() + hs, l.bit_length() + ls
    if th != tl:
        return th < tl
    g = min(hs, ls)
    return h << (hs - g) < l << (ls - g)


def _cancel(x: Value, y: Value) -> tuple[Value, Value]:
    """x and y less the power terms and the offset they share, so that a
    value compares exactly with itself plus something small."""
    def parts(v: Value) -> tuple[dict[tuple[int, int], int], int]:
        if isinstance(v, int):
            return {}, v
        return {(b, e): c for b, e, c in v.terms}, v.offset

    (xt, xo), (yt, yo) = parts(x), parts(y)
    for key in xt.keys() & yt.keys():
        common = min(xt[key], yt[key])
        xt[key] -= common
        yt[key] -= common
    common = min(xo, yo)

    def rebuild(terms: dict[tuple[int, int], int], offset: int) -> Value:
        kept = [(b, e, c) for (b, e), c in terms.items() if c]
        return PowerSum(kept, offset) if kept else offset

    return rebuild(xt, xo - common), rebuild(yt, yo - common)


def _compare(x: Value, y: Value) -> int:
    """Sign of ``x - y``: exact on what remains after :func:`_cancel`,
    from magnitude intervals refined until they are disjoint or both
    exact."""
    x, y = _cancel(x, y)
    if isinstance(x, int) and isinstance(y, int):
        return (x > y) - (x < y)

    def decide(precision: int) -> int | None:
        xl, xh, xs = _bounds(x, precision)
        yl, yh, ys = _bounds(y, precision)
        if _below(xh, xs, yl, ys):
            return -1
        if _below(yh, ys, xl, xs):
            return 1
        if xl == xh and yl == yh:
            return 0
        return None

    return _refine(decide, x, y)


def _refine(decide: Callable[[int], int | None], *values: Value) -> int:
    """First answer of ``decide`` at precision 64, 128, ... bits, up to
    ``SERIALIZE_BITS_CAP``; ``values`` name the operands in the error."""
    precision = 64
    while precision <= SERIALIZE_BITS_CAP:
        answer = decide(precision)
        if answer is not None:
            return answer
        precision *= 2
    raise UndecidedComparison(f"{' vs '.join(map(_show, values))}: "
                              f"not decided at {SERIALIZE_BITS_CAP} bits of precision")


def decimal_string(n: Value, powers: dict | None = None) -> str:
    """Decimal digits of ``n >= 0`` without the quadratic cost and the
    digit limit of ``str(int)``.

    An int is split into binary halves, each converted to
    ``decimal.Decimal`` and recombined with an exact power of two, the
    technique of CPython 3.12's ``_pylong``; libmpdec multiplies large
    numbers in sub-quadratic time.  A PowerSum is summed as
    ``c * Decimal(b)**e`` per term plus its offset, each int converted
    as above, so the value is never materialized as an int.  Every step
    is exact: the context has the maximal precision and traps Inexact.

    ``powers`` maps ``(b, e)`` to the Decimal ``b**e``; a caller that
    prints several values passes one dict to all the calls, so that a
    power shared by two values (``nested.t1`` and ``nested.t``) is
    computed once.
    """
    if isinstance(n, int) and n.bit_length() <= DECIMAL_LEAF_BITS:
        return str(n)
    import decimal

    D = decimal.Decimal
    powers = {} if powers is None else powers

    def power(b: int, e: int) -> decimal.Decimal:
        if (b, e) not in powers:
            powers[b, e] = convert(b, b.bit_length()) ** e
        return powers[b, e]

    def convert(x: int, width: int) -> decimal.Decimal:
        if width <= DECIMAL_LEAF_BITS:
            return D(x)
        half = width >> 1
        hi = x >> half
        return convert(hi, width - half) * power(2, half) + convert(x - (hi << half), half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        try:
            if isinstance(n, int):
                return str(convert(n, n.bit_length()))
            total = convert(n.offset, n.offset.bit_length())
            for b, e, c in n.terms:
                total += convert(c, c.bit_length()) * power(b, e)
            return str(total)
        finally:
            # convert and power refer to each other through their
            # closures; breaking that cycle frees the Decimals they made
            # at once instead of whenever the cycle collector next runs.
            del convert, power
