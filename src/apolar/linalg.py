"""Exact linear algebra over the rationals.

Every Hilbert-function value computed in this package is the dimension
of a derivative layer (a span of integer rows), every graded ideal piece
is the orthogonal complement of one (:meth:`SpanBuilder.kernel`, which
back-substitutes the stored rows), and every derivative closure or
generator count is the dimension of a growing span.  There is one
exact engine, :class:`SpanBuilder`, so nothing is rounded, plus a
certificate that can only confirm a known bound: :class:`ModularRank`
eliminates the same vectors reduced modulo ``PRIME``.  Reducing an
integer matrix mod p cannot raise its rank (a minor that is nonzero mod
p is a nonzero integer), so a modular rank that reaches an upper bound
known from elsewhere proves the rank over Q; one that falls short
proves nothing, and the caller then runs the exact engine.

The dense side is only an adapter for callers of the public
``catalecticant_matrix``: :class:`QMatrix` holds such a matrix, and
:func:`rank` and :func:`kernel_basis` feed its rows to the same engine.

Row form: a vector is a sparse map from orderable keys to rationals.
Layer rows use packed int keys (one ``int`` per exponent vector, see
``apolarity._Keys``) whose order equals the exponent-tuple order.  The
prolongation and kernel-of-derivative vectors made from them
(``apolarity._image_rank``) use column keys ``b * width + j``: column j
numbers the monomials of a layer's partials in that order
(``apolarity._Gradients``), and b is a block (the number of a pair of
variables i < k, in lexicographic order, for the generator count; 0
for a kernel), so keys sort block-major and then by monomial.
Annihilator and colon rows use exponent tuples.  On entry a vector is
copied, its zeros dropped and its denominators cleared, each only when a
C-level check finds the need (``0 in`` its values, and ``math.gcd`` of
them, which raises ``TypeError`` on a ``Fraction``): every packed vector
is built integer, so it pays one ``dict`` copy and two passes in C, not
a Python-level pass per entry.  Every stored row is a primitive
integer vector (entries with gcd 1, positive pivot) whose pivot is its
largest key, held as its pivot coefficient and two tuples, the keys and
the coefficients of the rest of the row, not as a ``dict``: only the
vector being eliminated is looked up by key.  A vector meeting a stored
row at that row's pivot ``p`` is eliminated fraction-free, as in
Bareiss's method: with ``g = gcd(v[p], row[p])`` it becomes
``v * (row[p]/g) - row * (v[p]/g)``, so entries stay integers, and its
content is divided out before it is stored.

Dense matrices enter with column ``c`` keyed as ``-c``, so each pivot is
its row's first nonzero column (exponent-tuple keys in descending
monomial order behave the same way, and so do the packed int keys of
layer rows, whose order equals the tuple order).  Determinism of golden
output rests on this: the reduced echelon form of a matrix is unique,
and kernel bases are the reduced-echelon ones (one vector per free
column, free columns in ascending index).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction


class DimensionMismatchError(ValueError):
    """The rows given for one matrix have unequal lengths."""


@dataclass(frozen=True)
class QMatrix:
    """Dense row-major matrix of rationals."""

    rows: int
    cols: int
    entries: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int | Rational]]) -> "QMatrix":
        data = [Fraction(x) for row in rows for x in row]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise DimensionMismatchError("rows have unequal lengths")
        return cls(nrows, ncols, tuple(data))

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]


def clear_denominators(vec: Mapping) -> dict:
    """The integer multiple of ``vec`` by the lcm of its denominators;
    an all-``int`` vector comes back equal to itself."""
    scale = math.lcm(*(c.denominator for c in vec.values()))
    return {k: c.numerator * (scale // c.denominator) for k, c in vec.items()}


def _eliminate(v: dict, a: int, lead: int, keys: tuple, values: tuple) -> tuple[dict, int]:
    """One fraction-free step: ``a`` is the coefficient just popped from
    ``v`` at the pivot of the row ``(lead, keys, values)``.  Returns
    ``v * (lead/g) - tail * (a/g)`` with ``g = gcd(a, lead)``, the tail
    being the row's ``values`` at its ``keys``, and the factor ``lead/g``
    that ``v`` was scaled by."""
    g = math.gcd(a, lead)
    a //= g
    scale = lead // g
    if scale != 1:
        v = {k: c * scale for k, c in v.items()}
    for k, c in zip(keys, values):
        nv = v.get(k, 0) - a * c
        if nv:
            v[k] = nv
        else:
            del v[k]
    return v, scale


class SpanBuilder:
    """Incremental sparse echelon form over the rationals.

    Vectors are mappings from orderable keys (packed monomial ints,
    column keys or exponent tuples, or negated column indices for
    matrices) to rational coefficients.  Rows are stored as primitive
    integer vectors, one per pivot, the pivot being the row's largest
    key; see the module docstring for the elimination step.

    A stored row is ``(lead, keys, values)``: the pivot coefficient, and
    the rest of the row as two tuples, its keys and their coefficients
    in the order the eliminated vector held them.  An elimination step
    only walks a row's tail, which two tuples hold in 16 to 20 bytes an
    entry (CPython, 64-bit) against the 30 to 50 of a ``dict``; every
    layer, image, kernel and closure span holds its rows this way.

    The stored rows are the one echelon form: :meth:`add` eliminates
    against them, and :meth:`kernel` back-substitutes them as it reads
    the kernel off.
    """

    def __init__(self) -> None:
        # pivot key -> (pivot coefficient, keys of the rest, its coefficients)
        self._rows: dict[object, tuple[int, tuple, tuple]] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def add(self, vec: Mapping) -> bool:
        """Insert ``vec``; returns True iff it enlarged the span.

        ``vec`` is copied with C-level checks only: its zero entries are
        dropped when ``0 in`` its values finds one, and its denominators
        are cleared when ``math.gcd`` of its values raises ``TypeError``
        (on a ``Fraction``, integral or not).  It is then eliminated
        against the stored rows until its largest key is not a pivot
        (lower keys may remain unreduced); nothing is left iff it lay in
        the span.
        """
        v = dict(vec)
        if 0 in v.values():
            v = {k: c for k, c in v.items() if c}
        try:
            math.gcd(*v.values())
        except TypeError:
            v = clear_denominators(v)
        rows = self._rows
        while v:
            p = max(v)
            stored = rows.get(p)
            if stored is None:
                break
            v, _ = _eliminate(v, v.pop(p), *stored)
        if not v:
            return False
        g = math.gcd(*v.values())
        if v[p] < 0:
            g = -g
        lead = v.pop(p) // g
        values = v.values() if g == 1 else (c // g for c in v.values())
        self._rows[p] = (lead, tuple(v), tuple(values))
        return True

    def kernel(self, keys: Iterable) -> Iterator[dict]:
        """Basis of the vectors over ``keys`` whose dot product with every
        stored row is 0 (the kernel of the matrix these rows span).

        ``keys`` are the columns: each key once, every key of the rows
        among them.  One vector per key that is not a pivot, in the
        order of ``keys``, with 1 at that key, minus the reduced rows'
        entries at the pivots, and nothing elsewhere.  Pivot terms come
        first, largest pivot first, then the free key.  This is the
        reduced-echelon kernel basis, so it depends only on the span.

        The stored rows are back-substituted in ascending pivot order,
        each against the rows already reduced: a stored row only reaches
        lower keys, and each reduced row is zero at every other pivot,
        so one pass over the pivots present in its keys clears them all.
        """
        entries = {k: [] for k in keys}
        done: dict[object, tuple[int, tuple, tuple]] = {}
        for p in sorted(self._rows):
            lead, row_keys, values = self._rows[p]
            row = dict(zip(row_keys, values))
            for q in [k for k in row_keys if k in self._rows]:
                row, scale = _eliminate(row, row.pop(q), *done[q])
                lead *= scale
            g = math.gcd(lead, *row.values())
            done[p] = (lead // g, tuple(row), tuple(c // g for c in row.values()))
            del entries[p]
        # largest pivot first, so each list of pivot entries is in
        # descending pivot order
        for p in reversed(done):
            lead, row_keys, values = done[p]
            for k, c in zip(row_keys, values):
                entries[k].append((p, Fraction(-c, lead)))
        for k, pairs in entries.items():
            yield {**dict(pairs), k: Fraction(1)}


PRIME = 2**31 - 1
SLOT_BITS = 96  # bits per column of a packed vector
# packing pays once the vectors fill, on average, one slot in _DENSITY
_DENSITY = 8
_LOW31 = b"\xff\xff\xff\x7f" + bytes(SLOT_BITS // 8 - 4)
_LOW3 = b"\x07" + bytes(SLOT_BITS // 8 - 1)


def packs_densely(nonzeros: int, vectors: int, slots: int) -> bool:
    """Whether ``vectors`` vectors with ``nonzeros`` nonzero entries in
    all, over ``slots`` columns, fill on average at least one slot in
    eight: dense enough that :class:`ModularRank`'s whole-width int
    arithmetic beats the per-entry dicts of :class:`SpanBuilder`."""
    return _DENSITY * nonzeros >= vectors * slots


def pack(entries: Iterable[tuple[int, int]], slots: int) -> int:
    """One int holding integer ``c`` reduced mod PRIME in slot ``j`` (bits
    ``SLOT_BITS * j`` and up) for each pair ``(j, c)``, over ``slots``
    slots.  One bytearray is filled and converted once, so the cost is
    linear in the slot count (summing shifted ints would be quadratic)."""
    width = SLOT_BITS // 8
    buf = bytearray(width * slots)
    for j, c in entries:
        buf[width * j : width * j + 4] = (c % PRIME).to_bytes(4, "little")
    return int.from_bytes(buf, "little")


class ModularRank:
    """Incremental rank modulo PRIME of vectors packed by :func:`pack`.

    Each stored row is monic: its top nonzero slot (the pivot) is an
    implied 1 and only its tail, the slots below, is kept.  A vector
    whose top slot ``j`` holds ``a`` (read mod PRIME) is eliminated
    against the row at ``j`` by ``x += (PRIME - a) * tail`` and clearing
    slot ``j``, so the top slot only falls and no step loops over slots
    in Python.  A vector whose top slot is free becomes a new row: it is
    multiplied by ``pow(a, -1, PRIME)``.

    Slots are never reduced between steps, only folded: since
    ``2**31 = 1 (mod PRIME)``, adding the 31-bit pieces of every slot at
    once (``(x & M) + ((x >> 31) & M) + ...`` over per-slot masks M)
    keeps each residue and maps a slot below 2^96 to one below 2^33.
    The invariants: a vector is folded on entry, and a new row is folded
    before and after its normalization, so stored tail slots stay below
    2^33; each step then adds below ``2^31 * 2^33 = 2^64`` to a slot, so
    a 96-bit slot holds 2^32 steps without carrying into the next.  A
    vector takes at most one step per slot below its top, hence the
    limit of 2^32 slots.
    """

    def __init__(self, slots: int) -> None:
        if slots >= 1 << 32:
            raise ValueError(f"{slots} slots: a packed vector holds fewer than 2^32")
        self._rows: dict[int, int] = {}
        self._low31 = int.from_bytes(_LOW31 * slots, "little")
        self._low3 = int.from_bytes(_LOW3 * slots, "little")

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _fold(self, x: int) -> int:
        m = self._low31
        return (x & m) + ((x >> 31) & m) + ((x >> 62) & m) + ((x >> 93) & self._low3)

    def add(self, x: int) -> bool:
        """Insert a packed vector, every slot below 2^96; returns True iff
        it enlarged the span mod PRIME."""
        x = self._fold(x)
        rows = self._rows
        while x:
            j = (x.bit_length() - 1) // SLOT_BITS
            shift = SLOT_BITS * j
            top = x >> shift
            x -= top << shift
            a = top % PRIME
            if not a:
                continue
            tail = rows.get(j)
            if tail is None:
                rows[j] = self._fold(self._fold(x) * pow(a, -1, PRIME))
                return True
            x += (PRIME - a) * tail
        return False


def _span(m: QMatrix) -> SpanBuilder:
    """Builder over the rows of ``m``, column ``c`` keyed as ``-c``."""
    span = SpanBuilder()
    for i in range(m.rows):
        span.add({-c: x for c, x in enumerate(m.row(i)) if x})
    return span


def rank(m: QMatrix) -> int:
    """Exact rank over the rationals."""
    return _span(m).dim


def kernel_basis(m: QMatrix) -> list[tuple[Rational, ...]]:
    """Reduced-echelon basis of the right kernel.

    One vector per free column, taken in ascending column index; the
    vector for free column ``f`` has a 1 there, 0 at the other free
    columns, and the unique pivot entries solving ``m @ v = 0``.
    """
    span = _span(m)
    basis = []
    # densified one at a time because a kernel can hold cols^2 entries
    for v in span.kernel([-c for c in range(m.cols)]):
        dense = [Fraction(0)] * m.cols
        for key, c in v.items():
            dense[-key] = c
        basis.append(tuple(dense))
    return basis

