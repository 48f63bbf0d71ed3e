"""Exact linear algebra over the rationals.

Every Hilbert-function value computed in this package is the dimension
of a derivative layer (a span of integer rows), every graded ideal piece
is the orthogonal complement of one (:meth:`SpanBuilder.kernel`, read
off the reduced echelon form), and every derivative closure or
generator count is the dimension of a growing span.  All of them run
through one eliminator, :class:`SpanBuilder`, so nothing is rounded and
elimination happens in one place.

The dense side is only an adapter for callers of the public
``catalecticant_matrix``: :class:`QMatrix` holds such a matrix, and
:func:`rank` and :func:`kernel_basis` feed its rows to the same engine.

Row form: a vector is a sparse map from orderable keys to rationals.
Its denominators are cleared on entry (an all-``int`` vector, as every
layer, prolongation and kernel-of-derivative vector is, skips that
pass), and every stored row is a primitive integer vector (entries with
gcd 1, positive pivot) whose pivot is its largest key.  A vector meeting
a stored row at that row's pivot ``p`` is eliminated fraction-free, as
in Bareiss's method: with ``g = gcd(v[p], row[p])`` it becomes
``v * (row[p]/g) - row * (v[p]/g)``, so entries stay integers, and its
content is divided out before it is stored.

Dense matrices enter with column ``c`` keyed as ``-c``, so each pivot is
its row's first nonzero column (exponent-tuple keys in descending
monomial order behave the same way).  Determinism of golden output rests on
this: the reduced echelon form of a matrix is unique, and kernel bases
are the reduced-echelon ones (one vector per free column, free columns
in ascending index).
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


def _eliminate(v: dict, a: int, lead: int, tail: dict) -> tuple[dict, int]:
    """One fraction-free step: ``a`` is the coefficient just popped from
    ``v`` at the pivot of the row ``(lead, tail)``.  Returns
    ``v * (lead/g) - tail * (a/g)`` with ``g = gcd(a, lead)``, and the
    factor ``lead/g`` that ``v`` was scaled by."""
    g = math.gcd(a, lead)
    a //= g
    scale = lead // g
    if scale != 1:
        v = {k: c * scale for k, c in v.items()}
    for k, c in tail.items():
        nv = v.get(k, 0) - a * c
        if nv:
            v[k] = nv
        else:
            del v[k]
    return v, scale


class SpanBuilder:
    """Incremental sparse echelon form over the rationals.

    Vectors are mappings from orderable keys (exponent tuples, or
    negated column indices for matrices) to rational coefficients.  Rows
    are stored as primitive integer vectors, one per pivot, the pivot
    being the row's largest key; see the module docstring for the
    elimination step.
    """

    def __init__(self) -> None:
        # pivot key -> (pivot coefficient, the rest of the row)
        self._rows: dict[object, tuple[int, dict[object, int]]] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def add(self, vec: Mapping) -> bool:
        """Insert ``vec``; returns True iff it enlarged the span.

        ``vec`` has its denominators cleared (only when some entry is not
        an ``int``) and is eliminated against the stored rows until its
        largest key is not a pivot (lower keys may remain unreduced);
        nothing is left iff it lay in the span.
        """
        v = {k: c for k, c in vec.items() if c}
        if any(type(c) is not int for c in v.values()):
            scale = math.lcm(*(c.denominator for c in v.values()))
            v = {k: c.numerator * (scale // c.denominator) for k, c in v.items()}
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
        self._rows[p] = (lead, {k: c // g for k, c in v.items()})
        return True

    def rows(self) -> Iterator[dict]:
        """The stored primitive integer rows, pivot term first, in the
        order they were stored; they span the same space as the input."""
        for p, (lead, tail) in self._rows.items():
            yield {p: lead, **tail}

    def reduced_rows(self) -> list[dict]:
        """Reduced echelon basis of the span, largest pivot first.

        Each row maps its pivot to 1, has 0 at every other pivot, and
        has Fraction coefficients elsewhere.  The basis depends only on
        the span, not on the order vectors were added.
        """
        done: dict[object, tuple[int, dict[object, int]]] = {}
        for p in sorted(self._rows):
            lead, tail = self._rows[p]
            row = dict(tail)
            # stored rows only reach lower keys, and each reduced row is
            # zero at every pivot, so one pass over the pivots present
            # in ``tail`` clears them all
            for q in [k for k in tail if k in self._rows]:
                row, scale = _eliminate(row, row.pop(q), *done[q])
                lead *= scale
            g = math.gcd(lead, *row.values())
            done[p] = (lead // g, {k: c // g for k, c in row.items()})
        out = []
        for p in sorted(done, reverse=True):
            lead, tail = done[p]
            out.append({p: Fraction(1), **{k: Fraction(c, lead) for k, c in tail.items()}})
        return out

    def kernel(self, keys: Iterable) -> Iterator[dict]:
        """Basis of the vectors over ``keys`` whose dot product with every
        stored row is 0 (the kernel of the matrix these rows span).

        ``keys`` are the columns: each key once, every key of the rows
        among them.  One vector per key that is not a pivot, in the
        order of ``keys``, with 1 at that key, minus the reduced rows'
        entries at the pivots, and nothing elsewhere.  Pivot terms come
        first, largest pivot first, then the free key.  This is the
        reduced-echelon kernel basis, so it depends only on the span.
        """
        entries = {k: [] for k in keys}
        # reduced rows come largest pivot first, so each list of pivot
        # entries is in descending pivot order
        for row in self.reduced_rows():
            it = iter(row.items())
            p, _ = next(it)
            del entries[p]
            for k, c in it:
                entries[k].append((p, -c))
        for k, pairs in entries.items():
            yield {**dict(pairs), k: Fraction(1)}


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

