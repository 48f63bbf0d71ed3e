"""Exact linear algebra over the rationals.

Every Hilbert-function value computed in this package is the rank of a
catalecticant matrix, every graded ideal piece is a kernel, and every
derivative closure or generator count is the dimension of a growing
span.  All of them run through one eliminator, :class:`SpanBuilder`, so
nothing is rounded and elimination happens in one place.

Row form: a vector is a sparse map from orderable keys to rationals.
Its denominators are cleared on entry, and every stored row is a
primitive integer vector (entries with gcd 1, positive pivot) whose
pivot is its largest key.  A vector meeting a stored row at that row's
pivot ``p`` is eliminated fraction-free, as in Bareiss's method: with
``g = gcd(v[p], row[p])`` it becomes ``v * (row[p]/g) - row * (v[p]/g)``,
so entries stay integers, and its content is divided out before it is
stored.

Dense matrices enter with column ``c`` keyed as ``-c``, so each pivot is
its row's first nonzero column.  Determinism of golden output rests on
this: the reduced echelon form of a matrix is unique, and kernel bases
are the reduced-echelon ones (one vector per free column, free columns
in ascending index).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction


class DimensionMismatchError(ValueError):
    """Vectors of unequal length were combined."""


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

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        ent = [Fraction(0)] * (n * n)
        for i in range(n):
            ent[i * n + i] = Fraction(1)
        return cls(n, n, tuple(ent))

    def at(self, i: int, j: int) -> Rational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def transpose(self) -> "QMatrix":
        ent = [self.at(i, j) for j in range(self.cols) for i in range(self.rows)]
        return QMatrix(self.cols, self.rows, tuple(ent))

    def mul_vec(self, v: Sequence[int | Rational]) -> tuple[Rational, ...]:
        if len(v) != self.cols:
            raise DimensionMismatchError(
                f"vector of length {len(v)} against {self.cols} columns"
            )
        vv = [Fraction(x) for x in v]
        return tuple(
            sum((self.at(i, j) * vv[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )


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

    def _residue(self, vec: Mapping) -> dict:
        """``vec`` with denominators cleared, eliminated against the stored
        rows until its largest key is not a pivot (lower keys may remain
        unreduced); empty iff ``vec`` lies in the span."""
        v = {k: c for k, c in vec.items() if c}
        scale = math.lcm(*(c.denominator for c in v.values()))
        v = {k: c.numerator * (scale // c.denominator) for k, c in v.items()}
        rows = self._rows
        while v:
            p = max(v)
            stored = rows.get(p)
            if stored is None:
                break
            v, _ = _eliminate(v, v.pop(p), *stored)
        return v

    def add(self, vec: Mapping) -> bool:
        """Insert ``vec``; returns True iff it enlarged the span."""
        v = self._residue(vec)
        if not v:
            return False
        p = max(v)
        g = math.gcd(*v.values())
        if v[p] < 0:
            g = -g
        lead = v.pop(p) // g
        self._rows[p] = (lead, {k: c // g for k, c in v.items()})
        return True

    def contains(self, vec: Mapping) -> bool:
        return not self._residue(vec)

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


def _span(rows: Iterable[Sequence[int | Rational]], width: int) -> SpanBuilder:
    """Builder over dense rows of length ``width``, column ``c`` keyed as ``-c``."""
    span = SpanBuilder()
    for row in rows:
        if len(row) != width:
            raise DimensionMismatchError("vectors have unequal lengths")
        span.add({-c: x for c, x in enumerate(row) if x})
    return span


def rank(m: QMatrix) -> int:
    """Exact rank over the rationals."""
    return _span(map(m.row, range(m.rows)), m.cols).dim


def kernel_basis(m: QMatrix) -> list[tuple[Rational, ...]]:
    """Reduced-echelon basis of the right kernel.

    One vector per free column, taken in ascending column index; the
    vector for free column ``f`` has a 1 there, 0 at the other free
    columns, and the unique pivot entries solving ``m @ v = 0``.
    """
    rows = _span(map(m.row, range(m.rows)), m.cols).reduced_rows()
    pivots = {-max(row): row for row in rows}
    # free column -> its (pivot column, entry) pairs; vectors are built
    # one at a time because a kernel can hold cols^2 entries
    entries = {f: [] for f in range(m.cols) if f not in pivots}
    for pc, row in pivots.items():
        for key, c in row.items():
            if -key != pc:
                entries[-key].append((pc, -c))
    basis = []
    for f, pairs in entries.items():
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for pc, c in pairs:
            v[pc] = c
        basis.append(tuple(v))
    return basis


def span_dim(vectors: Sequence[Sequence[int | Rational]]) -> int:
    """Dimension of the linear span of the given vectors."""
    vectors = list(vectors)
    return _span(vectors, len(vectors[0]) if vectors else 0).dim


def in_span(v: Sequence[int | Rational], basis: Sequence[Sequence[int | Rational]]) -> bool:
    """True iff ``v`` lies in the span of ``basis``."""
    return _span(basis, len(v)).contains({-c: x for c, x in enumerate(v) if x})
