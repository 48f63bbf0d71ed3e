import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import (
    DimensionMismatchError,
    QMatrix,
    SpanBuilder,
    kernel_basis,
    rank,
)
from oracles import naive_rank

small_fractions = st.fractions(
    min_value=-9, max_value=9, max_denominator=6
)


def identity(n):
    return QMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_fractions, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def test_rank_empty_matrix():
    assert rank(QMatrix(0, 0, ())) == 0


def test_rank_identity():
    assert rank(identity(3)) == 3


def test_rank_all_ones():
    rows = [[1] * 4 for _ in range(4)]
    assert naive_rank(rows) == 1
    assert rank(QMatrix.from_rows(rows)) == 1


def test_rank_rational_entries():
    singular = QMatrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    )
    assert rank(singular) == 1
    regular = QMatrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]]
    )
    assert rank(regular) == 2


def test_kernel_identity_empty():
    assert kernel_basis(identity(4)) == []


def test_kernel_one_by_two():
    [v] = kernel_basis(QMatrix.from_rows([[1, -1]]))
    assert v == (Fraction(1), Fraction(1))


def test_kernel_zero_rows():
    vecs = kernel_basis(QMatrix(0, 3, ()))
    assert len(vecs) == 3
    assert vecs[0] == (1, 0, 0)


def test_kernel_is_reduced_echelon():
    # one kernel vector per free column, free columns ascending
    m = QMatrix.from_rows([[1, 2, 0, 1], [0, 0, 1, 3]])
    vecs = kernel_basis(m)
    assert len(vecs) == 2
    assert vecs[0] == (Fraction(-2), Fraction(1), Fraction(0), Fraction(0))
    assert vecs[1] == (Fraction(-1), Fraction(0), Fraction(-3), Fraction(1))


def test_rank_against_oracle_on_random_integer_matrices():
    rng = random.Random(20240901)
    for _ in range(120):
        rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        assert rank(QMatrix.from_rows(rows)) == naive_rank(rows)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_equals_rank_of_transpose(rows):
    transposed = [list(col) for col in zip(*rows)]
    assert rank(QMatrix.from_rows(rows)) == rank(QMatrix.from_rows(transposed))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_are_annihilated(rows):
    m = QMatrix.from_rows(rows)
    basis = kernel_basis(m)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows)


@settings(max_examples=40, deadline=None)
@given(matrices(4))
def test_rank_matches_oracle(rows):
    assert rank(QMatrix.from_rows(rows)) == naive_rank(rows)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        QMatrix(2, 2, (Fraction(1),))
    with pytest.raises(DimensionMismatchError):
        QMatrix.from_rows([[1, 2], [1]])


def test_span_builder_matches_dense_span():
    rng = random.Random(7)
    for _ in range(30):
        vecs = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(6)]
        builder = SpanBuilder()
        for v in vecs:
            builder.add({i: c for i, c in enumerate(v) if c})
        assert builder.dim == naive_rank(vecs)


def in_span(vec, vecs):
    """Whether ``vec`` lies in the span of ``vecs``, read off SpanBuilder.add."""
    builder = SpanBuilder()
    for v in vecs:
        builder.add(dict(enumerate(v)))
    return not builder.add(dict(enumerate(vec)))


def test_in_span_zero_vector():
    assert in_span([0, 0], [[1, 2]])
    assert in_span([0, 0], [])
    assert not SpanBuilder().add({})


def test_in_span_negative_case():
    assert not in_span([1, 1], [[1, 0]])


def test_span_builder_contains():
    builder = SpanBuilder()
    assert builder.add({0: 1, 1: 2}) and builder.add({1: Fraction(1, 3)})
    assert not builder.add({0: 3, 1: -5})
    assert not builder.add({0: Fraction(-1, 2), 1: 0})
    assert builder.add({2: 1})
    assert builder.dim == 3


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=1, max_size=6))
def test_span_builder_stores_the_same_int_rows_from_int_and_fraction_input(rows):
    # integer input skips the denominator pass; Fraction input, whole
    # numbers included, goes through it and must store the same rows
    as_int, as_whole, as_scaled = SpanBuilder(), SpanBuilder(), SpanBuilder()
    for row in rows:
        added = as_int.add(dict(enumerate(row)))
        assert as_whole.add({i: Fraction(x, 1) for i, x in enumerate(row)}) == added
        assert as_scaled.add({i: Fraction(x, 6) for i, x in enumerate(row)}) == added
    stored = [list(b.rows()) for b in (as_int, as_whole, as_scaled)]
    assert stored[0] == stored[1] == stored[2]
    for row in (r for rows in stored for r in rows):
        assert all(type(x) is int for x in row.values())
        assert math.gcd(*row.values()) == 1 and row[max(row)] > 0


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_reduced_rows_are_reduced_echelon_and_span_the_input(rows):
    builder = SpanBuilder()
    for row in rows:
        builder.add({i: x for i, x in enumerate(row) if x})
    reduced = builder.reduced_rows()
    pivots = [max(r) for r in reduced]
    assert pivots == sorted(pivots, reverse=True)
    for r, p in zip(reduced, pivots):
        assert r[p] == 1
        assert all(r.get(q, 0) == 0 for q in pivots if q != p)
        assert all(isinstance(x, Fraction) and x for x in r.values())
    dense = [[r.get(i, 0) for i in range(len(rows[0]))] for r in reduced]
    assert naive_rank(dense) == len(dense) == naive_rank(rows)
    assert naive_rank(dense + rows) == naive_rank(rows)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_span_kernel_is_the_orthogonal_complement(rows, rnd):
    width = len(rows[0])
    keys = list(range(width))
    rnd.shuffle(keys)  # the key order only orders the output
    builder, shuffled = SpanBuilder(), SpanBuilder()
    for row in rows:
        builder.add({i: x for i, x in enumerate(row) if x})
    for row in rnd.sample(rows, len(rows)):
        shuffled.add({i: x for i, x in enumerate(row) if x})
    kernel = list(builder.kernel(keys))
    assert kernel == list(shuffled.kernel(keys))
    free = [k for k in keys if not any(max(r) == k for r in builder.reduced_rows())]
    assert len(kernel) == len(free) == width - naive_rank(rows)
    for f, v in zip(free, kernel):
        assert v[f] == 1 and all(v.get(g, 0) == 0 for g in free if g != f)
        assert all(sum(x * v.get(i, 0) for i, x in enumerate(row)) == 0 for row in rows)
