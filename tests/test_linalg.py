import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import (
    DimensionMismatchError,
    QMatrix,
    SpanBuilder,
    in_span,
    kernel_basis,
    rank,
    span_dim,
)
from oracles import naive_rank

small_fractions = st.fractions(
    min_value=-9, max_value=9, max_denominator=6
)


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
    assert rank(QMatrix.identity(3)) == 3


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
    assert kernel_basis(QMatrix.identity(4)) == []


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
    m = QMatrix.from_rows(rows)
    assert rank(m) == rank(m.transpose())


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_are_annihilated(rows):
    m = QMatrix.from_rows(rows)
    basis = kernel_basis(m)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        assert all(x == 0 for x in m.mul_vec(v))


@settings(max_examples=40, deadline=None)
@given(matrices(4))
def test_rank_matches_oracle(rows):
    assert rank(QMatrix.from_rows(rows)) == naive_rank(rows)


def test_span_dim_empty():
    assert span_dim([]) == 0


def test_span_dim_redundant_vectors():
    assert span_dim([[1, 0], [0, 1], [1, 1]]) == 2


def test_span_dim_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        span_dim([[1, 0], [1, 0, 0]])


def test_in_span_zero_vector():
    assert in_span([0, 0], [[1, 2]])
    assert in_span([0, 0], [])


def test_in_span_negative_case():
    assert not in_span([1, 1], [[1, 0]])


def test_in_span_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        in_span([1, 0, 0], [[1, 0]])


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


def test_span_builder_contains():
    builder = SpanBuilder()
    builder.add({0: 1, 1: 2})
    builder.add({1: 1})
    assert builder.contains({0: 3, 1: -5})
    assert not builder.contains({2: 1})


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
