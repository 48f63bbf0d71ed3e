"""The derivative bound from the kernels of D on the layers of W.

``derivative_bound`` sums ``dim ker(D|A_t)`` over the cached derivative
layers of W and builds no derivative series.  ``oracles.
naive_derivative_bound`` differentiates the forms term by term and takes
both apolar lengths from ``brute_hilbert``; the two routes share no
code.  The random series reach both shortcuts of the kernel route: full
layers (A_t = R_t) in low degrees of dense input, and the early stop at
rank h(t-1) in the degrees where the layer is not full.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apolar.apolarity
import apolar.bounds
from apolar import (
    DualForm,
    LinearSeries,
    Polynomial,
    SpanBuilder,
    VarContext,
    apolar_length,
    bound_report,
    derivative_bound,
    derivative_kernel_dims,
    hilbert_function,
    parse_dual_form,
)
from apolar.catalog import build, parse_family
from apolar.linalg import ModularRank
from oracles import (
    naive_derivative_bound,
    naive_directional_derivative,
    naive_monomials,
    naive_rank,
)


def coefficients(partial: DualForm) -> list[Fraction]:
    """One coefficient per variable of a linear dual form."""
    out = [Fraction(0)] * len(partial.context)
    for m, c in partial.terms.items():
        out[m.index(1)] = c
    return out


def linear_dual(ctx: VarContext, coeffs) -> DualForm:
    n = len(ctx)
    return DualForm(
        ctx,
        {tuple(int(j == i) for j in range(n)): Fraction(c) for i, c in enumerate(coeffs) if c},
    )


def check(W, partial):
    dims = derivative_kernel_dims(W, partial)
    assert len(dims) == W.degree + 1
    hf = hilbert_function(W)
    assert all(0 <= k <= h for k, h in zip(dims, hf))
    value = derivative_bound(W, partial)
    assert value == sum(dims)
    assert value == naive_derivative_bound(list(W.forms), coefficients(partial))
    return value


@st.composite
def series_and_direction(draw):
    """A series whose forms use the first ``used`` of n variables, and a
    direction that is either arbitrary (zero and Fraction coefficients
    allowed) or supported on the unused variables, so that it kills W."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5))
    used = draw(st.integers(1, n))
    monos = [m + (0,) * (n - used) for m in naive_monomials(used, d)]
    form = st.dictionaries(
        st.sampled_from(monos), st.integers(-4, 4).filter(bool), min_size=1, max_size=20
    )
    forms = draw(st.lists(form, min_size=1, max_size=3))
    ctx = VarContext(tuple(f"x{i}" for i in range(n)))
    W = LinearSeries.of_forms([Polynomial(ctx, f) for f in forms])
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    annihilating = used < n and draw(st.booleans())
    if annihilating:
        tail = draw(st.lists(coeff, min_size=n - used, max_size=n - used).filter(any))
        coeffs = [0] * used + tail
    else:
        coeffs = draw(st.lists(coeff, min_size=n, max_size=n).filter(any))
    return W, linear_dual(ctx, coeffs), annihilating


@settings(max_examples=200, deadline=None)
@given(series_and_direction())
def test_derivative_bound_matches_oracle_on_random_series(case):
    W, partial, annihilating = case
    assert W.dim <= 3
    value = check(W, partial)
    if annihilating:
        assert value == apolar_length(W)
        assert derivative_kernel_dims(W, partial) == list(hilbert_function(W))


def test_dense_series_uses_both_shortcuts_and_matches_oracle(monkeypatch):
    # every monomial of degree 4 in 4 variables: A_1 and A_2 are full,
    # at t = 3 the images reach h(2) = 10 after 10 of the 12 rows, and at
    # t = 4 the 3 images reach h(4) = 3
    ctx = VarContext(tuple(f"x{i}" for i in range(4)))
    monos = naive_monomials(4, 4)
    W = LinearSeries.of_forms(
        [
            Polynomial(ctx, {m: (i * k) % 7 - 3 for i, m in enumerate(monos)})
            for k in (1, 2, 5)
        ]
    )
    assert list(hilbert_function(W)) == [1, 4, 10, 12, 3]
    partial = linear_dual(ctx, [3, Fraction(-1, 2), 0, 7])
    adds = []
    original = SpanBuilder.add

    def counted(self, vec):
        adds.append(vec)
        return original(self, vec)

    # the certificate route: each modular rank stores every row it is
    # given and stops at r_t, and nothing is eliminated exactly
    stored = {}
    modular_add = ModularRank.add

    def recorded(self, x):
        enlarged = modular_add(self, x)
        stored.setdefault(self, []).append(enlarged)
        return enlarged

    monkeypatch.setattr(SpanBuilder, "add", counted)
    monkeypatch.setattr(ModularRank, "add", recorded)
    assert derivative_kernel_dims(W, partial) == [1, 3, 6, 2, 0]
    assert list(stored.values()) == [[True] * 10, [True] * 3]
    assert adds == []

    # the exact fallback, with a certificate that never reaches its bound
    monkeypatch.setattr(ModularRank, "add", lambda self, x: False)
    assert derivative_kernel_dims(W, partial) == [1, 3, 6, 2, 0]
    assert len(adds) == 10 + 3
    monkeypatch.undo()
    check(W, partial)


@pytest.mark.parametrize(
    "family", ["det:3", "pf:3", "symdet:3", "monprod:5", "minors:2,3,2", "matmul:2,2,2"]
)
def test_derivative_bound_matches_oracle_on_families(family):
    W = build(parse_family(family))
    n = len(W.context)
    check(W, linear_dual(W.context, [1] + [0] * (n - 1)))
    check(W, linear_dual(W.context, [(7 * i) % 11 - 5 or 3 for i in range(n)]))


def test_kernel_dims_reject_a_direction_over_another_context():
    W = build(parse_family("det:2"))
    with pytest.raises(ValueError, match="series context"):
        derivative_kernel_dims(W, parse_dual_form("d_x", VarContext.of("x", "y")))


def test_report_shows_kernel_dims_of_explicit_direction():
    W = build(parse_family("det:3"))
    report = bound_report(W, "det:3", partial=parse_dual_form("d[1,1]", W.context))
    entry = report.entry("derivative")
    assert entry.metadata["kernel_dims"] == [1, 8, 5, 0]
    assert entry.value == sum(entry.metadata["kernel_dims"]) == 14


def test_bounds_path_never_builds_a_derivative_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bounds path built a derivative series")

    monkeypatch.setattr(apolar.bounds, "differentiate_series", refuse)
    monkeypatch.setattr(apolar.apolarity, "apply_operator", refuse)
    W = build(parse_family("det:3"))
    forms = list(W.forms)

    generic = bound_report(W, "det:3", trials=5, seed=0).entry("generic_derivative")
    directions = [parse_dual_form(text, W.context) for text in generic.metadata["partials"]]
    expected = [naive_derivative_bound(forms, coefficients(dl)) for dl in directions]
    assert generic.metadata["trial_values"] == expected
    assert generic.value == min(expected)

    partial = parse_dual_form("d[1,1]", W.context)
    entry = bound_report(W, "det:3", partial=partial).entry("derivative")
    assert entry.value == naive_derivative_bound(forms, coefficients(partial)) == 14


# ----------------------------------------------------------------------
# a single form's kernel ranks are mirrored: its apolar algebra is
# Gorenstein, so rank(D|A_t) = rank(D|A_{d+1-t})


def ranks_by_layer(W, partial):
    """rank(D|A_t) for t = 0..d, each from its own layer: the naive rank
    of D applied term by term to the layer's rows, or to every degree-t
    monomial where the layer is all of R_t."""
    ctx, n = W.context, len(W.context)
    out = [0]
    for t in range(1, W.degree + 1):
        layer = W._layers[t]
        if layer is None:
            basis = [Polynomial(ctx, {m: 1}) for m in naive_monomials(n, t)]
        else:
            basis = [Polynomial(ctx, {W._keys.unpack(k): c for k, c in row.items()})
                     for row in layer]
        images = [naive_directional_derivative(g, coefficients(partial)) for g in basis]
        monos = naive_monomials(n, t - 1)
        out.append(naive_rank([[g.coefficient(m) for m in monos] for g in images]))
    return out


def check_mirror(W, partial):
    """The kernels against the rank of each layer on its own, and which
    layers were ranked: one of each pair {t, d+1-t} of built layers for
    a single form, every built layer for a series of two or more."""
    W._gradients
    ranked = []
    image_rank = apolar.apolarity._image_rank

    def recorded(grads, *args):
        ranked.append(W._gradients.index(grads))
        return image_rank(grads, *args)

    with mock.patch.object(apolar.apolarity, "_image_rank", recorded):
        kernels = derivative_kernel_dims(W, partial)
    ranks = ranks_by_layer(W, partial)
    assert kernels == [h - r for h, r in zip(hilbert_function(W), ranks)]
    d = W.degree
    built = [t for t in range(1, d + 1) if W._layers[t] is not None]
    if W.dim == 1:
        assert ranks[1:] == ranks[:0:-1]

        def pair(t):
            return min(t, d + 1 - t), max(t, d + 1 - t)

        assert sorted(map(pair, ranked)) == sorted({pair(t) for t in built if d + 1 - t in built})
    else:
        assert ranked == built


@st.composite
def form_and_direction(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 6))
    ctx = VarContext(tuple(f"x{i}" for i in range(n)))
    form = draw(st.dictionaries(
        st.sampled_from(naive_monomials(n, d)), st.integers(-4, 4).filter(bool),
        min_size=1, max_size=20,
    ))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    coeffs = draw(st.lists(coeff, min_size=n, max_size=n).filter(any))
    return LinearSeries.of_form(Polynomial(ctx, form)), linear_dual(ctx, coeffs)


@settings(max_examples=150, deadline=None)
@given(form_and_direction())
def test_single_form_kernels_are_mirrored(case):
    check_mirror(*case)


@settings(max_examples=60, deadline=None)
@given(series_and_direction())
def test_kernels_of_a_series_are_mirrored_only_for_one_form(case):
    W, partial, _ = case
    check_mirror(W, partial)


@pytest.mark.parametrize(
    "family",
    ["det:2", "det:3", "perm:2", "perm:3", "pf:2", "pf:3", "symdet:2", "symdet:3",
     "monprod:2", "monprod:3", "monprod:4", "monprod:5", "minors:2,3,2", "minors:3,3,2",
     "matmul:2,2,2"],
)
def test_family_kernels_are_mirrored_only_for_one_form(family):
    W = build(parse_family(family))
    n = len(W.context)
    check_mirror(W, linear_dual(W.context, [1] + [0] * (n - 1)))
    check_mirror(W, linear_dual(W.context, [(7 * i) % 11 - 5 or 3 for i in range(n)]))
