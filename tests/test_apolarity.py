import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from apolar import (
    DegreeRangeError,
    DualForm,
    LinearSeries,
    NoVariablesError,
    Polynomial,
    VarContext,
    ZeroSeriesError,
    apolar_ideal_component,
    apolar_length,
    apply_operator,
    catalecticant_matrix,
    colon_component,
    dehomogenize,
    diff_closure_dim,
    differentiate_series,
    hilbert_function,
    minimal_generator_degrees,
    minimal_generators,
    monomial_basis,
    parse_dual_form,
    parse_polynomial,
    quotient_length_with_linear,
    rank,
)
from apolar.catalog import build, build_determinant, parse_family
from oracles import brute_hilbert, coefficient_vector, naive_rank, naive_span_dim

XY = VarContext.of("x", "y")


def p(text, ctx=None):
    return parse_polynomial(text, ctx)


def series(text, ctx=None):
    return LinearSeries.of_form(p(text, ctx))


def dual_vectors(duals, ctx, t):
    monos = monomial_basis(ctx, t)
    return [coefficient_vector(g, monos) for g in duals]


def spans_match(duals_a, duals_b, ctx, t):
    va = dual_vectors(duals_a, ctx, t)
    vb = dual_vectors(duals_b, ctx, t)
    if not va and not vb:
        return True
    if len(va) != len(vb):
        return False
    return naive_span_dim(va) == naive_span_dim(vb) == naive_span_dim(va + vb)


# ----------------------------------------------------------------------
# linear series


def test_series_rejects_zero():
    with pytest.raises(ZeroSeriesError):
        LinearSeries.of_form(p("0", XY))


def test_series_rejects_a_context_without_variables():
    # a constant has no derivatives: the series is refused up front, not
    # by math.comb deep inside the Hilbert function
    with pytest.raises(NoVariablesError, match="at least one variable"):
        LinearSeries.of_form(parse_polynomial("5"))
    with pytest.raises(ZeroSeriesError):
        LinearSeries.of_form(parse_polynomial("0"))
    assert hilbert_function(LinearSeries.of_form(p("5", XY))).dims == (1,)


def test_series_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        LinearSeries.of_forms([p("x", XY), p("x^2", XY)])


def test_series_reduced_basis_drops_dependent_forms():
    W = LinearSeries.of_forms([p("x", XY), p("y", XY), p("x + y", XY)])
    assert W.dim == 2
    assert W.reduced_basis == (p("x", XY), p("y", XY))


# ----------------------------------------------------------------------
# catalecticants and Hilbert functions


def test_catalecticant_one_variable_square():
    ctx = VarContext.of("x")
    m = catalecticant_matrix(series("x^2", ctx), 1)
    assert (m.rows, m.cols) == (1, 1)
    assert m.row(0)[0] == 2


def test_catalecticant_rank_det2():
    assert rank(catalecticant_matrix(build(parse_family("det:2")), 1)) == 4


def test_catalecticant_rank_det3():
    assert rank(catalecticant_matrix(build(parse_family("det:3")), 2)) == 9


def test_catalecticant_out_of_range():
    with pytest.raises(DegreeRangeError):
        catalecticant_matrix(series("x^2", XY), 3)


def test_kernel_count_of_det2_degree_two_catalecticant():
    # 10 columns, rank = 1, so 9 kernel vectors
    W = build(parse_family("det:2"))
    m = catalecticant_matrix(W, 2)
    assert m.cols == 10
    rows = [list(m.row(i)) for i in range(m.rows)]
    assert m.cols - naive_rank(rows) == 9
    assert len(apolar_ideal_component(W, 2)) == 9


def test_hilbert_det2():
    assert list(hilbert_function(build(parse_family("det:2")))) == [1, 4, 1]


def test_hilbert_monomial_product():
    assert list(hilbert_function(series("x*y*z"))) == [1, 3, 3, 1]


def test_hilbert_pf2():
    hf = hilbert_function(build(parse_family("pf:2")))
    assert list(hf) == [1, 6, 1]
    assert hf.total == 8


def test_hilbert_against_brute_force_enumeration():
    for W in [
        build(parse_family("det:2")),
        build(parse_family("symdet:2")),
        series("x*y*z"),
        build(parse_family("minors:2,3,2")),
        build(parse_family("matmul:2,1,2")),
    ]:
        assert list(hilbert_function(W)) == brute_hilbert(list(W.reduced_basis))


def test_hilbert_top_value_is_series_dimension():
    W = build(parse_family("minors:3,4,2"))
    assert hilbert_function(W)[W.degree] == W.dim == 18


def test_apolar_length_examples():
    assert apolar_length(build(parse_family("det:3"))) == 20
    assert apolar_length(build(parse_family("symdet:2"))) == 5
    ctx = VarContext.of("x")
    for d in (1, 3, 5):
        assert apolar_length(series(f"x^{d}", ctx)) == d + 1


def test_gorenstein_symmetry_on_random_cubics():
    rng = random.Random(11)
    for _ in range(25):
        nvars = rng.randint(1, 4)
        ctx = VarContext(tuple(f"x[{i}]" for i in range(1, nvars + 1)))
        monos = monomial_basis(ctx, 3)
        terms = {m: Fraction(rng.randint(-9, 9)) for m in monos if rng.random() < 0.6}
        if not any(terms.values()):
            terms[monos[0]] = Fraction(1)
        hf = hilbert_function(LinearSeries.of_form(Polynomial(ctx, terms)))
        assert list(hf) == list(reversed(list(hf)))


# ----------------------------------------------------------------------
# annihilator pieces


def test_ideal_component_empty_for_full_rank_quadric():
    assert apolar_ideal_component(series("x^2 + y^2", XY), 1) == []


def test_ideal_component_of_xy():
    comp = apolar_ideal_component(series("x*y", XY), 2)
    expected = [parse_dual_form("d_x^2", XY), parse_dual_form("d_y^2", XY)]
    assert spans_match(comp, expected, XY, 2)


def test_ideal_component_det2_contains_named_quadrics():
    W = build(parse_family("det:2"))
    ctx = W.context
    comp = apolar_ideal_component(W, 2)
    monos = monomial_basis(ctx, 2)
    basis_vectors = dual_vectors(comp, ctx, 2)
    for text in ("d[1,1]^2", "d[1,1]*d[1,2]", "d[1,1]*d[2,2] + d[1,2]*d[2,1]"):
        g = parse_dual_form(text, ctx)
        assert naive_rank(basis_vectors + [coefficient_vector(g, monos)]) == naive_rank(
            basis_vectors
        )


def test_ideal_component_above_degree_is_everything():
    comp = apolar_ideal_component(series("x*y", XY), 3)
    assert len(comp) == 4


def test_ideal_members_annihilate_the_series():
    W = build(parse_family("symdet:2"))
    for t in (1, 2):
        for g in apolar_ideal_component(W, t):
            for f in W.reduced_basis:
                assert apply_operator(g, f).is_zero


# ----------------------------------------------------------------------
# minimal generator degrees


def test_generators_det2():
    gd = minimal_generator_degrees(build(parse_family("det:2")))
    assert gd.counts == {2: 9}
    assert gd.delta == 2


def test_generators_xy():
    gd = minimal_generator_degrees(series("x*y", XY))
    assert gd.counts == {2: 2}
    assert gd.delta == 2


def test_generators_cusp_cubic():
    # annihilator of x^3 in two variables is (d_y, d_x^4)
    gd = minimal_generator_degrees(series("x^3", XY))
    assert gd.counts == {1: 1, 4: 1}
    assert gd.delta == 4


def test_generator_listing_matches_degree_counts():
    for fid in ("det:2", "symdet:2", "pf:2", "monprod:3"):
        W = build(parse_family(fid))
        gd = minimal_generator_degrees(W)
        gens = minimal_generators(W)
        assert {t: len(gs) for t, gs in gens.items()} == gd.counts
        for t, gs in gens.items():
            for g in gs:
                assert g.homogeneous_degree() == t
                for f in W.reduced_basis:
                    assert apply_operator(g, f).is_zero


def test_delta_never_exceeds_degree_plus_one():
    rng = random.Random(5)
    for _ in range(15):
        nvars = rng.randint(1, 3)
        ctx = VarContext(tuple(f"x[{i}]" for i in range(1, nvars + 1)))
        monos = monomial_basis(ctx, 3)
        terms = {m: Fraction(rng.randint(-5, 5)) for m in monos if rng.random() < 0.7}
        if not any(terms.values()):
            terms[monos[0]] = Fraction(1)
        W = LinearSeries.of_form(Polynomial(ctx, terms))
        assert minimal_generator_degrees(W).delta <= 4


# ----------------------------------------------------------------------
# colon pieces (checked against the annihilator of the derivative series)


def test_colon_by_unit_is_ideal_component():
    W = build(parse_family("det:2"))
    one = DualForm(W.context, {(0,) * len(W.context): Fraction(1)})
    got = colon_component(W, one, 2)
    want = apolar_ideal_component(W, 2)
    assert spans_match(got, want, W.context, 2)


def test_colon_xy_by_dx():
    got = colon_component(series("x*y", XY), parse_dual_form("d_x", XY), 1)
    assert spans_match(got, [parse_dual_form("d_x", XY)], XY, 1)


def test_colon_det3_by_corner_has_dimension_five():
    W = build(parse_family("det:3"))
    theta = parse_dual_form("d[1,1]", W.context)
    got = colon_component(W, theta, 1)
    assert len(got) == 5
    dW = differentiate_series(W, theta)
    want = apolar_ideal_component(dW, 1)
    assert spans_match(got, want, W.context, 1)


def test_colon_matches_derivative_annihilator():
    cases = [
        ("det:2", "d[1,1]", 1),
        ("det:2", "d[1,2]", 1),
        ("det:3", "d[1,1]", 2),
        ("det:3", "d[1,1]*d[2,2]", 1),
        ("pf:2", "d[1,2]", 1),
        ("symdet:2", "d[2,2]", 1),
        ("symdet:3", "d[2,2]*d[3,3]", 1),
        ("monprod:3", "d[1]*d[2]", 1),
        ("matmul:2,2,2", "d_x[1,1] + d_y[1,1]", 1),
    ]
    for fid, theta_text, t in cases:
        W = build(parse_family(fid))
        theta = parse_dual_form(theta_text, W.context)
        got = colon_component(W, theta, t)
        dW = differentiate_series(W, theta)
        want = apolar_ideal_component(dW, t)
        assert spans_match(got, want, W.context, t), (fid, theta_text, t)


def test_colon_of_annihilating_divisor_is_everything():
    got = colon_component(series("x*y", XY), parse_dual_form("d_x^2", XY), 1)
    assert len(got) == 2


def test_colon_rejects_bad_divisors():
    W = series("x*y", XY)
    with pytest.raises(ValueError):
        colon_component(W, DualForm(XY, {}), 1)
    with pytest.raises(ValueError):
        colon_component(W, parse_dual_form("d_x + d_x^2", XY), 1)


# ----------------------------------------------------------------------
# quotient length by a linear dual form


def test_quotient_length_det3():
    W = build(parse_family("det:3"))
    assert quotient_length_with_linear(W, parse_dual_form("d[1,1]", W.context)) == 14


def test_quotient_length_single_variable():
    ctx = VarContext.of("x")
    W = series("x^4", ctx)
    assert quotient_length_with_linear(W, parse_dual_form("d_x", ctx)) == 1


def test_quotient_length_pf2():
    W = build(parse_family("pf:2"))
    dl = parse_dual_form("d[1,2]", W.context)
    assert quotient_length_with_linear(W, dl) == 6
    dW = differentiate_series(W, dl)
    assert dW.reduced_basis == (p("x[3,4]", W.context),)
    assert apolar_length(W) - apolar_length(dW) == 6


def test_quotient_length_equals_length_difference():
    rng = random.Random(3)
    cases = ["det:2", "det:3", "pf:2", "symdet:2", "symdet:3", "monprod:3", "minors:2,3,2"]
    for fid in cases:
        W = build(parse_family(fid))
        n = len(W.context)
        coeffs = [rng.randint(-9, 9) for _ in range(n)]
        if not any(coeffs):
            coeffs[0] = 1
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                mono = [0] * n
                mono[i] = 1
                terms[tuple(mono)] = Fraction(c)
        dl = DualForm(W.context, terms)
        dW = differentiate_series(W, dl)
        diff = apolar_length(W) - (apolar_length(dW) if dW else 0)
        assert quotient_length_with_linear(W, dl) == diff, fid


def test_quotient_length_rejects_nonlinear():
    W = series("x*y", XY)
    with pytest.raises(ValueError):
        quotient_length_with_linear(W, parse_dual_form("d_x^2", XY))


def test_derivative_series_graded_containment():
    # differentiating can only shrink each graded piece of the closure
    W = build(parse_family("symdet:3"))
    dl = parse_dual_form("d[3,3]", W.context)
    dW = differentiate_series(W, dl)
    hw = hilbert_function(W)
    hdw = hilbert_function(dW)
    for t in range(dW.degree + 1):
        assert hdw[t] <= hw[t]


# ----------------------------------------------------------------------
# derivative closure of non-homogeneous polynomials


def test_diff_closure_of_constant():
    assert diff_closure_dim(p("5", XY)) == 1


def test_diff_closure_mixed_degrees():
    assert diff_closure_dim(p("x^2 + x", XY)) == 3


def test_diff_closure_dehomogenized_det2():
    det2 = build_determinant(2)
    f = dehomogenize(det2, p("x[2,2]", det2.context))
    assert diff_closure_dim(f) == 4


def test_diff_closure_dehomogenized_det3():
    det3 = build_determinant(3)
    f = dehomogenize(det3, p("x[3,3]", det3.context))
    assert diff_closure_dim(f) == 18


def test_diff_closure_rejects_zero():
    with pytest.raises(ValueError):
        diff_closure_dim(p("0", XY))


# ----------------------------------------------------------------------
# randomized series-level checks (the identities must hold for arbitrary
# series, not just the builtin families)


def _random_series(rng, nvars=3, degree=2, count=2):
    ctx = VarContext(tuple(f"x[{i}]" for i in range(1, nvars + 1)))
    monos = monomial_basis(ctx, degree)
    forms = []
    for _ in range(count):
        terms = {m: Fraction(rng.randint(-6, 6)) for m in monos if rng.random() < 0.6}
        forms.append(Polynomial(ctx, terms))
    if all(f.is_zero for f in forms):
        forms[0] = Polynomial(ctx, {monos[0]: Fraction(1)})
    return LinearSeries.of_forms(forms)


def _random_linear_dual(ctx, rng):
    n = len(ctx)
    coeffs = [rng.randint(-9, 9) for _ in range(n)]
    if not any(coeffs):
        coeffs[0] = 1
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            mono = [0] * n
            mono[i] = 1
            terms[tuple(mono)] = Fraction(c)
    return DualForm(ctx, terms)


def test_random_series_hilbert_matches_brute_force():
    rng = random.Random(41)
    for _ in range(12):
        W = _random_series(rng, nvars=rng.randint(2, 3), degree=rng.randint(2, 3))
        assert list(hilbert_function(W)) == brute_hilbert(list(W.reduced_basis))


def test_random_series_quotient_identity():
    rng = random.Random(42)
    for _ in range(12):
        W = _random_series(rng, nvars=3, degree=rng.randint(2, 3), count=rng.randint(1, 3))
        dl = _random_linear_dual(W.context, rng)
        dW = differentiate_series(W, dl)
        diff = apolar_length(W) - (apolar_length(dW) if dW else 0)
        assert quotient_length_with_linear(W, dl) == diff


def test_random_series_colon_identity():
    rng = random.Random(43)
    for _ in range(12):
        W = _random_series(rng, nvars=3, degree=3, count=rng.randint(1, 2))
        theta = _random_linear_dual(W.context, rng)
        t = rng.randint(0, 2)
        got = colon_component(W, theta, t)
        dW = differentiate_series(W, theta)
        if dW is None:
            assert len(got) == len(monomial_basis(W.context, t))
        else:
            want = apolar_ideal_component(dW, t)
            assert spans_match(got, want, W.context, t)


def test_series_tolerates_zero_members():
    W = LinearSeries.of_forms([p("x*y", XY), p("0", XY)])
    assert W.dim == 1
    assert apolar_length(W) == 4


# ----------------------------------------------------------------------
# invariant checks must fire under ``python -O``, which strips asserts

_OPTIMIZED_SCRIPT = """
import sys
if __debug__:
    sys.exit("expected python -O")
import apolar.apolarity as ap
from apolar import InvariantError, LinearSeries, parse_polynomial

W = LinearSeries.of_form(parse_polynomial("x^3 + x*y^2"))
true_layers = ap.LinearSeries._layers.func


class FakeLayer:
    def __init__(self, dim):
        self.dim = dim


def layers(*dims):
    return property(lambda self: tuple(FakeLayer(k) for k in dims))


class ShrunkLayer:
    # a true layer that lost its last stored row
    def __init__(self, layer):
        self.kept = list(layer.rows())[:-1]
        self.dim = len(self.kept)

    def rows(self):
        return iter(self.kept)


def shrunk_layer_2(self):
    a0, a1, a2, a3 = true_layers(self)
    return (a0, a1, ShrunkLayer(a2), a3)


# true layer dimensions: 1, 2, 2, 1
cases = {
    "hilbert_start": ("_layers", layers(0, 2, 2, 1), ap.hilbert_function),
    "hilbert_cap": ("_layers", layers(1, 3, 2, 1), ap.hilbert_function),
    "layer_top": ("_layers", layers(1, 2, 2, 2), ap.hilbert_function),
    "layer_growth": ("_layers", layers(1, 0, 2, 1), ap.hilbert_function),
    "generators": ("_layers", property(shrunk_layer_2), ap.minimal_generator_degrees),
}
name, patched, fn = cases[sys.argv[1]]
setattr(ap.LinearSeries, name, patched)
try:
    fn(W)
except InvariantError as exc:
    print("caught:", exc)
"""

_EXPECTED_MESSAGE = {
    "hilbert_start": "starts with 0",
    "hilbert_cap": "exceeds",
    "layer_top": "top layer",
    "layer_growth": "partials of layer",
    "generators": "prolongation of layer 2",
}


@pytest.mark.parametrize(
    "case", ["hilbert_start", "hilbert_cap", "layer_top", "layer_growth", "generators"]
)
def test_invariant_checks_survive_optimized_mode(case):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT, case],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("caught:")
    assert _EXPECTED_MESSAGE[case] in proc.stdout
