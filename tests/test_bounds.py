import json
import math
import random
from fractions import Fraction

import pytest

from apolar import (
    BoundConsistencyError,
    DualForm,
    InvarianceAssertion,
    LinearSeries,
    Polynomial,
    VarContext,
    apolar_length,
    bernardi_ranestad_upper,
    bound_report,
    derivative_bound,
    generic_derivative_bound,
    generic_derivative_trials,
    landsberg_teitler_det,
    parse_dual_form,
    parse_polynomial,
    quotient_length_with_linear,
    ranestad_schreyer_bound,
    sylvester_bound,
)
from apolar.bounds import BoundEntry, KIND_LOWER_CACTUS, KIND_UPPER_CACTUS
from apolar.catalog import build, build_determinant, parse_family
from apolar.cli import render_bounds

XY = VarContext.of("x", "y")


def p(text, ctx=None):
    return parse_polynomial(text, ctx)


def series(fid):
    return build(parse_family(fid))


# ----------------------------------------------------------------------
# individual bounds


def test_sylvester_values():
    assert sylvester_bound(series("det:3")) == 9
    assert sylvester_bound(series("pf:3")) == 15
    ctx = VarContext.of("x")
    assert sylvester_bound(LinearSeries.of_form(p("x^5", ctx))) == 1


def test_ranestad_schreyer_values():
    assert ranestad_schreyer_bound(series("det:3")) == 10
    assert ranestad_schreyer_bound(series("symdet:2")) == Fraction(5, 2)
    assert math.ceil(ranestad_schreyer_bound(series("symdet:2"))) == 3
    assert ranestad_schreyer_bound(LinearSeries.of_form(p("x*y", XY))) == 2


def test_ranestad_schreyer_never_exceeds_length():
    for fid in ("det:2", "pf:2", "symdet:3", "monprod:4"):
        W = series(fid)
        assert ranestad_schreyer_bound(W) <= apolar_length(W)


def test_derivative_bound_values():
    for fid, dl_text, expected in [
        ("det:3", "d[1,1]", 14),
        ("pf:3", "d[1,2]", 24),
        ("symdet:3", "d[3,3]", 9),
    ]:
        W = series(fid)
        assert derivative_bound(W, parse_dual_form(dl_text, W.context)) == expected


def test_derivative_bound_with_annihilating_direction():
    # x^2 in two variables: d_y kills it, so the bound degenerates to the length
    W = LinearSeries.of_form(p("x^2", XY))
    assert derivative_bound(W, parse_dual_form("d_y", XY)) == apolar_length(W) == 3


def test_derivative_bound_rejects_nonlinear():
    W = series("det:2")
    with pytest.raises(ValueError):
        derivative_bound(W, parse_dual_form("d[1,1]^2", W.context))
    with pytest.raises(ValueError):
        derivative_bound(W, DualForm(W.context, {}))


def test_derivative_bound_agrees_with_quotient_length():
    # two independent routes to the same number, on catalog forms and
    # seeded random directions
    rng = random.Random(17)
    for fid in ("det:2", "det:3", "pf:2", "symdet:2", "monprod:4", "matmul:2,2,2"):
        W = series(fid)
        n = len(W.context)
        for _ in range(2):
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
            assert derivative_bound(W, dl) == quotient_length_with_linear(W, dl)


def test_generic_bound_minimum_and_trials():
    W = series("det:2")
    trials = generic_derivative_trials(W, 6, seed=4)
    values = [v for _, v in trials]
    assert generic_derivative_bound(W, 6, seed=4) == min(values)
    assert all(v >= min(values) for v in values)


def test_generic_bound_rejects_zero_trials():
    with pytest.raises(ValueError):
        generic_derivative_bound(series("det:2"), trials=0)


def test_generic_bound_one_variable_power():
    # every direction is a scalar multiple of d_x, so the difference of
    # derivative-closure dimensions is (d+1) - d = 1
    ctx = VarContext.of("x")
    for d in (2, 4, 7):
        W = LinearSeries.of_form(p(f"x^{d}", ctx))
        assert generic_derivative_bound(W, 3, 0) == 1


def test_generic_bound_seed_stable_on_catalog_forms():
    for fid in ("det:2", "pf:2", "symdet:2", "monprod:3"):
        W = series(fid)
        values = {generic_derivative_bound(W, 5, seed) for seed in (0, 1, 2)}
        assert len(values) == 1, fid


def test_generic_bound_regression_values():
    # frozen from computation; the generic value for the product of n
    # variables is the central binomial C(n, n//2), strictly below the
    # coordinate-direction value 2^(n-1) for n >= 3 (the coordinate
    # direction is special: derivative dimensions only drop there)
    expected = {2: 2, 3: 3, 4: 6, 5: 10, 6: 20}
    for n, value in expected.items():
        W = series(f"monprod:{n}")
        assert generic_derivative_bound(W, 5, 0) == value == math.comb(n, n // 2)
        coord = derivative_bound(W, parse_dual_form("d[1]", W.context))
        assert coord == 2 ** (n - 1)
        assert value <= coord


def test_generic_bound_regression_det3():
    # frozen from computation: a generic derivative of the 3x3
    # determinant is a full-rank quadric in the span of the cofactors,
    # so the generic bound is 20 - 11 = 9, well below the
    # invariant-direction value 14
    assert generic_derivative_bound(series("det:3"), 5, 0) == 9


def test_bernardi_ranestad_upper_values():
    det3 = build_determinant(3)
    l = Polynomial.named_variable(det3.context, "x[3,3]")
    assert bernardi_ranestad_upper(det3, l) == 18
    det2 = build_determinant(2)
    l2 = Polynomial.named_variable(det2.context, "x[2,2]")
    assert bernardi_ranestad_upper(det2, l2) == 4
    ctx = VarContext.of("x")
    assert bernardi_ranestad_upper(p("x^4", ctx), p("x", ctx)) == 1


def test_bernardi_ranestad_upper_of_a_high_power():
    # dehomogenizing x^5000 at x builds 5000 powers of the replacement:
    # one stack frame each would overflow the recursion limit
    ctx = VarContext.of("x")
    assert bernardi_ranestad_upper(p("x^5000", ctx), p("x", ctx)) == 1


@pytest.mark.parametrize("n, value", [(4, 68), (5, 250)])
def test_bernardi_ranestad_upper_of_det_at_a_corner(n, value):
    # C(2n, n) - 2, as for det:6 (922), a closure only the benchmark runs
    det = build_determinant(n)
    l = Polynomial.named_variable(det.context, f"x[{n},{n}]")
    assert bernardi_ranestad_upper(det, l) == value == math.comb(2 * n, n) - 2


def test_landsberg_teitler_det_values():
    assert landsberg_teitler_det(2) == 4
    assert landsberg_teitler_det(3) == 14
    assert landsberg_teitler_det(4) == 43
    with pytest.raises(ValueError):
        landsberg_teitler_det(1)


# ----------------------------------------------------------------------
# invariance of the bounds under rescaling and variable permutation


def _permuted(f, perm):
    ctx = VarContext(tuple(f.context.names[i] for i in perm))
    inverse = {old: new for new, old in enumerate(perm)}
    terms = {}
    for m, c in f.terms.items():
        out = [0] * len(m)
        for i, e in enumerate(m):
            out[inverse[i]] = e
        terms[tuple(out)] = c
    return type(f)(ctx, terms)


def test_bounds_invariant_under_scaling_and_permutation():
    W = series("symdet:2")
    F = W.reduced_basis[0]
    dl = parse_dual_form("d[2,2]", W.context)
    base = (
        sylvester_bound(W),
        ranestad_schreyer_bound(W),
        derivative_bound(W, dl),
    )
    scaled = LinearSeries.of_form(F.scale(Fraction(-7, 3)))
    assert base == (
        sylvester_bound(scaled),
        ranestad_schreyer_bound(scaled),
        derivative_bound(scaled, dl),
    )
    perm = [2, 0, 1]
    Wp = LinearSeries.of_form(_permuted(F, perm))
    dlp = _permuted(dl, perm)
    assert base == (
        sylvester_bound(Wp),
        ranestad_schreyer_bound(Wp),
        derivative_bound(Wp, dlp),
    )


# ----------------------------------------------------------------------
# reports


def test_report_det2_entries():
    W = series("det:2")
    report = bound_report(
        W,
        "builtin:det:2",
        partial=parse_dual_form("d[1,1]", W.context),
        assertion=InvarianceAssertion(True, "left/right multiplication"),
        det_n=2,
    )
    values = {b.name: b.value for b in report.bounds}
    assert values["sylvester"] == 4
    assert values["ranestad_schreyer"] == 3
    assert values["derivative"] == 4
    assert values["landsberg_teitler_det"] == 4
    assert values["bernardi_ranestad_upper"] == 4
    assert report.entry("derivative").metadata["invariance_asserted"] is True


def test_report_generic_when_no_direction_given():
    W = series("monprod:3")
    report = bound_report(W, "builtin:monprod:3", trials=5, seed=0)
    names = report.names()
    assert "generic_derivative" in names and "derivative" not in names
    entry = report.entry("generic_derivative")
    assert entry.value == 3  # frozen regression value
    assert entry.metadata["trial_values"] == [3, 3, 3, 3, 3]
    assert "caveat" in entry.metadata
    assert report.entry("sylvester").value == 3
    assert report.entry("bernardi_ranestad_upper").value == 4


def test_report_unasserted_direction_carries_caveat():
    W = series("det:2")
    report = bound_report(
        W, "builtin:det:2", partial=parse_dual_form("d[1,1]", W.context)
    )
    caveat = report.entry("derivative").metadata["caveat"]
    assert "not asserted" in caveat


def test_report_brackets():
    W = series("det:3")
    report = bound_report(
        W,
        "builtin:det:3",
        partial=parse_dual_form("d[1,1]", W.context),
        assertion=InvarianceAssertion(True),
        det_n=3,
    )
    br = report.brackets()
    assert br["cactus_rank"] == {"lower": 14, "upper": 18}
    assert br["smoothable_rank"] == {"lower": 14, "upper": None}
    assert br["waring_rank"] == {"lower": 14, "upper": None}


def test_report_series_input_has_no_dehomogenization_upper():
    W = series("minors:3,3,2")
    report = bound_report(W, "builtin:minors:3,3,2", trials=3, seed=1)
    assert "bernardi_ranestad_upper" not in report.names()


def test_report_json_round_trip():
    W = series("symdet:2")
    report = bound_report(
        W,
        "builtin:symdet:2",
        partial=parse_dual_form("d[2,2]", W.context),
        assertion=InvarianceAssertion(True),
    )
    text = render_bounds(report, "json")
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
    doc = json.loads(text)
    assert doc == report.to_dict()
    rs = next(b for b in doc["bounds"] if b["name"] == "ranestad_schreyer")
    assert (rs["value_num"], rs["value_den"], rs["integer_value"]) == (5, 2, 3)


def test_report_consistency_guard_fires_on_bad_entries():
    entries = (
        BoundEntry("lo", Fraction(9), KIND_LOWER_CACTUS, {}),
        BoundEntry("hi", Fraction(5), KIND_UPPER_CACTUS, {}),
    )
    from apolar.bounds import BoundReport

    report = BoundReport("x", entries)
    assert report.brackets()["cactus_rank"] == {"lower": 9, "upper": 5}
    # bound_report itself raises before returning such a report
    with pytest.raises(BoundConsistencyError):
        raise BoundConsistencyError("lower 9 exceeds upper 5")


def test_every_lower_bound_below_upper_for_det():
    for n in (2, 3):
        W = series(f"det:{n}")
        upper = bernardi_ranestad_upper(
            W.reduced_basis[0],
            Polynomial.named_variable(W.context, f"x[{n},{n}]"),
        )
        dl = parse_dual_form("d[1,1]", W.context)
        lowers = [
            sylvester_bound(W),
            math.ceil(ranestad_schreyer_bound(W)),
            derivative_bound(W, dl),
            generic_derivative_bound(W, 3, 0),
            landsberg_teitler_det(n),
        ]
        assert all(v <= upper for v in lowers)
