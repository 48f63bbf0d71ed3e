"""Derivative layers against the catalecticant oracle.

``hilbert_function`` and ``apolar_ideal_component`` read everything off
the derivative layers of a series; ``oracles.naive_catalecticant`` builds
the dense catalecticant from coefficients and factorials and takes its
rank and Gauss-Jordan kernel.  The two routes share no code, and the
kernel bases must agree vector for vector, term for term, up to two
degrees above the series degree (where both are the monomial basis).
``catalecticant_matrix`` must equal the oracle's matrix entry for entry.

``minimal_generator_degrees`` counts generators from two adjacent
layers (the prolongation of A_{t-1}); ``oracles.naive_generator_degrees``
counts them from the oracle's annihilator pieces and the products of
each piece with every variable.
"""

import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import (
    InvariantError,
    LinearSeries,
    Polynomial,
    VarContext,
    apolar_ideal_component,
    bound_report,
    catalecticant_matrix,
    closed_form_hilbert,
    dehomogenize,
    hilbert_function,
    minimal_generator_degrees,
    minimal_generators,
    parse_family,
    parse_polynomial,
)
from apolar import apolarity, linalg
from apolar.apolarity import _closure, _count_generators, _Keys, coordinate_closure_dim
from apolar.catalog import build
from apolar.cli import main
from apolar.linalg import SpanBuilder, clear_denominators
from apolar.poly import partial_terms
from oracles import (
    closure_adding_every_candidate,
    naive_catalecticant,
    naive_catalecticant_hilbert,
    naive_closure_dim,
    naive_generator_degrees,
    naive_ideal_component,
    naive_monomials,
    reference_closure,
)


def check_against_oracle(W):
    forms = [f for f in W.forms if not f.is_zero]
    assert list(hilbert_function(W)) == naive_catalecticant_hilbert(forms)
    for t in range(W.degree + 3):
        got = [psi.terms for psi in apolar_ideal_component(W, t)]
        assert got == naive_ideal_component(forms, t), f"degree {t}"


def check_catalecticant_entries(W):
    for t in range(W.degree + 1):
        m = catalecticant_matrix(W, t)
        rows, cols = naive_catalecticant(list(W.reduced_basis), t)
        assert (m.rows, m.cols) == (len(rows), len(cols))
        assert [list(m.row(i)) for i in range(m.rows)] == rows, f"degree {t}"


@st.composite
def random_series(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5))
    monos = naive_monomials(n, d)
    coeffs = st.integers(-4, 4).filter(bool)
    form = st.dictionaries(st.sampled_from(monos), coeffs, min_size=1, max_size=20)
    forms = draw(st.lists(form, min_size=1, max_size=3))
    ctx = VarContext(tuple(f"x{i}" for i in range(n)))
    return LinearSeries.of_forms([Polynomial(ctx, f) for f in forms])


@settings(max_examples=150, deadline=None)
@given(random_series())
def test_layers_match_catalecticant_oracle_on_random_series(W):
    assert W.dim <= 3
    check_against_oracle(W)


# every family the oracle checks in under a second; det:4, perm:4 and
# monprod:7 take 2-5 s each
ORACLE_FAMILIES = (
    "det:2", "det:3", "perm:2", "perm:3", "pf:2", "pf:3", "symdet:2", "symdet:3",
    "symdet:4", "monprod:2", "monprod:3", "monprod:4", "monprod:5", "monprod:6",
    "minors:2,3,2", "minors:3,3,2", "minors:3,4,2", "matmul:2,2,2", "matmul:2,3,2",
)


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_layers_match_catalecticant_oracle_on_families(family):
    check_against_oracle(build(parse_family(family)))


@settings(max_examples=100, deadline=None)
@given(random_series())
def test_catalecticant_entries_match_oracle_on_random_series(W):
    check_catalecticant_entries(W)


@pytest.mark.parametrize("family", ["det:3", "pf:2", "minors:2,3,2"])
def test_catalecticant_entries_match_oracle_on_families(family):
    check_catalecticant_entries(build(parse_family(family)))


@pytest.mark.parametrize("family", ["det:5", "pf:5"])
def test_hilbert_cli_matches_closed_form_beyond_dense_reach(family, capsys):
    # dim S_5 is 118755 for det:5 and 1906884 for pf:5: the dense
    # catalecticants of these would not fit a test run
    assert main(["hilbert", "--form", f"builtin:{family}", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == list(closed_form_hilbert(parse_family(family)))


def dense_series(n, d):
    """Three forms holding every monomial of degree d in n variables."""
    ctx = VarContext(tuple(f"x{i}" for i in range(n)))
    monos = naive_monomials(n, d)
    return LinearSeries.of_forms(
        [
            Polynomial(ctx, {m: (i * k) % 7 - 3 for i, m in enumerate(monos)})
            for k in (1, 2, 5)
        ]
    )


def test_dense_series_matches_oracle():
    # every monomial present: the layers fill most of each S_t
    check_against_oracle(dense_series(4, 5))


# ----------------------------------------------------------------------
# generator degrees


def check_generators(W):
    gd = minimal_generator_degrees(W)
    assert gd.counts == naive_generator_degrees([f for f in W.forms if not f.is_zero])
    assert gd.delta == max(gd.counts)
    # the explicit generators come from the kernel route, which shares
    # only the layers with the count
    gens = minimal_generators(W)
    assert {t: len(g) for t, g in gens.items()} == gd.counts


@settings(max_examples=150, deadline=None)
@given(random_series())
def test_generator_degrees_match_oracle_on_random_series(W):
    check_generators(W)


@pytest.mark.parametrize(
    "family",
    ["det:2", "det:3", "pf:3", "perm:3", "symdet:3", "monprod:5", "minors:2,3,2",
     "matmul:2,2,2"],
)
def test_generator_degrees_match_oracle_on_families(family):
    check_generators(build(parse_family(family)))


@pytest.mark.parametrize("family, counts", [("det:5", {2: 225}), ("pf:4", {2: 336})])
def test_generator_degrees_beyond_the_kernel_route(family, counts):
    assert minimal_generator_degrees(build(parse_family(family))).counts == counts


def test_generator_degrees_of_a_linear_form_in_many_variables():
    # the annihilator of x[1] + ... + x[n] is generated by the n-1 linear
    # forms d[1] - d[j] and one quadric
    W = LinearSeries.of_form(
        parse_polynomial(" + ".join(f"x[{i}]" for i in range(1, 201)))
    )
    assert minimal_generator_degrees(W).counts == {1: 199, 2: 1}


def test_generator_count_of_a_wide_sum_of_squares_holds_one_plan_at_a_time():
    # x[1]^2 + ... + x[300]^2: the one layer that is not full, A_2, is one
    # row with 300 partials, ranked under 300 unknowns.  A plan per
    # unknown held for the whole count (89700 entries) made its traced
    # peak 14.1 MiB; one plan of n entries at a time makes it 5.5 MiB
    n = 300
    W = LinearSeries.of_form(
        parse_polynomial(" + ".join(f"x[{i}]^2" for i in range(1, n + 1)))
    )
    W._layers
    tracemalloc.start()
    try:
        gd = minimal_generator_degrees(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (gd.counts, gd.delta) == ({2: n * (n + 1) // 2 - 1}, 2)
    assert peak < 9 * 2**20


# ----------------------------------------------------------------------
# packed monomial keys: the layer rows are keyed by ints that order,
# differentiate and list variables like the exponent tuples they pack


@st.composite
def packed_keys(draw):
    n = draw(st.integers(1, 40))
    keys = _Keys(n, draw(st.integers(0, 15)))
    # exponents up to the full key field, which may exceed the top asked for
    mono = st.tuples(*[st.integers(0, keys.mask)] * n)
    row = draw(st.dictionaries(mono, st.integers(-9, 9).filter(bool), max_size=8))
    return keys, mono, row


@settings(max_examples=200, deadline=None)
@given(packed_keys(), st.data())
def test_packing_preserves_order_and_round_trips(case, data):
    keys, mono, _ = case
    a, b = data.draw(mono), data.draw(mono)
    assert keys.unpack(keys.pack(a)) == a
    assert (keys.pack(a) < keys.pack(b)) == (a < b)
    assert (keys.pack(a) == keys.pack(b)) == (a == b)


@settings(max_examples=200, deadline=None)
@given(packed_keys())
def test_packed_gradient_matches_the_tuple_routes(case):
    keys, _, row = case
    grad = keys.gradient({keys.pack(m): c for m, c in row.items()})
    # ascending, and exactly the variables that occur in the row
    assert [i for i, _ in grad] == [j for j in range(keys.n) if any(m[j] for m in row)]
    for i, dv in grad:
        got = [(keys.unpack(m), c) for m, c in dv.items()]
        assert got == list(partial_terms(row, i).items())


def test_gradient_of_the_empty_row_is_empty():
    assert _Keys(5, 3).gradient({}) == []


def test_gradient_of_a_wide_sum_of_squares():
    # sum_{i<300} x_i^2 + x_0 * x_299: d_0 is 2x_0 + x_299, d_299 is
    # 2x_299 + x_0 and every other d_i is 2x_i
    n = 300
    keys = _Keys(n, 2)
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    row = {keys.pack(tuple(2 * e for e in u)): 1 for u in unit}
    row[keys.pack(tuple(a + b for a, b in zip(unit[0], unit[-1])))] = 1
    grad = keys.gradient(row)
    assert [i for i, _ in grad] == list(range(n))
    want = {i: {unit[i]: 2} for i in range(n)}
    want[0][unit[-1]] = 1
    want[n - 1][unit[0]] = 1
    assert {i: {keys.unpack(m): c for m, c in dv.items()} for i, dv in grad} == want


def test_an_exponent_wider_than_the_key_field_is_an_invariant_error():
    keys = _Keys(3, 5)  # three bits per variable
    assert keys.unpack(keys.pack((7, 0, 7))) == (7, 0, 7)
    with pytest.raises(InvariantError, match="8 does not fit in a 3-bit"):
        keys.pack((0, 8, 0))


# ----------------------------------------------------------------------
# the closure keeps the rows of the plain loop, and tries each d^beta once


def check_closure_rows(forms):
    n = len(forms[0].context)
    tops = [clear_denominators(f.terms) for f in forms]
    keys = _Keys(n, max(max(m, default=0) for top in tops for m in top))
    got = list(_closure([keys.pack_row(top) for top in tops], keys))
    want = reference_closure(tops, n)
    # the rows unpacked, key order too: later passes walk each row in
    # this order
    assert [[[(keys.unpack(m), c) for m, c in r.items()] for r in g] for g in got] == [
        [list(r.items()) for r in g] for g in want
    ]


@settings(max_examples=150, deadline=None)
@given(random_series())
def test_closure_keeps_the_reference_rows_on_random_series(W):
    check_closure_rows(W.reduced_basis)


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_closure_keeps_the_reference_rows_on_families(family):
    check_closure_rows(build(parse_family(family)).reduced_basis)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("at", ["x[1,1]", "x[{0},{0}]", "random 1", "random 2"])
def test_closure_keeps_the_reference_rows_on_dehomogenized_determinants(n, at):
    F = build(parse_family(f"det:{n}")).forms[0]
    ctx = F.context
    if at.startswith("x"):
        l = Polynomial.named_variable(ctx, at.format(n))
    else:
        rng = random.Random(at)
        coeffs = [rng.choice([0, 0, 1, -2, 3]) for _ in ctx.names]
        coeffs[rng.randrange(len(coeffs))] = 5
        l = Polynomial(ctx, {m: c for m, c in zip(naive_monomials(len(ctx), 1), coeffs) if c})
    check_closure_rows([dehomogenize(F, l)])


def count_calls(monkeypatch, owner, name, run):
    """``run()`` and the number of calls it made to ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    try:
        out = run()
    finally:
        monkeypatch.undo()
    return out, len(calls)


def built(layers):
    """The layers that hold rows: those that are not all of R_t."""
    return [layer for layer in layers if layer is not None]


@pytest.mark.parametrize("family, adds, kept", [("monprod:6", 63, 57), ("det:4", 69, 53)])
def test_layers_try_each_derivative_once(monkeypatch, family, adds, kept):
    # the plain loop makes 193 and 321 adds: every path to a derivative.
    # Trying each derivative once makes 63 and 152; a derivative that is
    # a multiple of the row kept at its pivot in its order (a minor of
    # det:4 reached by another matching) is then not added, which leaves
    # 69 for det:4.  Both end at A_1, which is all of R_1: the 6 and 16
    # rows that fill it are added, kept in no layer, and A_0 is not tried
    W = build(parse_family(family))
    assert W.dim == 1
    layers, calls = count_calls(monkeypatch, SpanBuilder, "add", lambda: W._layers)
    assert (calls, sum(map(len, built(layers)))) == (adds, kept)


def test_closure_stops_at_a_full_order_on_dense_quartics(monkeypatch):
    # A_2 is all of R_2: once that order holds its 10 rows the closure
    # ends, and A_2, A_1 and A_0 are not built
    W = dense_series(4, 4)
    assert W.dim == 3
    layers, capped = count_calls(monkeypatch, SpanBuilder, "add", lambda: W._layers)
    assert [None if layer is None else len(layer) for layer in layers] == [
        None, None, None, 12, 3
    ]
    assert hilbert_function(W) == (1, 4, 10, 12, 3)
    keys = W._keys
    tops = [keys.pack_row(f.terms) for f in W.reduced_basis]
    groups, uncapped = count_calls(
        monkeypatch, SpanBuilder, "add", lambda: list(_closure(tops, keys))
    )
    # adding every candidate makes 74 uncapped adds; 8 are multiples of
    # the row kept at their pivot and are dropped before the span
    assert (capped, uncapped) == (25, 66)
    assert groups[:2] == list(reversed(built(layers)))
    check_closure_rows(W.reduced_basis)


# ----------------------------------------------------------------------
# the closure against the loop that gives every candidate to the span: a
# candidate dropped as a multiple of the row kept at its pivot lies in
# the span, so the same rows are kept


def check_against_every_candidate(tops, keys, caps=()):
    """The rows of ``_closure``, after checking that they are those of the
    loop that adds every candidate, in the same order and with the same
    entries in the same key order."""
    def unpacked(groups):
        return [[[(keys.unpack(m), c) for m, c in r.items()] for r in g] for g in groups]

    got = list(_closure(tops, keys, caps))
    assert unpacked(got) == unpacked(closure_adding_every_candidate(tops, keys, caps))
    return got


@settings(max_examples=150, deadline=None)
@given(random_series())
def test_closure_drops_only_candidates_in_the_span_on_random_series(W):
    n, d, keys = len(W.context), W.degree, W._keys
    tops = [keys.pack_row(f.terms) for f in W.reduced_basis]
    check_against_every_candidate(tops, keys)
    check_against_every_candidate(
        tops, keys, tuple(math.comb(n + d - k - 1, d - k) for k in range(d + 1))
    )


# forms with many derivatives equal up to a factor: a minor of det:n, or
# a pfaffian of pf:3, is reached by many matchings, and a derivative of
# x^a*y^b or (x+y)^d by every order of its steps
MANY_EQUAL = st.one_of(
    st.sampled_from(["det:3", "det:4", "pf:3"]).map(
        lambda family: build(parse_family(family)).forms[0]
    ),
    st.tuples(st.integers(1, 6), st.integers(1, 6)).map(
        lambda ab: parse_polynomial(f"x^{ab[0]}*y^{ab[1]}")
    ),
    st.integers(1, 8).map(lambda d: parse_polynomial("x + y") ** d),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(MANY_EQUAL, random_series().map(lambda W: W.forms[0])), st.data())
def test_closure_drops_only_candidates_in_the_span_at_a_coordinate(F, data):
    # the dehomogenization at a * x_j, a = 1 (every report's direction)
    # or not, is not homogeneous: rows of several degrees share an order
    ctx = F.context
    j = data.draw(st.integers(0, len(ctx) - 1))
    a = data.draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
    f = dehomogenize(F, Polynomial(ctx, {tuple(int(i == j) for i in range(len(ctx))): a}))
    keys = _Keys(len(ctx), max(max(m, default=0) for m in f.terms))
    groups = check_against_every_candidate([keys.pack_row(f.terms)], keys)
    assert coordinate_closure_dim(F, j, a) == sum(map(len, groups)) == naive_closure_dim(f)


@settings(max_examples=150, deadline=None)
@given(random_series())
def test_layers_are_the_first_closure_groups_and_none_below(W):
    # the rows built are those of the uncapped closure, in the same rows
    # and key order; every layer below them is all of R_t, as the
    # uncapped closure finds
    n, keys = len(W.context), W._keys
    tops = [keys.pack_row(f.terms) for f in W.reduced_basis]
    groups = list(_closure(tops, keys))
    layers = W._layers
    rows = built(layers)
    assert [[list(r.items()) for r in layer] for layer in rows] == [
        [list(r.items()) for r in group] for group in reversed(groups[: len(rows)])
    ]
    dims = hilbert_function(W)
    assert list(dims) == [len(group) for group in reversed(groups)]
    for t, layer in enumerate(layers):
        if layer is None:
            assert dims[t] == math.comb(n + t - 1, t)
            assert all(lower is None for lower in layers[:t])


def test_hilbert_function_of_a_full_top_layer_adds_only_the_top(monkeypatch):
    # every layer of x^5000 is all of R_t, the top one too: the closure
    # adds x^5000 and ends, where building each layer takes 5001 adds
    W = LinearSeries.of_form(parse_polynomial("x^5000"))
    W.reduced_basis
    dims, adds = count_calls(monkeypatch, SpanBuilder, "add", lambda: hilbert_function(W))
    assert (dims, adds) == ((1,) * 5001, 1)
    assert W._layers == (None,) * 5001


def test_bound_report_checks_the_hilbert_function_once(monkeypatch):
    # the report, the generator count and each of the 3 derivative trials
    # read the Hilbert function; its d + 1 checked layer bounds are taken
    # once per series (20 calls when each read rechecked them)
    W = build(parse_family("det:3"))
    _, calls = count_calls(
        monkeypatch, apolarity, "layer_bound", lambda: bound_report(W, "det:3", trials=3)
    )
    assert calls == W.degree + 1 == 4


def test_generator_count_of_a_dense_series_eliminates_at_most_its_pinned_steps(monkeypatch):
    # 426 steps when the n images of one row went in together; the
    # images are dense, so the modular rank is switched off to keep
    # every degree on the exact route
    W = dense_series(4, 5)
    W._layers
    monkeypatch.setattr(apolarity, "packs_densely", lambda *sizes: False)
    gd, steps = count_calls(monkeypatch, linalg, "_eliminate", lambda: _count_generators(W))
    assert gd.counts == {4: 23}
    assert steps <= 412


# ----------------------------------------------------------------------
# the closure keeps its rows primitive


@pytest.mark.parametrize("form", ORACLE_FAMILIES + ("x^5000",))
def test_every_layer_row_is_primitive(form):
    # d^beta x^d carries d!/(d-|beta|)! unless divided out: the closure of
    # x^5000 would hold about 5000^2 log 5000 bits.  Its layers are all of
    # R_t and hold no rows, so for it the rows of the uncapped closure,
    # the ones diff_closure_dim counts, are walked
    if form.startswith("x"):
        keys = _Keys(1, 5000)
        layers = list(_closure([keys.pack_row({(5000,): 1})], keys))
        assert len(layers) == 5001
    else:
        layers = built(build(parse_family(form))._layers)
    for layer in layers:
        for row in layer:
            assert math.gcd(*row.values()) == 1
