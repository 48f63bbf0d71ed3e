"""Derivative layers against the catalecticant oracle.

``hilbert_function`` and ``apolar_ideal_component`` read everything off
the derivative layers of a series; ``oracles.naive_catalecticant`` builds
the dense catalecticant from coefficients and factorials and takes its
rank and Gauss-Jordan kernel.  The two routes share no code, and the
kernel bases must agree vector for vector, term for term.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import (
    LinearSeries,
    Polynomial,
    VarContext,
    apolar_ideal_component,
    closed_form_hilbert,
    hilbert_function,
    parse_family,
)
from apolar.catalog import build
from apolar.cli import main
from oracles import naive_catalecticant_hilbert, naive_ideal_component, naive_monomials


def check_against_oracle(W):
    forms = [f for f in W.forms if not f.is_zero]
    assert list(hilbert_function(W)) == naive_catalecticant_hilbert(forms)
    for t in range(W.degree + 1):
        got = [psi.terms for psi in apolar_ideal_component(W, t)]
        assert got == naive_ideal_component(forms, t), f"degree {t}"


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


@pytest.mark.parametrize("family", ["det:5", "pf:5"])
def test_hilbert_cli_matches_closed_form_beyond_dense_reach(family, capsys):
    # dim S_5 is 118755 for det:5 and 1906884 for pf:5: the dense
    # catalecticants of these would not fit a test run
    assert main(["hilbert", "--form", f"builtin:{family}", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == list(closed_form_hilbert(parse_family(family)))


def test_dense_series_matches_oracle():
    # every monomial present: the layers fill most of each S_t
    ctx = VarContext(tuple(f"x{i}" for i in range(4)))
    monos = naive_monomials(4, 5)
    W = LinearSeries.of_forms(
        [
            Polynomial(ctx, {m: (i * k) % 7 - 3 for i, m in enumerate(monos)})
            for k in (1, 2, 5)
        ]
    )
    check_against_oracle(W)
