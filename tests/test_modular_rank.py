"""The modular rank certificate against exact elimination.

``linalg.ModularRank`` eliminates packed vectors modulo ``PRIME``.  The
generator count and the derivative kernels use it only to confirm a
rank bound they know from elsewhere, and fall back to ``SpanBuilder``
when it falls short, so with the certificate forced on every span and
with it switched off every answer must be the same.  The brute-force
rank here reduces dense lists mod PRIME by Gauss-Jordan and shares no
code with the packed route.
"""

import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import (
    DualForm,
    LinearSeries,
    Polynomial,
    SpanBuilder,
    VarContext,
    apolarity,
    cli,
    derivative_kernel_dims,
    format_polynomial,
    hilbert_function,
    minimal_generator_degrees,
)
from apolar.linalg import PRIME, SLOT_BITS, ModularRank, clear_denominators, pack
from oracles import naive_monomials

SLOT_MASK = (1 << SLOT_BITS) - 1


def slot_values(x: int, slots: int) -> list[int]:
    return [(x >> (SLOT_BITS * j)) & SLOT_MASK for j in range(slots)]


def brute_rank_mod_prime(rows: list[list[int]]) -> int:
    rows = [[c % PRIME for c in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, PRIME)
        rows[rank] = [c * inv % PRIME for c in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col]
                rows[i] = [(a - f * b) % PRIME for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


def modular_rank(rows: list[list[int]]) -> ModularRank:
    slots = len(rows[0])
    modular = ModularRank(slots)
    for row in rows:
        modular.add(pack(enumerate(row), slots))
    return modular


# ----------------------------------------------------------------------
# packing, folding and elimination


def test_pack_round_trips_at_the_largest_residues():
    # residues up to PRIME - 1 = 2^31 - 2 fill the low 31 bits of a slot
    values = [PRIME - 1, -1, PRIME, 2 * PRIME + 5, 0, 1, -(10**30), 10**30, PRIME + PRIME - 1]
    slots = 3 * len(values)
    x = pack(((3 * j, c) for j, c in enumerate(values)), slots)
    expected = [0] * slots
    for j, c in enumerate(values):
        expected[3 * j] = c % PRIME
    assert slot_values(x, slots) == expected
    assert x.bit_length() <= SLOT_BITS * slots


def test_fold_keeps_every_residue_of_the_widest_slots():
    # 2^96 - 1 is the largest slot value the fold takes; it comes out
    # below 2^33 with the same residue
    rng = random.Random(5)
    values = [SLOT_MASK, SLOT_MASK - 1, 2**93, 2**64, PRIME, 0]
    values += [rng.randrange(SLOT_MASK) for _ in range(20)]
    x = sum(v << (SLOT_BITS * j) for j, v in enumerate(values))
    folded = ModularRank(len(values))._fold(x)
    out = slot_values(folded, len(values))
    assert folded >> (SLOT_BITS * len(values)) == 0
    assert all(o < 2**33 for o in out)
    assert [o % PRIME for o in out] == [v % PRIME for v in values]


def test_rank_of_vectors_with_the_widest_slots():
    # vectors entered at the top of the fold's range, against dense rows
    rng = random.Random(6)
    for size in (1, 2, 5, 9):
        rows = [[rng.choice([SLOT_MASK, SLOT_MASK - PRIME, 0]) for _ in range(size)]
                for _ in range(size + 2)]
        modular = ModularRank(size)
        for row in rows:
            modular.add(sum(v << (SLOT_BITS * j) for j, v in enumerate(row)))
        assert modular.dim == brute_rank_mod_prime(rows)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda cols: st.lists(
            st.lists(
                st.one_of(
                    st.integers(-3, 3),
                    st.sampled_from([PRIME, -PRIME, 2 * PRIME, PRIME - 1, PRIME + 1]),
                    st.integers(-(10**40), 10**40),
                ),
                min_size=cols,
                max_size=cols,
            ),
            min_size=1,
            max_size=10,
        )
    )
)
def test_modular_rank_equals_the_brute_force_rank_mod_prime(rows):
    modular = modular_rank(rows)
    assert modular.dim == brute_rank_mod_prime(rows)
    span = SpanBuilder()
    for row in rows:
        span.add(dict(enumerate(row)))
    assert modular.dim <= span.dim


def test_singular_mod_prime_stops_short_of_the_rational_rank():
    rows = [[1, 0], [0, PRIME]]
    assert modular_rank(rows).dim == 1
    span = SpanBuilder()
    for row in rows:
        span.add(dict(enumerate(row)))
    assert span.dim == 2


def test_a_direction_singular_mod_prime_falls_back_to_the_exact_kernel():
    # D = d_x + PRIME * d_y maps A_2 = <x^2, y^2> to <2x, 2 PRIME y>: rank 1
    # mod PRIME, rank 2 over Q
    ctx = VarContext(("x", "y"))
    W = LinearSeries.of_form(Polynomial(ctx, {(3, 0): 1, (0, 3): 1}))
    D = DualForm(ctx, {(1, 0): 1, (0, 1): PRIME})
    modular_dims = []
    modular_add = ModularRank.add

    def recorded(self, x):
        enlarged = modular_add(self, x)
        modular_dims.append(self.dim)
        return enlarged

    with mock.patch.object(ModularRank, "add", recorded):
        with mock.patch.object(apolarity, "packs_densely", lambda *a: True):
            assert derivative_kernel_dims(W, D) == [1, 1, 0, 0]
    # t = 2 stopped at 1 of r = 2; t = 3 reached r = 1
    assert modular_dims == [1, 1, 1]


# ----------------------------------------------------------------------
# the certificate route against the exact route


COEFFS = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.sampled_from([PRIME, -PRIME, 2 * PRIME, PRIME + 1]),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
)


@st.composite
def series_and_direction(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5))
    monos = naive_monomials(n, d)
    form = st.dictionaries(st.sampled_from(monos), COEFFS, min_size=1, max_size=20)
    forms = draw(st.lists(form, min_size=1, max_size=3))
    direction = draw(
        st.lists(st.one_of(st.just(0), COEFFS), min_size=n, max_size=n).filter(any)
    )
    return n, forms, direction


def routes(n, forms, direction, dense):
    """Generator counts and kernel dims of a fresh series, with every span
    taken as dense (certificate first) or as sparse (exact only), and the
    number of vectors given to the certificate."""
    ctx = VarContext(tuple(f"x{i}" for i in range(n)))
    W = LinearSeries.of_forms([Polynomial(ctx, f) for f in forms])
    D = DualForm(
        ctx,
        {tuple(int(j == i) for j in range(n)): c for i, c in enumerate(direction) if c},
    )
    modular_adds = []
    modular_add = ModularRank.add

    def recorded(self, x):
        modular_adds.append(x)
        return modular_add(self, x)

    with mock.patch.object(apolarity, "packs_densely", lambda *a: dense), \
            mock.patch.object(ModularRank, "add", recorded):
        gd = minimal_generator_degrees(W)
        kernels = derivative_kernel_dims(W, D)
    return W, D, gd, kernels, len(modular_adds)


@settings(max_examples=150, deadline=None)
@given(series_and_direction())
def test_certificate_route_equals_the_exact_route(case):
    n, forms, direction = case
    W, D, gd, kernels, adds = routes(n, forms, direction, True)
    assert W.dim <= 3
    _, _, exact_gd, exact_kernels, exact_adds = routes(n, forms, direction, False)
    assert (gd.counts, gd.delta) == (exact_gd.counts, exact_gd.delta)
    assert kernels == exact_kernels
    # forced dense, every layer that is not all of R_t is ranked by the
    # certificate first; forced sparse, the certificate is never used
    dims = hilbert_function(W)
    assert (adds > 0) == any(h < len(naive_monomials(n, t)) for t, h in enumerate(dims))
    assert exact_adds == 0

    # asked for one more than the exact rank, the certificate never holds:
    # one that wrongly held would return that bound instead of the rank.
    # The plans are built here from an independent numbering of the pairs;
    # with the density test forced, the weights are not read.
    pair = {p: j for j, p in enumerate(combinations(range(n), 2))}
    plans = [
        {k: (1, pair[i, k]) if i < k else (-1, pair[k, i]) for k in range(n) if k != i}
        for i in range(n)
    ]
    plan = {m.index(1): (c, 0) for m, c in clear_denominators(D.terms).items()}
    grads = W._gradients
    with mock.patch.object(apolarity, "packs_densely", lambda *a: True):
        for t in range(1, W.degree + 2):
            h = dims[t] if t <= W.degree else 0
            if dims[t - 1] != len(naive_monomials(n, t - 1)):
                rank = n * dims[t - 1] - h - gd.counts.get(t, 0)
                assert apolarity._image_rank(
                    grads[t - 1], plans.__getitem__, n, len(pair), {}, rank + 1, False
                ) == rank
            if t <= W.degree and h != len(naive_monomials(n, t)):
                rank = h - kernels[t]
                assert apolarity._image_rank(
                    grads[t], lambda u: plan, 1, 1, {}, rank + 1, True
                ) == rank


# ----------------------------------------------------------------------
# the fast path stays on for dense input


def dense_series_file(tmp_path, seed, n=4, d=5, k=3):
    """k dense random forms of degree d in n variables, by default three
    quintics in 4 variables as in the largest cell of the bench's random
    series: each monomial present with probability 0.6, with a nonzero
    coefficient in [-9, 9]."""
    rng = random.Random(seed)
    ctx = VarContext(tuple(f"x[{i}]" for i in range(1, n + 1)))
    forms = []
    for _ in range(k):
        terms = {m: rng.choice([c for c in range(-9, 10) if c])
                 for m in naive_monomials(n, d) if rng.random() < 0.6}
        forms.append(format_polynomial(Polynomial(ctx, terms)))
    path = tmp_path / f"dense_{n}_{d}_{k}_{seed}.txt"
    path.write_text("\n".join(forms) + "\n", encoding="utf-8")
    return path


# (nonzeros, vectors, slots, packs densely) of each density test that
# `bounds --trials 2 --seed 1` makes: the count's degrees whose layer is
# not full, then the kernels of each direction.  Each partial weighs n-1
# in the count and 1/v in the kernel of a direction with v variables; a
# kernel that summed the partials instead would send the families'
# sparse kernels to the modular route.  Dense series are keyed by
# (seed, n, d, k) as in dense_series_file.
DENSITY_TESTS = {
    "builtin:det:3": [
        (288, 81, 324, False), (144, 9, 648, False),
        (4, 9, 9, False), (2, 1, 18, False), (4, 9, 9, False), (2, 1, 18, False),
    ],
    "builtin:pf:4": [
        (11340, 1960, 10584, False), (34020, 784, 79380, False),
        (11340, 28, 158760, False),
        (15, 70, 28, False), (45, 28, 210, False), (15, 1, 420, False),
        (15, 70, 28, False), (45, 28, 210, False), (15, 1, 420, False),
    ],
    "builtin:symdet:3": [
        (105, 36, 90, False), (60, 6, 180, False),
        (3.5, 6, 6, False), (2, 1, 12, True), (3.5, 6, 6, False), (2, 1, 12, True),
    ],
    "builtin:monprod:4": [
        (36, 24, 24, False), (36, 16, 36, False), (12, 4, 24, True),
        (3, 6, 4, True), (3, 4, 6, True), (1, 1, 4, True),
        (3, 6, 4, True), (3, 4, 6, True), (1, 1, 4, True),
    ],
    "builtin:matmul:2,2,2": [
        (88, 96, 66, False), (176, 48, 528, False),
        (2 / 3, 8, 1, False), (4 / 3, 4, 8, False),
        (7 / 11, 8, 1, False), (14 / 11, 4, 8, False),
    ],
    (1, 3, 6, 2): [
        (428, 36, 30, True), (312, 18, 45, True), (144, 6, 63, True),
        (214 / 3, 12, 10, True), (52, 6, 15, True), (24, 2, 21, True),
        (214 / 3, 12, 10, True), (52, 6, 15, True), (24, 2, 21, True),
    ],
    (3, 3, 5, 1): [
        (142, 18, 18, True), (118, 9, 30, True), (58, 3, 42, True),
        (71 / 3, 6, 6, True), (59 / 3, 3, 10, True), (29 / 3, 1, 14, True),
        (71 / 3, 6, 6, True), (59 / 3, 3, 10, True), (29 / 3, 1, 14, True),
    ],
}


@pytest.mark.parametrize("form", DENSITY_TESTS, ids=str)
def test_density_tests_route_the_spans_as_pinned(form, tmp_path):
    expected = DENSITY_TESTS[form]
    if isinstance(form, tuple):
        seed, n, d, k = form
        form = str(dense_series_file(tmp_path, seed, n=n, d=d, k=k))
    calls = []
    packs_densely = apolarity.packs_densely

    def recorded(nonzeros, vectors, slots):
        calls.append((nonzeros, vectors, slots, packs_densely(nonzeros, vectors, slots)))
        return calls[-1][-1]

    with mock.patch.object(apolarity, "packs_densely", recorded):
        assert cli.main(["bounds", "--form", form, "--trials", "2", "--seed", "1"]) == 0
    assert calls == [(pytest.approx(z), v, s, dense) for z, v, s, dense in expected]


def exact_spans_of_bounds(path, capsys):
    """Run ``bounds`` on a form file.  Returns the vectors the derivative
    kernels add to an exact span, the degrees t whose generator count
    adds an image to its exact span (t - 1 is the layer of the count's
    rank call), and the counts."""
    ranking = []  # "kernel", the count's series, or the degree it ranks
    kernel_adds = []
    count_degrees = set()
    counts = {}
    original_add = SpanBuilder.add
    original_rank = apolarity._image_rank
    original_kernels = apolarity.derivative_kernel_dims
    original_count = apolarity._count_generators

    def add(self, vec):
        if ranking and ranking[-1] == "kernel":
            kernel_adds.append(vec)
        elif ranking and isinstance(ranking[-1], int):
            count_degrees.add(ranking[-1])
        return original_add(self, vec)

    def image_rank(grads, *args):
        W = ranking[-1] if ranking else None
        if isinstance(W, LinearSeries):
            ranking.append(next(s for s, g in enumerate(W._gradients) if g is grads) + 1)
        try:
            return original_rank(grads, *args)
        finally:
            if isinstance(W, LinearSeries):
                ranking.pop()

    def kernels(W, partial):
        W._layers
        ranking.append("kernel")
        try:
            return original_kernels(W, partial)
        finally:
            ranking.pop()

    def count(W):
        W._layers
        ranking.append(W)
        try:
            gd = original_count(W)
        finally:
            ranking.pop()
        counts.update(gd.counts)
        return gd

    with mock.patch.object(SpanBuilder, "add", add), \
            mock.patch.object(apolarity, "_image_rank", image_rank), \
            mock.patch("apolar.bounds.derivative_kernel_dims", kernels), \
            mock.patch.object(apolarity, "_count_generators", count):
        code = cli.main(["bounds", "--form", str(path), "--trials", "3", "--seed", "1"])
    assert code == 0, capsys.readouterr().err
    return kernel_adds, count_degrees, counts


def test_dense_series_eliminates_exactly_only_where_generators_are_new(tmp_path, capsys):
    # three quintics in 4 variables: the certificate settles every span
    kernel_adds, count_degrees, counts = exact_spans_of_bounds(
        dense_series_file(tmp_path, 11), capsys
    )
    assert counts
    assert kernel_adds == []
    assert count_degrees == set()
    # two sextics in 3 variables: the count reaches its exact span at
    # t = 5, a degree with new generators, and only there
    kernel_adds, count_degrees, counts = exact_spans_of_bounds(
        dense_series_file(tmp_path, 11, n=3, d=6, k=2), capsys
    )
    assert counts == {4: 3, 5: 6}
    assert kernel_adds == []
    assert count_degrees == {5}
