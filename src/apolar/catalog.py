"""Builtin form families, their closed-form Hilbert data, and the
reference bound tables.

Families
--------
* ``det:N``     generic N x N determinant, degree N in N^2 variables x[i,j]
* ``perm:N``    generic N x N permanent (no closed forms; exercises the
                generic machinery)
* ``pf:N``      Pfaffian of a generic 2N x 2N skew matrix on the C(2N,2)
                coordinates x[i,j], i < j
* ``symdet:N``  determinant of a generic symmetric matrix on the
                C(N+1,2) coordinates x[i,j], i <= j
* ``monprod:N`` the product x[1]*...*x[N]
* ``minors:M,N,D`` the series of D x D minors of a generic M x N matrix
                (1 <= D <= M <= N)
* ``matmul:P,Q,R`` the series of entries of the product of a generic
                P x Q matrix x and Q x R matrix y; the z[i,j] variables
                of the associated trilinear tensor are declared in the
                context but unused by the series

Skew and symmetric matrices are represented on their independent
coordinates only, which is what the closed-form dimension counts refer
to.  Every family is a sum of signed products of variables, and each
builder lists those products as context positions for
``Polynomial.from_products``: the permutations of a determinant,
permanent or minor (``_matrix_polynomial``), the perfect matchings of a
Pfaffian, the one product of ``monprod`` and the q products of each
``matmul`` entry.

Each family is one record in ``_FAMILIES``, read by the spec checks,
``check_size``, ``variable_count``, ``build``, ``canonical_partial_text``
and ``closed_form_hilbert``; each reference table is one entry of
``_TABLES``, listed by ``table_families``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .apolarity import LinearSeries, apolar_length
from .bounds import (
    KIND_LOWER_CACTUS,
    KIND_LOWER_WARING,
    KIND_UPPER_CACTUS,
    KIND_UPPER_WARING,
    bernardi_ranestad_upper,
    derivative_bound,
    landsberg_teitler_det,
    sylvester_bound,
    ranestad_schreyer_bound,
)
from .poly import (
    DualForm,
    Polynomial,
    Rational,
    VarContext,
    parse_dual_form,
)


class NoClosedFormError(ValueError):
    pass


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {', '.join(_FAMILIES)}"
            )
        if any(p < 1 for p in self.params):
            raise ValueError("family parameters must be positive")
        names = _FAMILIES[self.family].params
        if len(self.params) != len(names.split(",")):
            usage = f"parameters {names}" if "," in names else "one parameter"
            raise ValueError(f"{self.family} takes {usage}")
        if self.family == "minors":
            m, n, d = self.params
            if not (d <= m <= n):
                raise ValueError("minors parameters must satisfy D <= M <= N")

    @property
    def id(self) -> str:
        return f"{self.family}:{','.join(str(p) for p in self.params)}"


def parse_family(text: str) -> FamilySpec:
    """Parse an id like ``det:3`` or ``minors:3,3,2``."""
    family, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"malformed form id {text!r}; expected family:params")
    try:
        params = tuple(int(p) for p in rest.split(","))
    except ValueError:
        raise ValueError(f"malformed parameters {rest!r} in form id {text!r}") from None
    return FamilySpec(family, params)


# ----------------------------------------------------------------------
# contexts and generic expansion helpers


def grid_context(rows: int, cols: int, base: str = "x") -> VarContext:
    names = tuple(
        f"{base}[{i},{j}]" for i in range(1, rows + 1) for j in range(1, cols + 1)
    )
    return VarContext(names)


def _perm_sign(perm) -> int:
    """-1 to the number of inversions of a sequence of distinct ints."""
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def _matrix_polynomial(
    ctx: VarContext, entry_pos, n: int, signed: bool
) -> Polynomial:
    """Sum over the permutations of n of the products of the matrix
    entries they pick, signed for a determinant and unsigned for a
    permanent.  ``entry_pos(i, j)`` gives the context position of the
    (i, j) entry; two entries may share one (the symmetric
    determinant), and the products then hold that variable twice."""
    pos = [[entry_pos(i, j) for j in range(n)] for i in range(n)]
    return Polynomial.from_products(
        ctx,
        (
            (_perm_sign(perm) if signed else 1, [pos[i][j] for i, j in enumerate(perm)])
            for perm in itertools.permutations(range(n))
        ),
    )


def build_determinant(n: int, ctx: VarContext | None = None) -> Polynomial:
    ctx = ctx or grid_context(n, n)
    return _matrix_polynomial(ctx, lambda i, j: ctx.position(f"x[{i+1},{j+1}]"), n, True)


def build_permanent(n: int) -> Polynomial:
    ctx = grid_context(n, n)
    return _matrix_polynomial(ctx, lambda i, j: ctx.position(f"x[{i+1},{j+1}]"), n, False)


def skew_context(n: int) -> VarContext:
    """Coordinates x[i,j], 1 <= i < j <= 2n, of a 2n x 2n skew matrix."""
    names = tuple(
        f"x[{i},{j}]"
        for i in range(1, 2 * n + 1)
        for j in range(i + 1, 2 * n + 1)
    )
    return VarContext(names)


def _pair_partitions(elems: tuple[int, ...]):
    if not elems:
        yield ()
        return
    a = elems[0]
    for k in range(1, len(elems)):
        b = elems[k]
        rest = elems[1:k] + elems[k + 1 :]
        for sub in _pair_partitions(rest):
            yield ((a, b),) + sub


def pfaffian_on(ctx: VarContext, indices: tuple[int, ...]) -> Polynomial:
    """Pfaffian of the skew submatrix on the given (even-sized, sorted)
    index set, as a polynomial in the ambient skew context."""
    if len(indices) % 2:
        raise ValueError("a Pfaffian needs an even index set")
    order = {v: i for i, v in enumerate(indices)}
    pos = {(a, b): ctx.position(f"x[{a},{b}]") for a, b in itertools.combinations(indices, 2)}
    return Polynomial.from_products(
        ctx,
        (
            (_perm_sign([order[v] for pair in pairs for v in pair]), [pos[p] for p in pairs])
            for pairs in _pair_partitions(tuple(indices))
        ),
    )


def build_pfaffian(n: int) -> Polynomial:
    ctx = skew_context(n)
    return pfaffian_on(ctx, tuple(range(1, 2 * n + 1)))


def symmetric_context(n: int) -> VarContext:
    names = tuple(
        f"x[{i},{j}]" for i in range(1, n + 1) for j in range(i, n + 1)
    )
    return VarContext(names)


def build_symmetric_determinant(n: int) -> Polynomial:
    ctx = symmetric_context(n)

    def pos(i: int, j: int) -> int:
        a, b = min(i, j) + 1, max(i, j) + 1
        return ctx.position(f"x[{a},{b}]")

    return _matrix_polynomial(ctx, pos, n, True)


def monprod_context(n: int) -> VarContext:
    return VarContext(tuple(f"x[{i}]" for i in range(1, n + 1)))


def build_monomial_product(n: int) -> Polynomial:
    return Polynomial.from_products(monprod_context(n), [(1, range(n))])


def build_minors_series(m: int, n: int, d: int) -> list[Polynomial]:
    ctx = grid_context(m, n)
    forms = []
    for rows in itertools.combinations(range(m), d):
        for cols in itertools.combinations(range(n), d):
            forms.append(
                _matrix_polynomial(
                    ctx,
                    lambda i, j, rows=rows, cols=cols: ctx.position(
                        f"x[{rows[i]+1},{cols[j]+1}]"
                    ),
                    d,
                    True,
                )
            )
    return forms


def matmul_context(p: int, q: int, r: int) -> VarContext:
    names = [f"x[{i},{j}]" for i in range(1, p + 1) for j in range(1, q + 1)]
    names += [f"y[{i},{j}]" for i in range(1, q + 1) for j in range(1, r + 1)]
    names += [f"z[{i},{j}]" for i in range(1, r + 1) for j in range(1, p + 1)]
    return VarContext(tuple(names))


def build_matmul_series(p: int, q: int, r: int) -> list[Polynomial]:
    ctx = matmul_context(p, q, r)
    return [
        Polynomial.from_products(
            ctx,
            (
                (1, (ctx.position(f"x[{i},{j}]"), ctx.position(f"y[{j},{k}]")))
                for j in range(1, q + 1)
            ),
        )
        for i in range(1, p + 1)
        for k in range(1, r + 1)
    ]


# ----------------------------------------------------------------------
# closed forms and the family records


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    """N(n, k) = C(n, k) * C(n, k-1) / n; rows sum to the Catalan number."""
    if k < 1 or k > n:
        return 0
    return math.comb(n, k) * math.comb(n, k - 1) // n


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


@dataclass(frozen=True)
class _Family:
    """One family: its parameter names, its builder (parameters -> forms),
    the text of its distinguished derivative direction (formatted with the
    parameters), its closed-form Hilbert function (values yielded in
    degree order), or None, and its size: factors, yielded lazily, whose
    product is the number of exponents its builder writes (each term it
    enumerates is a tuple as long as the context)."""

    params: str
    build: Callable[..., list[Polynomial]]
    direction: str
    hilbert: Callable[..., Iterable[int]] | None
    size: Callable[..., Iterable[int]]


def _size(variables: int, *term_factors) -> Iterable[int]:
    return itertools.chain((variables,), *term_factors)


# symdet: the Narayana row of n+1; the permanent has no known closed form.
# det, perm and symdet enumerate n! permutations, pf (2n-1)!! pairings,
# minors d! permutations per pair of row and column sets, and matmul q
# terms for each of its p*r forms.
_FAMILIES = {
    "det": _Family("N", lambda n: [build_determinant(n)], "d[1,1]",
                   lambda n: (math.comb(n, t) ** 2 for t in range(n + 1)),
                   lambda n: _size(n * n, range(2, n + 1))),
    "perm": _Family("N", lambda n: [build_permanent(n)], "d[1,1]", None,
                    lambda n: _size(n * n, range(2, n + 1))),
    "pf": _Family("N", lambda n: [build_pfaffian(n)], "d[1,2]",
                  lambda n: (math.comb(2 * n, 2 * t) for t in range(n + 1)),
                  lambda n: _size(n * (2 * n - 1), range(3, 2 * n, 2))),
    "symdet": _Family("N", lambda n: [build_symmetric_determinant(n)], "d[{0},{0}]",
                      lambda n: (narayana(n + 1, t + 1) for t in range(n + 1)),
                      lambda n: _size(n * (n + 1) // 2, range(2, n + 1))),
    "monprod": _Family("N", lambda n: [build_monomial_product(n)], "d[1]",
                       lambda n: (math.comb(n, t) for t in range(n + 1)),
                       lambda n: _size(n)),
    "minors": _Family("M,N,D", build_minors_series, "d[1,1]",
                      lambda m, n, d: (math.comb(m, t) * math.comb(n, t) for t in range(d + 1)),
                      lambda m, n, d: _size(m * n, (math.comb(m, d), math.comb(n, d)),
                                            range(2, d + 1))),
    "matmul": _Family("P,Q,R", build_matmul_series, "d_x[1,1] + d_y[1,1]",
                      lambda p, q, r: (1, p * q + q * r, p * r),
                      lambda p, q, r: _size(p * q + q * r + r * p, (p, q, r))),
}


def _passes(values: Iterable[int], op, limit: int) -> bool:
    """Whether the running ``op``-fold of ``values`` ever exceeds ``limit``;
    stops at the first value that does."""
    return any(v > limit for v in itertools.accumulate(values, op))


def check_size(spec: FamilySpec, max_size: int, max_length: int) -> None:
    """Refuse a family, before anything is built, whose apolar length
    (where a closed form gives it) or size (exponents written by its
    builder) is over its limit.  The length is checked first: once it is
    within its limit, every parameter is small enough for the size
    factors of ``minors`` to be cheap."""
    record = _FAMILIES[spec.family]
    if record.hilbert and _passes(record.hilbert(*spec.params), operator.add, max_length):
        raise ValueError(
            f"builtin {spec.id!r} is too large: its apolar length is over the "
            f"limit of {max_length}"
        )
    if _passes(record.size(*spec.params), operator.mul, max_size):
        raise ValueError(
            f"builtin {spec.id!r} is too large: its terms times its variables "
            f"are over the limit of {max_size}"
        )


def variable_count(spec: FamilySpec) -> int:
    """The number of variables of the family's context, without building
    it: the first factor of its size record."""
    return next(iter(_FAMILIES[spec.family].size(*spec.params)))


def build(spec: FamilySpec) -> LinearSeries:
    """Exact polynomial construction of a builtin family."""
    return LinearSeries.of_forms(_FAMILIES[spec.family].build(*spec.params))


def canonical_partial_text(spec: FamilySpec) -> str:
    """The distinguished derivative direction of the family (the one whose
    orbit under the family's symmetry group spans the dual space)."""
    return _FAMILIES[spec.family].direction.format(*spec.params)


def canonical_partial(spec: FamilySpec, W: LinearSeries) -> DualForm:
    return parse_dual_form(canonical_partial_text(spec), W.context)


def closed_form_hilbert(spec: FamilySpec) -> tuple[int, ...]:
    """Formula values of the Hilbert function, no polynomial arithmetic."""
    hilbert = _FAMILIES[spec.family].hilbert
    if hilbert is None:
        raise NoClosedFormError(f"no closed-form Hilbert function for {spec.family!r}")
    return tuple(hilbert(*spec.params))


# ----------------------------------------------------------------------
# reference tables


LABEL_SYLVESTER = "Sylvester"
LABEL_LT = "Landsberg-Teitler"
LABEL_RSS = "Ranestad-Schreyer-Shafiei"
LABEL_DERIVATIVE = "Invariant derivative"
LABEL_CR_UPPER = "Upper bound for cactus rank"
LABEL_R_UPPER = "Upper bound for Waring rank"


@dataclass(frozen=True)
class TableRow:
    label: str
    kind: str
    values: tuple[Rational, ...]


@dataclass(frozen=True)
class TableDoc:
    family: str
    ns: tuple[int, ...]
    rows: tuple[TableRow, ...]


# family -> its rows, in order: (label, kind, closed form in n)
_TABLES = {
    "det": (
        (LABEL_SYLVESTER, KIND_LOWER_CACTUS, lambda n: math.comb(n, n // 2) ** 2),
        (LABEL_LT, KIND_LOWER_WARING, landsberg_teitler_det),
        (LABEL_RSS, KIND_LOWER_CACTUS, lambda n: Fraction(math.comb(2 * n, n), 2)),
        (LABEL_DERIVATIVE, KIND_LOWER_CACTUS,
         lambda n: math.comb(2 * n, n) - math.comb(2 * n - 2, n - 1)),
        (LABEL_CR_UPPER, KIND_UPPER_CACTUS, lambda n: math.comb(2 * n, n) - 2),
        (LABEL_R_UPPER, KIND_UPPER_WARING,
         lambda n: Fraction(5, 6) ** (n // 3) * 2 ** (n - 1) * math.factorial(n)),
    ),
    "pf": (
        (LABEL_SYLVESTER, KIND_LOWER_CACTUS, lambda n: math.comb(2 * n, 2 * (n // 2))),
        (LABEL_RSS, KIND_LOWER_CACTUS, lambda n: 2 ** (2 * n - 2)),
        (LABEL_DERIVATIVE, KIND_LOWER_CACTUS, lambda n: 3 * 2 ** (2 * n - 3)),
        (LABEL_CR_UPPER, KIND_UPPER_CACTUS, lambda n: 2 ** (2 * n - 1)),
        (LABEL_R_UPPER, KIND_UPPER_WARING, lambda n: double_factorial(2 * n - 1) * 2 ** (n - 1)),
    ),
    "symdet": (
        (LABEL_SYLVESTER, KIND_LOWER_CACTUS, lambda n: narayana(n + 1, n // 2 + 1)),
        (LABEL_RSS, KIND_LOWER_CACTUS, lambda n: Fraction(catalan(n + 1), 2)),
        (LABEL_DERIVATIVE, KIND_LOWER_CACTUS, lambda n: catalan(n + 1) - catalan(n)),
        (LABEL_CR_UPPER, KIND_UPPER_CACTUS, lambda n: catalan(n + 1)),
    ),
}


def table_families() -> tuple[str, ...]:
    """The families that have a reference bound table, in table order."""
    return tuple(_TABLES)


def closed_form_table(family: str, n_max: int) -> TableDoc:
    """Closed-form bound table for n = 2..n_max."""
    if family not in _TABLES:
        raise ValueError(f"no reference table for family {family!r}")
    if n_max < 2:
        raise ValueError("table needs n_max >= 2")
    ns = tuple(range(2, n_max + 1))
    rows = tuple(
        TableRow(label, kind, tuple(Fraction(value(n)) for n in ns))
        for label, kind, value in _TABLES[family]
    )
    return TableDoc(family, ns, rows)


def verify_table_column(family: str, n: int) -> dict[str, Rational]:
    """Recompute the table cells that have a polynomial-arithmetic route.

    The Landsberg-Teitler row and the determinant Waring upper bound are
    pure closed forms with no second route here, so they are skipped;
    the Pfaffian Waring upper bound is checked as (number of monomials)
    times 2^(n-1).
    """
    spec = FamilySpec(family, (n,))
    W = build(spec)
    F = W.reduced_basis[0]
    dl = canonical_partial(spec, W)
    out = {
        LABEL_SYLVESTER: Fraction(sylvester_bound(W)),
        LABEL_RSS: ranestad_schreyer_bound(W),
        LABEL_DERIVATIVE: Fraction(derivative_bound(W, dl)),
    }
    if family == "det":
        var = Polynomial.named_variable(W.context, f"x[{n},{n}]")
        out[LABEL_CR_UPPER] = Fraction(bernardi_ranestad_upper(F, var))
    else:
        out[LABEL_CR_UPPER] = Fraction(apolar_length(W))
    if family == "pf":
        out[LABEL_R_UPPER] = Fraction(len(F.terms) * 2 ** (n - 1))
    return out


# ----------------------------------------------------------------------
# the power-sum identity for products of variables


def monomial_decomposition(n: int) -> tuple[list[Polynomial], list[Rational]]:
    """The 2^(n-1) signed power sums averaging to x[1]*...*x[n].

    Sign vectors run over all choices with first sign +1; the form for a
    sign vector is the signed sum of the variables, its coefficient the
    product of the signs over 2^(n-1) * n!.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    ctx = monprod_context(n)
    scale = Fraction(1, 2 ** (n - 1) * math.factorial(n))
    forms = []
    coeffs = []
    for rest in itertools.product((1, -1), repeat=n - 1):
        signs = (1,) + rest
        forms.append(Polynomial.from_products(ctx, ((s, (i,)) for i, s in enumerate(signs))))
        coeffs.append(math.prod(signs) * scale)
    return forms, coeffs


# ----------------------------------------------------------------------
# matrix multiplication


def matmul_bound(p: int, q: int, r: int) -> tuple[int, int]:
    """Derivative lower bound for the simultaneous rank of the product
    entries and the induced tensor-rank lower bound.

    The direction is the sum of the duals of x[1,1] and y[1,1], which
    lies in neither of the two proper invariant subspaces of the dual
    space.  The computed value must agree with the closed form
    pq+qr+pr-p-r+1; the tensor bound is half of it, rounded up.
    """
    spec = FamilySpec("matmul", (p, q, r))
    W = build(spec)
    dl = canonical_partial(spec, W)
    value = derivative_bound(W, dl)
    closed = p * q + q * r + p * r - p - r + 1
    if value != closed:
        raise RuntimeError(
            f"matmul derivative bound {value} disagrees with closed form {closed}"
        )
    return value, -(-value // 2)
