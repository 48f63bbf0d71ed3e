"""Apolar algebras of forms and linear series, from derivative layers.

For a series W of degree-d forms in n variables the derivative layers are

    A_d = span(W),    A_{t-1} = span{ d/dx_i v : v in A_t, i = 1..n },

so A_t is the span of all (d-t)-th partial derivatives of W (the
degree-t piece of its Macaulay inverse system, Diff(W)).  Each layer is
a :class:`SpanBuilder` of primitive integer rows keyed by exponent
tuples, and the next layer differentiates the stored integer rows
directly.  Everything is read off the layers:

* the Hilbert function is ``dims[t] = dim A_t``, which is the rank of
  the degree-t catalecticant (its transpose has image A_t), for series
  as well as single forms, and the apolar length is their sum;
* the degree-t annihilator piece is the orthogonal complement of A_t
  under the pairing ``<d^beta, x^alpha> = alpha! * delta(alpha, beta)``:
  the kernel of the ``h(t) x dim S_t`` matrix whose rows are
  ``{alpha: alpha! * g_alpha}`` for the rows g of A_t;
* colon pieces and quotient lengths pair dual forms against the same
  layers;
* minimal generator counts come from two adjacent layers: degree t has
  ``dim P_t - h(t)`` new generators, where the prolongation
  ``P_t = {g : d_i g in A_{t-1} for all i}`` is the kernel of a map on
  ``n * h(t-1)`` unknowns (see :func:`minimal_generator_degrees`);
* derivative bounds come from the same layers: for a linear dual form
  D the degree-t layer of the derivative series DW is ``D(A_{t+1})``,
  so the difference of the apolar lengths of W and DW is
  ``sum_t dim ker(D|A_t)``, and no derivative series is built (see
  :func:`derivative_kernel_dims`).

So the work grows with the Hilbert function h(t), not with
``dim S_t = C(n+t-1, t)``, except where an answer itself holds one
vector per degree-t monomial.  The catalecticant matrix stays available
to callers who want it, but nothing here computes through it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import QMatrix, Rational, SpanBuilder
# no longer called here, but still importable under these names: the
# bench tracer (bench/tracing.py) wraps them in this module
from .linalg import kernel_basis, rank  # noqa: F401
from .poly import (
    ContextMismatchError,
    DualForm,
    Monomial,
    Polynomial,
    VarContext,
    apply_operator,
    monomial_basis,
)


class ZeroSeriesError(ValueError):
    """The zero series has no apolar algebra worth talking about."""


class DegreeRangeError(ValueError):
    pass


class NoVariablesError(ValueError):
    """The series lives over a context with no variables: its forms are
    constants, with no derivatives to take."""


class InvariantError(RuntimeError):
    """A computed dimension broke a bound that holds for every input: the
    computation is wrong, not the input."""


@dataclass(frozen=True)
class LinearSeries:
    """Finite-dimensional space of forms of one degree (a single form is
    the one-dimensional case)."""

    forms: tuple[Polynomial, ...]
    degree: int

    def __post_init__(self) -> None:
        if not self.forms:
            raise ZeroSeriesError("a linear series needs at least one form")
        ctx = self.forms[0].context
        saw_nonzero = False
        for f in self.forms:
            if isinstance(f, DualForm) or not isinstance(f, Polynomial):
                raise ContextMismatchError("series members must be primal polynomials")
            if f.context != ctx:
                raise ContextMismatchError("series members live in different contexts")
            if f.is_zero:
                continue
            saw_nonzero = True
            if not f.is_homogeneous() or f.homogeneous_degree() != self.degree:
                raise ValueError(
                    f"series member {f} is not homogeneous of degree {self.degree}"
                )
        if not saw_nonzero:
            raise ZeroSeriesError("all series members are zero")
        if not len(ctx):
            raise NoVariablesError("a linear series needs at least one variable")

    @classmethod
    def of_forms(cls, forms) -> "LinearSeries":
        forms = tuple(forms)
        degree = next((f.homogeneous_degree() for f in forms if not f.is_zero), None)
        if degree is None:
            raise ZeroSeriesError("all series members are zero")
        return cls(forms, degree)

    @classmethod
    def of_form(cls, f: Polynomial) -> "LinearSeries":
        return cls.of_forms((f,))

    @property
    def context(self) -> VarContext:
        return self.forms[0].context

    @cached_property
    def reduced_basis(self) -> tuple[Polynomial, ...]:
        """Greedy independent subset of the forms spanning the same space."""
        span = SpanBuilder()
        basis = []
        for f in self.forms:
            if not f.is_zero and span.add(f.terms):
                basis.append(f)
        return tuple(basis)

    @property
    def dim(self) -> int:
        return len(self.reduced_basis)

    @cached_property
    def _layers(self) -> tuple[SpanBuilder, ...]:
        """Derivative layers A_0, ..., A_d indexed by degree: A_d spans
        the series, A_{t-1} the first partials of the rows of A_t."""
        top = SpanBuilder()
        for f in self.reduced_basis:
            top.add(f.terms)
        n = len(self.context)
        layers = [top]
        for _ in range(self.degree):
            below = SpanBuilder()
            for row in layers[-1].rows():
                for dv in _partials(row, n):
                    below.add(dv)
            layers.append(below)
        return tuple(reversed(layers))


def _partial(row, i: int) -> dict:
    """d/dx_i of a sparse row ``{exponents: coeff}``.

    ``m -> m - e_i`` is injective, so no two terms meet and none
    cancels."""
    out = {}
    for m, c in row.items():
        e = m[i]
        if e:
            out[m[:i] + (e - 1,) + m[i + 1 :]] = c * e
    return out


def _partials(row, n: int):
    """The nonzero first partials of a sparse row."""
    for i in range(n):
        out = _partial(row, i)
        if out:
            yield out


def differentiate_series(W: LinearSeries, theta: DualForm) -> LinearSeries | None:
    """The series of derivatives theta(F) for F in W; None if it is zero.

    Derivative bounds do not build it (:func:`derivative_kernel_dims`
    reads them off the layers of W); it stays for callers who want the
    series itself, and as a second route in the tests."""
    if not isinstance(theta, DualForm):
        raise ContextMismatchError("differentiation direction must be a DualForm")
    images = [apply_operator(theta, f) for f in W.reduced_basis]
    nonzero = [g for g in images if not g.is_zero]
    if not nonzero:
        return None
    return LinearSeries.of_forms(nonzero)


@dataclass(frozen=True)
class HilbertFunction:
    """Graded dimensions of an apolar algebra, indexed t = 0..d."""

    dims: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.dims)

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def __getitem__(self, t: int) -> int:
        return self.dims[t]

    def __iter__(self):
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)


def catalecticant_matrix(W: LinearSeries, t: int) -> QMatrix:
    """Matrix of the degree-t pairing against a reduced basis of W.

    Columns are indexed by degree-t dual monomials in graded-lex order;
    the rows stack, for each basis form, the coefficient vector of the
    image in degree d-t.  Its kernel is the degree-t annihilator piece
    and its rank the degree-t Hilbert function value.  Those are
    computed from the derivative layers instead (see the module
    docstring), which is far smaller: this matrix has
    ``dim W * dim S_{d-t}`` rows and ``dim S_t`` columns.
    """
    d = W.degree
    if t < 0 or t > d:
        raise DegreeRangeError(f"degree {t} outside 0..{d}")
    ctx = W.context
    cols = monomial_basis(ctx, t)
    out_monos = monomial_basis(ctx, d - t)
    out_index = {m: i for i, m in enumerate(out_monos)}
    basis = W.reduced_basis
    nrows = len(basis) * len(out_monos)
    data: list[list[Rational]] = [[Fraction(0)] * len(cols) for _ in range(nrows)]
    # a column touches only the variables it differentiates, so the
    # per-entry work is O(t), not O(n)
    supports = [[(i, b) for i, b in enumerate(e) if b] for e in cols]
    for bi, f in enumerate(basis):
        base = bi * len(out_monos)
        for mf, c in f.terms.items():
            for ci, support in enumerate(supports):
                factor = 1
                for i, b in support:
                    if mf[i] < b:
                        factor = 0
                        break
                    factor *= math.perm(mf[i], b)
                if not factor:
                    continue
                target = list(mf)
                for i, b in support:
                    target[i] -= b
                data[base + out_index[tuple(target)]][ci] += c * factor
    return QMatrix.from_rows(data) if nrows else QMatrix(0, len(cols), ())


def hilbert_function(W: LinearSeries) -> HilbertFunction:
    """dims[t] = dim A_t, the degree-t derivative layer, t = 0..d (equal
    to the rank of the degree-t catalecticant)."""
    dims = tuple(layer.dim for layer in W._layers)
    n = len(W.context)
    d = W.degree
    k = W.dim
    if dims[0] != 1:
        raise InvariantError(f"Hilbert function starts with {dims[0]}, not 1")
    if dims[d] != k:
        raise InvariantError(f"top layer has dimension {dims[d]}, not dim W = {k}")
    for t in range(d + 1):
        cap = min(math.comb(n + t - 1, t), k * math.comb(n + d - t - 1, d - t))
        if dims[t] > cap:
            raise InvariantError(f"Hilbert function value {dims[t]} at t={t} exceeds {cap}")
        if t and dims[t - 1] > n * dims[t]:
            raise InvariantError(
                f"layer {t - 1} has dimension {dims[t - 1]}, more than the "
                f"{n} * {dims[t]} partials of layer {t}"
            )
    return HilbertFunction(dims)


def apolar_length(W: LinearSeries) -> int:
    """Total dimension of the apolar algebra (= dimension of the span of
    all derivatives of all orders of the series)."""
    return hilbert_function(W).total


def derivative_kernel_dims(W: LinearSeries, partial: DualForm) -> list[int]:
    """``dim ker(D|A_t)`` for t = 0..d, for a nonzero linear dual form D.

    The (d-1-t)-th partials of DF are D applied to the (d-1-t)-th
    partials of F, so the degree-t layer of the derivative series DW is
    ``D(A_{t+1})``, and ``len A_W - len A_DW`` is the sum of this list.
    Scaling D leaves its kernels alone, so its denominators are cleared
    once and every image is an integer row.  A_0 (the constants) is
    killed whole.  For t >= 1 the rank of D on A_t needs no elimination
    when A_t is all of R_t (h(t) = C(n+t-1, t)): D maps R_t onto R_{t-1},
    so the rank is C(n+t-2, t-1).  Otherwise the images of the stored
    rows of A_t go into one span, and adding stops once its dimension
    reaches h(t-1), since ``D(A_t)`` lies in A_{t-1}.
    """
    if not isinstance(partial, DualForm) or partial.context != W.context:
        raise ContextMismatchError("expected a DualForm over the series context")
    if not partial.is_linear_form():
        raise ValueError("derivative direction must be a nonzero linear dual form")
    n = len(W.context)
    dims = hilbert_function(W).dims
    scale = math.lcm(*(c.denominator for c in partial.terms.values()))
    coeffs = [
        (m.index(1), c.numerator * (scale // c.denominator))
        for m, c in partial.terms.items()
    ]
    out = [dims[0]]
    for t in range(1, len(dims)):
        h = dims[t]
        if h == math.comb(n + t - 1, t):
            out.append(h - math.comb(n + t - 2, t - 1))
            continue
        images = SpanBuilder()
        for row in W._layers[t].rows():
            image: dict = {}
            for i, c in coeffs:
                for k, v in _partial(row, i).items():
                    image[k] = image.get(k, 0) + c * v
            images.add(image)
            if images.dim == dims[t - 1]:
                break
        out.append(h - images.dim)
    return out


def _weight(m: Monomial) -> int:
    """alpha!, the pairing <d^alpha, x^alpha>."""
    w = 1
    for e in m:
        if e > 1:
            w *= math.factorial(e)
    return w


def _annihilator(W: LinearSeries, t: int) -> Iterator[dict[Monomial, Fraction]]:
    """Degree-t annihilator piece (t <= d) as the orthogonal complement
    of the layer A_t, sparse, in the reduced-echelon basis of the dense
    catalecticant kernel: monomial keys compare like negated column
    indices, so pivots are the first nonzero columns."""
    span = SpanBuilder()
    for g in W._layers[t].rows():
        span.add({m: _weight(m) * c for m, c in g.items()})
    return span.kernel(monomial_basis(W.context, t))


def apolar_ideal_component(W: LinearSeries, t: int) -> list[DualForm]:
    """Basis of the degree-t piece of the annihilator of W.

    Below the top degree this is the reduced-echelon basis of the
    orthogonal complement of the layer A_t (the kernel basis of the
    degree-t catalecticant).  For t above the series degree the piece is
    the full dual space, so the monomial basis itself is returned.
    """
    if t < 0:
        raise DegreeRangeError("degree must be non-negative")
    ctx = W.context
    if t > W.degree:
        return [DualForm(ctx, {m: Fraction(1)}) for m in monomial_basis(ctx, t)]
    return [DualForm(ctx, v) for v in _annihilator(W, t)]


def _shift(terms: dict[Monomial, Rational], pos: int) -> dict[Monomial, Rational]:
    """Multiply a dual vector by the pos-th dual variable."""
    return {
        m[:pos] + (m[pos] + 1,) + m[pos + 1 :]: c for m, c in terms.items()
    }


@dataclass(frozen=True)
class GeneratorDegrees:
    """Number of minimal annihilator generators per degree, and the top
    degree delta that still needs one."""

    counts: dict[int, int]
    delta: int


def minimal_generator_degrees(W: LinearSeries) -> GeneratorDegrees:
    """Count minimal generators of the annihilator ideal I in each degree.

    For t = 1..d+1 (with h(d+1) = 0) the count is ``dim P_t - h(t)``,
    where P_t is the prolongation of the layer A_{t-1}:

        P_t = (S_1 * I_{t-1})^perp = {g in R_t : d_i g in A_{t-1} for all i}.

    The new generators in degree t are I_t modulo S_1 * I_{t-1}, and in
    S_t these are the orthogonal complements of A_t and of P_t (as
    ``<x_i psi, g> = <psi, d_i g>``).  The gradient maps
    P_t one to one (t >= 1, characteristic 0) onto the tuples
    (u_1..u_n) in A_{t-1}^n with ``d_k u_i = d_i u_k`` for all i < k: a
    closed homogeneous 1-form is exact (Poincare), and by Euler
    ``g = (1/t) * sum x_i u_i`` has gradient (u_i).  So dim P_t is the
    kernel dimension of ``(u_i) -> (d_k u_i - d_i u_k)_{i<k}`` on
    A_{t-1}^n: the ``n * h(t-1)`` unknowns (one per variable and stored,
    independent row of A_{t-1}) minus the rank of their images.  P_t
    contains A_t, so ``dim P_t >= h(t)`` for every correct layer.  When
    A_{t-1} is all of R_{t-1} (always at t = 1, and in low degrees of
    dense input) P_t is all of R_t, and nothing is eliminated.
    """
    n = len(W.context)
    layers = W._layers
    counts: dict[int, int] = {}
    for t in range(1, W.degree + 2):
        below = layers[t - 1]
        h = layers[t].dim if t <= W.degree else 0
        if below.dim == math.comb(n + t - 2, t - 1):
            p_dim = math.comb(n + t - 1, t)
        else:
            images = SpanBuilder()
            for row in below.rows():
                grad = [_partial(row, k) for k in range(n)]
                for i in range(n):
                    images.add({
                        ((i, k) if i < k else (k, i), m): c if i < k else -c
                        for k, dk in enumerate(grad)
                        if k != i
                        for m, c in dk.items()
                    })
            p_dim = n * below.dim - images.dim
        if p_dim < h:
            raise InvariantError(
                f"the degree-{t} prolongation of layer {t - 1} has dimension "
                f"{p_dim}, less than the {h} of layer {t} inside it"
            )
        if p_dim > h:
            counts[t] = p_dim - h
    return GeneratorDegrees(counts, max(counts))


def minimal_generators(
    W: LinearSeries, max_degree: int | None = None
) -> dict[int, list[DualForm]]:
    """Explicit minimal generators (a deterministic choice) per degree."""
    ctx = W.context
    n = len(ctx)
    d = W.degree
    upto = max_degree if max_degree is not None else d + 1
    out: dict[int, list[DualForm]] = {}
    prev: list[DualForm] = []
    for t in range(1, upto + 1):
        if t <= d:
            candidates = apolar_ideal_component(W, t)
        else:
            candidates = [
                DualForm(ctx, {m: Fraction(1)}) for m in monomial_basis(ctx, t)
            ]
        span = SpanBuilder()
        for psi in prev:
            for i in range(n):
                span.add(_shift(psi.terms, i))
        gens = [c for c in candidates if span.add(c.terms)]
        if gens:
            out[t] = gens
        prev = candidates
    return out


def colon_component(W: LinearSeries, theta: DualForm, t: int) -> list[DualForm]:
    """Degree-t piece of the colon of the annihilator by theta.

    Computed directly as the dual forms psi of degree t whose product
    with theta annihilates W, i.e. is orthogonal to the layer A_{t+e}:
    one row ``beta -> <theta * d^beta, g>`` per row g of A_{t+e}.  No
    derivative series is formed and its annihilator is not used, so
    this can be compared against it as an independent identity check.
    Returned as the reduced-echelon basis of the piece.
    """
    if not isinstance(theta, DualForm) or theta.context != W.context:
        raise ContextMismatchError("colon divisor must be a DualForm over the same context")
    if theta.is_zero:
        raise ValueError("colon divisor must be nonzero")
    if not theta.is_homogeneous():
        raise ValueError("colon divisor must be homogeneous")
    if t < 0:
        raise DegreeRangeError("degree must be non-negative")
    ctx = W.context
    e = theta.homogeneous_degree()
    monos_t = monomial_basis(ctx, t)
    if t + e > W.degree:
        return [DualForm(ctx, {m: Fraction(1)}) for m in monos_t]
    pairing = SpanBuilder()
    for g in W._layers[t + e].rows():
        # <theta * d^beta, g> = sum over gamma of theta_gamma (beta+gamma)! g_(beta+gamma)
        row: dict[Monomial, Rational] = {}
        for mu, c in g.items():
            wc = _weight(mu) * c
            for gamma, ce in theta.terms.items():
                beta = tuple(a - b for a, b in zip(mu, gamma))
                if all(x >= 0 for x in beta):
                    row[beta] = row.get(beta, 0) + ce * wc
        pairing.add(row)
    colon = SpanBuilder()
    for v in pairing.kernel(monos_t):
        colon.add(v)
    return [
        DualForm(ctx, dict(sorted(row.items(), reverse=True)))
        for row in colon.reduced_rows()
    ]


def quotient_length_with_linear(W: LinearSeries, partial: DualForm) -> int:
    """Length of the dual ring modulo (annihilator of W) + (one linear dual form).

    Summed degree by degree from explicit spans of the annihilator piece
    (the orthogonal complement of the layer A_t) and the multiples of
    the linear form; degrees above d contribute nothing because the
    annihilator piece is everything there.  No derivative series is
    formed, so the value can be checked against the difference of
    apolar lengths.
    """
    if not isinstance(partial, DualForm) or partial.context != W.context:
        raise ContextMismatchError("expected a DualForm over the series context")
    if not partial.is_linear_form():
        raise ValueError("quotient direction must be a nonzero linear dual form")
    ctx = W.context
    n = len(ctx)
    total = 0
    for t in range(W.degree + 1):
        full = math.comb(n + t - 1, t)
        span = SpanBuilder()
        if t >= 1:
            for psi in _annihilator(W, t):
                span.add(psi)
            for m in monomial_basis(ctx, t - 1):
                span.add(
                    {
                        tuple(a + b for a, b in zip(m, me)): ce
                        for me, ce in partial.terms.items()
                    }
                )
        total += full - span.dim
    return total


def diff_closure_dim(f: Polynomial) -> int:
    """Dimension of the span of all iterated partials of f (f included).

    Works for non-homogeneous input; saturates breadth-first on integer
    rows (f with its denominators cleared), which must stop because each
    step drops degree.
    """
    if f.is_zero:
        raise ValueError("the derivative closure of zero is not defined")
    scale = math.lcm(*(c.denominator for c in f.terms.values()))
    top = {m: c.numerator * (scale // c.denominator) for m, c in f.terms.items()}
    span = SpanBuilder()
    span.add(top)
    frontier = [top]
    n = len(f.context)
    while frontier:
        fresh = []
        for g in frontier:
            for h in _partials(g, n):
                if span.add(h):
                    fresh.append(h)
        frontier = fresh
    return span.dim
