"""Apolar algebras of forms and linear series, from derivative layers.

For a series W of degree-d forms in n variables the derivative layers are

    A_d = span(W),    A_{t-1} = span{ d/dx_i v : v in A_t, i = 1..n },

so A_t is the span of all (d-t)-th partial derivatives of W (the
degree-t piece of its Macaulay inverse system, Diff(W)).  One closure
(:func:`_closure`) builds them all: a single span takes the series and
the first partials of every row that enlarged it, each derivative
d^beta of a series form once, and none that equals a row just kept up
to a factor.  The integer rows kept, grouped by derivative order, are
bases of the layers.  A layer that is all of the degree-t forms R_t is
not built: it says nothing beyond its dimension ``C(n+t-1, t)``, and
every layer below it is all of R_t too, since each partial maps R_t
onto R_{t-1}.  The closure ends at the first such
order, and those layers are held as None.  Each row is keyed by packed
monomials (:class:`_Keys`): one ``int`` per exponent vector, whose
order is the tuple order, so pivots and bases are those of tuple keys
while hashing and comparing a key costs a few machine words, not n
entries, and all first partials of a row come from one walk over its
keys, a step per variable each key holds (:meth:`_Keys.gradient`).
Everything is read off the layers:

* the Hilbert function is ``dims[t] = dim A_t``, which is the rank of
  the degree-t catalecticant (its transpose has image A_t), for series
  as well as single forms, and the apolar length is their sum;
* annihilator, colon and quotient pieces come from one pairing,
  ``<d^beta, x^alpha> = alpha! * delta(alpha, beta)``: a homogeneous
  dual form theta of degree e and the layer A_s give one row
  ``beta -> <theta * d^beta, g>`` per row g of A_s
  (:func:`_colon`).  The kernel of these rows over the degree-(s-e)
  monomials is the degree-(s-e) piece of the colon ``I : theta``; at
  theta = 1 it is the annihilator piece I_s, the orthogonal complement
  of A_s.  Above the series degree the layer is zero, so the kernel is
  every monomial; where A_s is all of R_s the kernel is zero.  These
  rows and kernels are keyed by exponent tuples (the layer rows are
  unpacked as they are read);
* minimal generator counts come from two adjacent layers: degree t has
  ``dim P_t - h(t)`` new generators, where the prolongation
  ``P_t = {g : d_i g in A_{t-1} for all i}`` is the kernel of a map on
  ``n * h(t-1)`` unknowns (see :func:`minimal_generator_degrees`).  The
  explicit generators (:func:`minimal_generators`) follow that count:
  only the degrees it lists are built;
* derivative bounds come from the same layers, without building the
  derivative series, and for a single form from one rank per pair of
  degrees {t, d+1-t}, its algebra being Gorenstein (see
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
from functools import cached_property, reduce
from itertools import compress
from operator import neg, or_

from .linalg import (
    PRIME,
    SLOT_BITS,
    ModularRank,
    QMatrix,
    Rational,
    SpanBuilder,
    clear_denominators,
    pack,
    packs_densely,
)
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


class _Keys:
    """Exponent vectors of n variables packed into one ``int`` each, with
    ``width = bit_length(top)`` bits per variable and variable 0 in the
    top bits, for exponents up to ``top``.  Int order is then exactly the
    tuple order, so the pivots of a span of packed rows are those of the
    same rows keyed by tuples.  Every row built from the layers keeps its
    exponents within those of the series (derivatives lower them), so
    one width serves all of them.  :meth:`gradient` is the one place a
    packed row is differentiated."""

    def __init__(self, n: int, top: int) -> None:
        self.n = n
        self.width = max(top.bit_length(), 1)
        self.mask = (1 << self.width) - 1
        self.shifts = [self.width * (n - 1 - i) for i in range(n)]

    def pack(self, m: Monomial) -> int:
        shifts, mask = self.shifts, self.mask
        key = 0
        # only the nonzero exponents are checked and shifted in: a wide
        # context costs one C-level scan per monomial
        for i in compress(range(self.n), m):
            if m[i] > mask:
                raise InvariantError(
                    f"exponent {m[i]} does not fit in a {self.width}-bit key field"
                )
            key |= m[i] << shifts[i]
        return key

    def pack_row(self, terms: dict) -> dict:
        """``terms`` with denominators cleared, keyed by packed exponents."""
        return {self.pack(m): c for m, c in clear_denominators(terms).items()}

    def unpack(self, key: int) -> Monomial:
        mask = self.mask
        return tuple((key >> s) & mask for s in self.shifts)

    def variables(self, row: dict) -> list[int]:
        """The variables that occur in ``row``, ascending: the set fields
        of the bitwise or of its keys."""
        n, width, shifts = self.n, self.width, self.shifts
        rest = reduce(or_, row, 0)
        out = []
        while rest:
            i = n - 1 - (rest.bit_length() - 1) // width
            out.append(i)
            rest &= (1 << shifts[i]) - 1
        return out

    def gradient(self, row: dict, wanted: list[int] | None = None) -> list[tuple[int, dict]]:
        """``(i, d/dx_i row)`` for the variables i that occur in ``row``
        (:meth:`variables`), or for those in ``wanted`` (ascending, each
        occurring in ``row``): the partials that are not zero.  Each key
        is masked to their fields, as d_i reads field i alone, and the
        fields left are walked once, from the top; each partial is built
        in the row's term order, entries as in
        :func:`poly.partial_terms`."""
        n, width, shifts = self.n, self.width, self.shifts
        select = 0
        parts: dict[int, dict] = {}
        for i in self.variables(row) if wanted is None else wanted:
            select |= self.mask << shifts[i]
            parts[i] = {}
        for m, c in row.items():
            rest = m & select
            while rest:
                i = n - 1 - (rest.bit_length() - 1) // width
                one = 1 << shifts[i]
                # the fields above i are cleared, so this shift is e_i
                parts[i][m - one] = c * (rest >> shifts[i])
                rest &= one - 1
        return list(parts.items())


class _Gradients:
    """The first partials of the rows of one derivative layer: the one
    input :func:`_image_rank` reads of the layer, for the generator
    count and for every derivative kernel.  Each image sums some of a
    row's partials, each placed in a block, as the plan of one unknown
    says.  The monomials the partials contain are numbered once, in key
    order, as ``width`` columns: ``rows[r]`` is the
    :meth:`_Keys.gradient` of row r, ``(i, {column: coefficient})`` for
    the variables i it contains (the other partials are zero),
    :attr:`entries` their number of entries, and :attr:`packed` the same
    partials packed for :class:`linalg.ModularRank`, one slot per
    column."""

    def __init__(self, layer: list[dict], keys: _Keys) -> None:
        rows = [keys.gradient(row) for row in layer]
        columns = sorted({m for grad in rows for _, dk in grad for m in dk})
        self.width = len(columns)
        column = dict(zip(columns, range(self.width)))
        self.rows = [
            [(i, {column[m]: c for m, c in dk.items()}) for i, dk in grad] for grad in rows
        ]
        self.entries = sum(len(dk) for grad in rows for _, dk in grad)

    @cached_property
    def packed(self) -> list[list[tuple[int, int]]]:
        """Made only where the partials are dense (a dense count needs
        dense partials too), so it holds at most eight 96-bit slots per
        nonzero entry."""
        return [[(i, pack(dk.items(), self.width)) for i, dk in grad] for grad in self.rows]


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
    def _keys(self) -> _Keys:
        """Packed keys wide enough for every exponent of the series."""
        top = max(max(m, default=0) for f in self.reduced_basis for m in f.terms)
        return _Keys(len(self.context), top)

    @cached_property
    def _layers(self) -> tuple[list[dict] | None, ...]:
        """Derivative layers A_0, ..., A_d indexed by degree: None where
        A_t is all of R_t, otherwise a basis of independent integer rows
        keyed by :attr:`_keys`.  The rows are the groups of
        :func:`_closure` started from the packed series, reversed, with
        order k capped at ``dim R_{d-k}`` rows; the closure ends at the
        first order that reaches its cap, and that layer and every one
        below it are None (A_0, the constants, always is)."""
        keys = self._keys
        n, d = len(self.context), self.degree
        tops = [keys.pack_row(f.terms) for f in self.reduced_basis]
        caps = tuple(math.comb(n + d - k - 1, d - k) for k in range(d + 1))
        groups = list(_closure(tops, keys, caps))
        return (None,) * (d + 1 - len(groups)) + tuple(reversed(groups))

    @cached_property
    def _gradients(self) -> tuple[_Gradients | None, ...]:
        """The :class:`_Gradients` of each layer A_t, made once per series
        and shared by the generator count and every derivative trial;
        None where the layer is None (A_t is all of R_t), whose ranks
        need no elimination.  Both callers read this before any
        elimination: partials made between the spans of two degrees
        would pin memory those spans free (11 MB more peak RSS on
        pf:5)."""
        keys = self._keys
        return tuple(
            None if layer is None else _Gradients(layer, keys) for layer in self._layers
        )

    @cached_property
    def _hilbert(self) -> tuple[int, ...]:
        """The Hilbert function, made and checked once per series: see
        :func:`hilbert_function`."""
        n = len(self.context)
        d = self.degree
        k = self.dim
        dims = tuple(
            math.comb(n + t - 1, t) if layer is None else len(layer)
            for t, layer in enumerate(self._layers)
        )
        if dims[0] != 1:
            raise InvariantError(f"Hilbert function starts with {dims[0]}, not 1")
        if dims[d] != k:
            raise InvariantError(f"top layer has dimension {dims[d]}, not dim W = {k}")
        for t in range(d + 1):
            cap = layer_bound(n, d, k, t)
            if dims[t] > cap:
                raise InvariantError(f"Hilbert function value {dims[t]} at t={t} exceeds {cap}")
            if t and dims[t - 1] > n * dims[t]:
                raise InvariantError(
                    f"layer {t - 1} has dimension {dims[t - 1]}, more than the "
                    f"{n} * {dims[t]} partials of layer {t}"
                )
        if k == 1 and dims != dims[::-1]:
            t = next(t for t in range(d + 1) if dims[t] != dims[d - t])
            raise InvariantError(
                f"h({t}) = {dims[t]} but h({d - t}) = {dims[d - t]}: the Hilbert "
                "function of a single form is symmetric"
            )
        return dims

    @cached_property
    def _generator_degrees(self) -> GeneratorDegrees:
        return _count_generators(self)


def _closure(
    tops: list[dict], keys: _Keys, caps: tuple[int, ...] = ()
) -> Iterator[list[dict]]:
    """Independent integer rows spanning the derivative closure of
    ``tops`` (rows keyed by ``keys``), yielded one derivative order at a
    time: the group of order k is yielded before the partials of its
    rows are taken, and the loop then holds no earlier group, so a
    caller that only counts rows holds one order at once.

    Each row kept is ``d^beta tops[j]`` for a multiset beta of variables,
    held as ``(j, packed beta)``.  The first partials of a row that
    enlarges the one span are taken, and each ``(j, beta)`` of the next
    order is added to the span once, because ``d^beta tops[j]`` does not
    depend on the order of differentiation, so a second path to it gives
    the same vector, already in the span; only the partials whose
    ``(j, beta)`` is new are built (:func:`_derivatives`).  beta stays
    within the exponents of ``tops[j]``, so it fits the same key fields.
    The loop ends, as each order drops degree.  A homogeneous row is
    eliminated only by rows of its own degree (its pivot fixes it), so
    for forms of degree d group k is a basis of A_{d-k}.

    Distinct betas still give equal derivatives up to a factor: a minor
    of det:n is reached by every matching of its rows and columns.  So a
    candidate, its gcd divided out, is first compared with the row kept
    at its pivot (its largest key; the first row kept there in this
    order), by ``dict`` equality in C, negated first where the two
    pivot entries differ in sign (a negation held only for the
    comparison: storing one per kept row added 8 MB to the 186 MB peak
    of ``hilbert builtin:det:8``).  One equal to that row lies in the
    span and is dropped before :meth:`SpanBuilder.add`, which would
    reject it, so the rows kept, their order and the caps stay those of
    adding every candidate.  On det:6 dehomogenized at x[6,6] that
    leaves 947 adds for 922 rows, against the 5123 of adding every
    candidate.

    ``caps[k]``, when given, is the dimension of the forms of the degree
    of order k (homogeneous ``tops`` only).  An order that keeps that
    many rows spans all of them, and so does every later order, since
    each partial maps the forms of one degree onto those of the next
    degree down.  The loop then ends, that order not yielded: the groups
    it yields are the first groups of the uncapped loop, in the same
    rows, order and entries.

    Each row is kept divided by the gcd of its entries.  That changes no
    span, but without it the entries grow with each order: d^beta x^d
    carries d!/(d-|beta|)!, and the layers of ``x^100000`` would hold
    about d^2 log d bits."""
    cap_of = dict(enumerate(caps)).get
    span = SpanBuilder()
    group = [(_primitive(row), (j, 0)) for j, row in enumerate(tops) if span.add(row)]
    order = 0
    while group and len(group) != cap_of(order):
        yield [row for row, _ in group]
        order += 1
        cap = cap_of(order)
        nxt = []
        kept: dict[int, dict] = {}  # pivot -> the first row kept there
        for dv, key in _derivatives(group, keys):
            row = _primitive(dv)
            p = max(row)
            first = kept.get(p)
            if first is not None:
                # a multiple of a row kept lies in the span
                if (row[p] > 0) != (first[p] > 0):
                    if dict(zip(row, map(neg, row.values()))) == first:
                        continue
                elif row == first:
                    continue
            if span.add(dv):
                nxt.append((row, key))
                kept.setdefault(p, row)
                if len(nxt) == cap:
                    break
        group = nxt


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return row if g == 1 else {m: c // g for m, c in row.items()}


def _derivatives(group: list, keys: _Keys):
    """The first partials ``(d_i row, (j, beta + e_i))`` of the rows of
    one closure group, each ``(j, beta + e_i)`` once.  The variables of
    a row whose ``(j, beta + e_i)`` is not yet tried are marked tried,
    and one :meth:`_Keys.gradient` builds their partials only: a
    partial reached again by another path is not made.  A variable
    absent from the row is not marked, but every path to its
    ``(j, beta + e_i)`` gives the same zero partial."""
    tried: dict[int, set] = {}  # j -> the packed beta + e_i tried
    units = [1 << s for s in keys.shifts]
    for row, (j, beta) in group:
        seen = tried.setdefault(j, set())
        wanted = []
        for i in keys.variables(row):
            if beta + units[i] not in seen:
                seen.add(beta + units[i])
                wanted.append(i)
        if wanted:
            for i, dv in keys.gradient(row, wanted):
                yield dv, (j, beta + units[i])


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
    out_index = {m: i for i, m in enumerate(monomial_basis(ctx, d - t))}
    basis = W.reduced_basis
    data: list[list[Rational]] = [
        [Fraction(0)] * len(cols) for _ in range(len(basis) * len(out_index))
    ]
    for bi, f in enumerate(basis):
        base = bi * len(out_index)
        for ci, beta in enumerate(cols):
            for m, c in apply_operator(DualForm(ctx, {beta: 1}), f).terms.items():
                data[base + out_index[m]][ci] = c
    return QMatrix.from_rows(data)


def layer_bound(n: int, d: int, k: int, t: int) -> int:
    """A-priori bound on h(t) for k forms of degree d in n variables: A_t
    lies in the degree-t forms and is spanned by the (d-t)-th partials
    of the k forms."""
    return min(math.comb(n + t - 1, t), k * math.comb(n + d - t - 1, d - t))


def length_bound(n: int, d: int, k: int) -> int:
    """A-priori bound on the apolar length, the sum of
    :func:`layer_bound` over t = 0..d, in closed form.  The first term
    of the minimum grows with t and the second shrinks, so the minimum
    is the second from the first t* where it is at most the first (d+1
    if none; found by bisection) and the first before it.  By the
    hockey-stick identity ``sum_{s<m} C(n+s-1, s) = C(n+m-1, n)`` the
    sum is ``C(n+t*-1, n) + k * C(n+d-t*, n)``: O(log d) binomials, not
    d + 1."""
    lo, hi = 0, d + 1
    while lo < hi:
        t = (lo + hi) // 2
        if math.comb(n + t - 1, t) >= k * math.comb(n + d - t - 1, d - t):
            hi = t
        else:
            lo = t + 1
    return math.comb(n + lo - 1, n) + k * math.comb(n + d - lo, n)


def hilbert_function(W: LinearSeries) -> tuple[int, ...]:
    """dims[t] = dim A_t, the degree-t derivative layer, t = 0..d (equal
    to the rank of the degree-t catalecticant): ``C(n+t-1, t)`` where
    the layer is all of R_t (None), its number of rows otherwise.

    The checks hold for every input.  For a single form they include
    the Gorenstein symmetry ``h(t) = h(d-t)``, which sets the rows kept
    in the top degrees against the dimensions of the full layers below
    them, which are not built.  The tuple is made and checked once per
    series (``W._hilbert``)."""
    return W._hilbert


def apolar_length(W: LinearSeries) -> int:
    """Total dimension of the apolar algebra (= dimension of the span of
    all derivatives of all orders of the series)."""
    return sum(hilbert_function(W))


def derivative_kernel_dims(W: LinearSeries, partial: DualForm) -> list[int]:
    """``dim ker(D|A_t)`` for t = 0..d, for a nonzero linear dual form D.

    The (d-1-t)-th partials of DF are D applied to the (d-1-t)-th
    partials of F, so the degree-t layer of the derivative series DW is
    ``D(A_{t+1})``, and

        len A_W - len A_DW = sum_t dim ker(D|A_t),

    the sum of this list, with no derivative series built.
    Scaling D leaves its kernels alone, so its denominators are cleared
    once and the images ``sum_i D_i * d_i row`` of the rows of A_t are
    integer rows: :func:`_image_rank` with one unknown, whose plan
    ``{i: (D_i, block 0)}`` sums the partials by the v variables of D in
    one block.  Summed partials overlap, so each weighs 1/v in the
    density test and the block counts as filled by their average (their
    sum would send the sparse kernels of the families to the modular
    route, packed at many slots per nonzero entry).  A_0 (the constants)
    is killed whole.  For t >= 1 the rank of D on A_t is at most
    ``r_t = min(h(t), h(t-1))``, since ``D(A_t)`` lies in A_{t-1}, and
    adding images stops once it is reached.  Where A_t is all of R_t
    (``W._gradients[t]`` is None) the rank is r_t with no elimination:
    D maps R_t onto R_{t-1}, which is A_{t-1}.  On the bench's
    ``random_series`` workload at seed 1 the modular rank reaches r_t in
    all 150 of its kernels (210 when single forms are not mirrored).

    For a single form F (``W.dim == 1``) the apolar algebra is
    Gorenstein with socle degree d (Iarrobino and Kanev, LNM 1721), so
    ``rank(D|A_t) = rank(D|A_{d+1-t})``: each pair {t, d+1-t} is ranked
    once, and that rank serves both.  Where either layer is all of its
    R_t, both ranks are r_t = r_{d+1-t} (h is symmetric) with no
    elimination; otherwise the side whose partials hold fewer entries is
    ranked.  A series of two or more forms has no such duality, and each
    of its degrees is ranked on its own.
    """
    if not isinstance(partial, DualForm) or partial.context != W.context:
        raise ContextMismatchError("expected a DualForm over the series context")
    if not partial.is_linear_form():
        raise ValueError("derivative direction must be a nonzero linear dual form")
    dims = hilbert_function(W)
    d = W.degree
    grads = W._gradients
    plan = {m.index(1): (c, 0) for m, c in clear_denominators(partial.terms).items()}
    weight = dict.fromkeys(plan, 1 / len(plan))
    ranks = {}
    for t in range(1, d + 1):
        if t in ranks:
            continue
        # a single form's side of t; a series is never mirrored
        s = d + 1 - t if W.dim == 1 else t
        rank = min(dims[t], dims[t - 1])
        if grads[t] is not None and grads[s] is not None:
            side = min((t, s), key=lambda u: grads[u].entries)
            rank = _image_rank(grads[side], lambda u: plan, 1, 1, weight, rank, True)
        ranks[t] = ranks[s] = rank
    return [dims[0]] + [dims[t] - ranks[t] for t in range(1, d + 1)]


def _image_rank(
    grads: _Gradients, plan_of, unknowns: int, blocks: int, weight: dict, bound: int, stop: bool
) -> int:
    """The rank of the images of the unknowns ``u = 0 .. unknowns-1`` of
    each row of a layer A_s whose partials are ``grads`` (A_s must not
    be all of R_s), for a rank known to be at most ``bound``.

    ``plan_of(u)``, made when unknown u is reached, maps a variable k to
    ``(c, b)``, an integer and a block in ``range(blocks)``.  For each
    unknown in turn, and each row of A_s, the image is
    ``sum_k c * d_k row`` with ``d_k row`` placed in block b.  Column j
    of block b is the number ``b * width + j``, both the exact key of an
    image entry and its slot in a packed image, so keys sort block-major
    and then in monomial order, as ``(b, m)`` tuples would.  With
    ``stop``, adding ends once the rank reaches ``bound``.

    The images count as ``weight[k]`` times the entries of each partial
    ``d_k row`` (a variable absent from ``weight`` counts nothing).
    When that fills one slot in eight (:func:`linalg.packs_densely`, one
    slot per column in each block), their rank mod PRIME is taken first,
    and if it equals ``bound`` that is the rank: a modular rank never
    exceeds the rational one.  Without ``stop`` every image goes in, so
    a modular rank above the bound (a wrong layer) does not equal it,
    and the exact span then reports the true rank.  Otherwise, and for
    sparse images, one exact span decides."""
    width = grads.width
    nonzeros = sum(weight.get(k, 0) * len(dk) for grad in grads.rows for k, dk in grad)
    if packs_densely(nonzeros, unknowns * len(grads.rows), blocks * width):
        modular = ModularRank(blocks * width)
        for plan in map(plan_of, range(unknowns)):
            for grad in grads.packed:
                image = 0
                for k, pk in grad:
                    if k in plan:
                        c, b = plan[k]
                        image += c % PRIME * pk << SLOT_BITS * width * b
                if modular.add(image) and stop and modular.dim == bound:
                    return bound
        if modular.dim == bound:
            return bound
    images = SpanBuilder()
    for plan in map(plan_of, range(unknowns)):
        for grad in grads.rows:
            image: dict = {}
            for k, dk in grad:
                if k in plan:
                    c, b = plan[k]
                    b *= width
                    for j, v in dk.items():
                        key = b + j
                        image[key] = image.get(key, 0) + c * v
            images.add(image)
            if stop and images.dim == bound:
                return bound
    return images.dim


def _weight(m: Monomial) -> int:
    """alpha!, the pairing <d^alpha, x^alpha>."""
    return math.prod(map(math.factorial, m))


def _colon(W: LinearSeries, theta_terms: dict, e: int, t: int) -> list[DualForm]:
    """Degree-t piece of the colon ``I : theta`` for a dual form theta,
    homogeneous of degree e: the kernel, over the degree-t monomials, of
    the rows ``beta -> <theta * d^beta, g>``, one per row g of the layer
    A_{t+e} (none above the series degree, where that layer is zero).

    ``<theta * d^beta, g> = sum_gamma theta_gamma (beta+gamma)! g_(beta+gamma)``,
    so the term ``g_mu x^mu`` meets each ``theta_gamma`` with ``gamma <= mu``
    at ``beta = mu - gamma``.  The basis is the reduced-echelon one of
    the dense catalecticant kernel: monomial keys compare like negated
    column indices, so pivots are the first nonzero columns.
    """
    s = t + e
    layer = W._layers[s] if s <= W.degree else []
    if layer is None:
        # A_s is all of R_s, so theta * psi = 0 for every psi in the
        # kernel, and psi = 0
        return []
    unpack = W._keys.unpack
    span = SpanBuilder()
    for g in layer:
        row: dict[Monomial, Rational] = {}
        for mu, c in g.items():
            mu = unpack(mu)
            wc = _weight(mu) * c
            for gamma, ce in theta_terms.items():
                beta = tuple(a - b for a, b in zip(mu, gamma))
                if all(x >= 0 for x in beta):
                    row[beta] = row.get(beta, 0) + ce * wc
        span.add(row)
    ctx = W.context
    return [DualForm(ctx, v) for v in span.kernel(monomial_basis(ctx, t))]


def apolar_ideal_component(W: LinearSeries, t: int) -> list[DualForm]:
    """Basis of the degree-t piece of the annihilator of W: the
    reduced-echelon basis of the orthogonal complement of the layer A_t
    (the kernel basis of the degree-t catalecticant).  Above the series
    degree that is the monomial basis.  The int 1 as theta keeps the
    rows of :func:`_colon` on the integer path of ``SpanBuilder.add``."""
    if t < 0:
        raise DegreeRangeError("degree must be non-negative")
    return _colon(W, {(0,) * len(W.context): 1}, 0, t)


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
    A_{t-1}^n: the ``n * h(t-1)`` unknowns (one per variable and basis
    row of A_{t-1}) minus the rank of their images.  P_t
    contains A_t, so ``dim P_t >= h(t)`` for every correct layer.  When
    A_{t-1} is all of R_{t-1} (always at t = 1, and in low degrees of
    dense input) P_t is all of R_t, and nothing is eliminated.  The count
    is made once per series.
    """
    return W._generator_degrees


def _count_generators(W: LinearSeries) -> GeneratorDegrees:
    """The count of :func:`minimal_generator_degrees`: the rank of the
    images of ``(u_i)`` is :func:`_image_rank` of layer t-1 with the n
    unknowns u_i.  The plan of u_i, made when u_i is reached, puts
    ``d_k row`` in the block of the pair (i, k) for each k > i and
    ``-d_k row`` in that of (k, i) for k < i, so one plan of n entries
    is held at a time.  Blocks number the pairs i < k in lexicographic
    order, the order of ``i * n + k``: (i, k) is block ``first[i] + k``
    with ``first[i] = i*n - i*(i+3)/2 - 1``, so the pivots follow the
    pairs first (a monomial-major key gives the same rank after more
    eliminations).  Each partial ``d_k row`` goes into the n-1 images of
    the unknowns other than u_k, each in its own block, so it weighs n-1
    in the density test.  Where A_{t-1} is all of R_{t-1} (its layer
    and ``W._gradients[t-1]`` are None) P_t is all of R_t.  The values
    h(t) are read from :func:`hilbert_function`, which checks them and
    gives those of the layers that are None.

    Since P_t contains A_t, the rank is at most ``n * h(t-1) - h(t)``,
    and it reaches that bound exactly in the degrees with no new
    generator; every image goes in, so a wrong layer, whose rank exceeds
    the bound, is reported below.  On the bench's ``random_series``
    workload at seed 1 the modular rank meets the bound in 62 of the 70
    degrees eliminated.

    The unknowns go in turn, so the images go in variable-major: the
    unknown u_0 of every row, then u_1 of every row, and so on, where
    adding the n images of one row together meets the pivots of every
    pair at once.  The rank and the count do not depend on the order,
    but the work does: on the 36 dense random series of the bench's
    ``random_series`` workload at seed 3, in the 9 degrees the modular
    rank leaves to the exact span, row-major order takes 1317
    ``linalg._eliminate`` steps over 20014 entries (of the vector and of
    the row's tail that each step combines, pivots not counted) with a
    largest intermediate entry of 258 bits, and this order 1137 steps
    over 13636 entries with 142 bits (with every degree eliminated
    exactly: 5643 steps, 342115 entries and 2433 bits against 5194,
    255878 and 1652)."""
    n = len(W.context)
    dims = hilbert_function(W)
    grads = W._gradients
    first = [i * n - i * (i + 3) // 2 - 1 for i in range(n)]

    def plan_of(i: int) -> dict:
        return {k: (1, first[i] + k) if k > i else (-1, first[k] + i) for k in range(n) if k != i}

    weight = dict.fromkeys(range(n), n - 1)
    counts: dict[int, int] = {}
    for t in range(1, W.degree + 2):
        unknowns = n * dims[t - 1]
        h = dims[t] if t <= W.degree else 0
        if grads[t - 1] is None:
            p_dim = math.comb(n + t - 1, t)
        else:
            p_dim = unknowns - _image_rank(
                grads[t - 1], plan_of, n, math.comb(n, 2), weight, unknowns - h, False
            )
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
    """Explicit minimal generators (a deterministic choice) per degree.

    Only the degrees t <= max_degree (default d+1) that
    :func:`minimal_generator_degrees` counts are built.  In each, the
    elements of the reduced-echelon basis of I_t are kept greedily when
    they enlarge the span of the products ``x_i * psi`` for psi in
    I_{t-1}, and the number kept must equal the count.
    """
    n = len(W.context)
    upto = max_degree if max_degree is not None else W.degree + 1
    out: dict[int, list[DualForm]] = {}
    for t, count in minimal_generator_degrees(W).counts.items():
        if t > upto:
            break
        span = SpanBuilder()
        for psi in apolar_ideal_component(W, t - 1):
            for i in range(n):
                span.add(_shift(psi.terms, i))
        gens = [c for c in apolar_ideal_component(W, t) if span.add(c.terms)]
        if len(gens) != count:
            raise InvariantError(
                f"{len(gens)} minimal generators listed in degree {t}, "
                f"but the prolongation counts {count}"
            )
        out[t] = gens
    return out


def colon_component(W: LinearSeries, theta: DualForm, t: int) -> list[DualForm]:
    """Degree-t piece of the colon of the annihilator by theta.

    Computed directly as the dual forms psi of degree t whose product
    with theta (of degree e) is orthogonal to the layer A_{t+e}: the
    kernel of :func:`_colon`.  No derivative series is formed and its
    annihilator is not used, so this can be compared against it as an
    independent identity check.  Returned in the basis that
    :func:`apolar_ideal_component` uses (the reduced-echelon kernel basis),
    so the colon by 1 is the annihilator piece itself.
    """
    if not isinstance(theta, DualForm) or theta.context != W.context:
        raise ContextMismatchError("colon divisor must be a DualForm over the same context")
    if theta.is_zero:
        raise ValueError("colon divisor must be nonzero")
    if not theta.is_homogeneous():
        raise ValueError("colon divisor must be homogeneous")
    if t < 0:
        raise DegreeRangeError("degree must be non-negative")
    return _colon(W, theta.terms, theta.homogeneous_degree(), t)


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
            for psi in apolar_ideal_component(W, t):
                span.add(psi.terms)
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

    Works for non-homogeneous input: the number of rows :func:`_closure`
    keeps from f, packed with its denominators cleared, adding each
    derivative d^beta f to its span once.
    """
    if f.is_zero:
        raise ValueError("the derivative closure of zero is not defined")
    keys = _Keys(len(f.context), max(max(m, default=0) for m in f.terms))
    return sum(map(len, _closure([keys.pack_row(f.terms)], keys)))


def coordinate_closure_dim(F: Polynomial, j: int, a: Rational) -> int:
    """``diff_closure_dim(dehomogenize(F, a * x_j))`` for a nonzero
    homogeneous F, with no polynomial built: F is packed once, and
    setting ``x_j = 1/a`` clears field j of each key and scales its term
    by ``a^(-e_j)``, e_j the exponent cleared (at a = 1, the direction
    every report takes, no term is divided).  No two terms meet, as F
    is homogeneous (the other exponents fix e_j), so the row is F's
    terms rekeyed, its denominators cleared.  The keys keep F's width,
    and the closure counts its rows one order at a time."""
    keys = _Keys(len(F.context), max(map(max, F.terms)))
    clear = ~(keys.mask << keys.shifts[j])
    a = Fraction(a)
    row = {keys.pack(m) & clear: c if a == 1 else c / a ** m[j] for m, c in F.terms.items()}
    return sum(map(len, _closure([clear_denominators(row)], keys)))
