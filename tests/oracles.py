"""Independent brute-force oracles the main code is checked against.

Deliberately naive: textbook rational Gaussian elimination and direct
derivative enumeration, sharing no code with the package internals.
The one exception, :func:`reference_closure`, is a row-order reference
rather than an oracle, and says so.
"""

from fractions import Fraction
from math import factorial, gcd

from apolar import Polynomial, monomial_basis
from apolar.linalg import SpanBuilder
from apolar.poly import partial_terms


def naive_rank(rows):
    """Textbook Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][c] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][c]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def naive_span_dim(vectors):
    return naive_rank(list(vectors))


def coefficient_vector(f: Polynomial, monos):
    return [f.coefficient(m) for m in monos]


def brute_hilbert(forms):
    """dims[t] = dimension of the degree-t piece of the span of all
    derivatives of the forms, computed by repeated single derivatives."""
    d = forms[0].homogeneous_degree()
    ctx = forms[0].context
    n = len(ctx)
    layer = list(forms)
    dims = [0] * (d + 1)
    for t in range(d, -1, -1):
        monos = monomial_basis(ctx, t)
        vectors = [coefficient_vector(f, monos) for f in layer if not f.is_zero]
        dims[t] = naive_span_dim(vectors) if vectors else 0
        layer = [g.partial(i) for g in layer for i in range(n)]
    return dims


def naive_directional_derivative(f: Polynomial, direction):
    """sum_i direction[i] * df/dx_i, term by term."""
    out = {}
    for m, c in f.terms.items():
        for i, a in enumerate(direction):
            if a and m[i]:
                k = m[:i] + (m[i] - 1,) + m[i + 1 :]
                out[k] = out.get(k, 0) + Fraction(a) * c * m[i]
    return Polynomial(f.context, {k: v for k, v in out.items() if v})


def naive_derivative_bound(forms, direction):
    """Apolar length of the forms minus that of their derivatives along
    ``direction`` (one coefficient per variable), both lengths from
    :func:`brute_hilbert`; a zero derivative series has length 0."""
    forms = [f for f in forms if not f.is_zero]
    images = [naive_directional_derivative(f, direction) for f in forms]
    images = [g for g in images if not g.is_zero]
    return sum(brute_hilbert(forms)) - (sum(brute_hilbert(images)) if images else 0)


# ----------------------------------------------------------------------
# catalecticant oracle: the textbook matrix of the degree-t pairing,
# built entry by entry from coefficients and factorials


def naive_homogenize(f: Polynomial, l: Polynomial, degree: int) -> Polynomial:
    """Pad each term of ``f`` with the power of ``l`` that lifts it to
    ``degree``: the inverse of dehomogenizing at ``l``."""
    out = Polynomial.zero(f.context)
    for m, c in f.terms.items():
        out = out + Polynomial(f.context, {m: c}) * l ** (degree - sum(m))
    return out


def naive_monomials(n, t):
    """Exponent tuples of degree t in n variables, lexicographically
    descending (the column order of the package)."""
    if n == 0:
        return [()] if t == 0 else []
    return [(e,) + rest for e in range(t, -1, -1) for rest in naive_monomials(n - 1, t - e)]


def naive_catalecticant(forms, t):
    """Rows: (form F, degree d-t monomial x^beta); columns: degree-t
    monomials alpha; entry = coefficient of x^beta in d^alpha F, which is
    F_(alpha+beta) * (alpha+beta)! / beta!."""
    d = forms[0].homogeneous_degree()
    n = len(forms[0].context)
    cols = naive_monomials(n, t)
    rows = []
    for f in forms:
        for beta in naive_monomials(n, d - t):
            row = []
            for alpha in cols:
                mono = tuple(a + b for a, b in zip(alpha, beta))
                weight = 1
                for a, b in zip(alpha, beta):
                    weight *= factorial(a + b) // factorial(b)
                row.append(f.coefficient(mono) * weight)
            rows.append(row)
    return rows, cols


def naive_catalecticant_hilbert(forms):
    """dims[t] = rank of the degree-t catalecticant."""
    d = forms[0].homogeneous_degree()
    return [naive_rank(naive_catalecticant(forms, t)[0]) for t in range(d + 1)]


def naive_nullspace(rows, ncols):
    """Right kernel by Gauss-Jordan: one vector per free column, free
    columns ascending, 1 at the free column and 0 at the other free
    columns.  Each vector is a map ``{column: value}`` of its nonzero
    entries in column order, so a kernel of ``ncols`` vectors (no rows,
    as above the series degree) costs ``ncols`` entries, not ncols^2."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = {pc: -m[i][free] for i, pc in enumerate(pivot_cols) if m[i][free]}
        v[free] = Fraction(1)
        basis.append(dict(sorted(v.items())))
    return basis


def naive_ideal_component(forms, t):
    """Degree-t annihilator piece as ``{exponents: coefficient}`` dicts:
    the Gauss-Jordan kernel of the degree-t catalecticant (which has no
    rows for t > d)."""
    rows, cols = naive_catalecticant(forms, t)
    return [{cols[c]: x for c, x in v.items()} for v in naive_nullspace(rows, len(cols))]



def naive_sparse_rank(rows):
    """Rank of sparse rows ``{column: value}`` by Gaussian elimination over
    Fractions: each row is reduced against the stored rows at its
    smallest column until that column is new, then stored scaled to 1
    there."""
    pivots = {}
    for row in rows:
        v = {k: Fraction(x) for k, x in row.items() if x}
        while v:
            c = min(v)
            if c not in pivots:
                lead = v[c]
                pivots[c] = {k: x / lead for k, x in v.items()}
                break
            f = v[c]
            for k, x in pivots[c].items():
                nx = v.get(k, 0) - f * x
                if nx:
                    v[k] = nx
                else:
                    v.pop(k, None)
    return len(pivots)


def naive_generator_degrees(forms):
    """Minimal generator counts per degree of the annihilator, t = 1..d+1:
    dim I_t minus the rank of the products x_i * psi for psi in I_{t-1},
    with I_t the Gauss-Jordan kernel of the degree-t catalecticant for
    t <= d and all of S_{d+1} in degree d+1."""
    d = forms[0].homogeneous_degree()
    n = len(forms[0].context)
    counts = {}
    prev = []
    for t in range(1, d + 2):
        if t <= d:
            piece = naive_ideal_component(forms, t)
            dim = len(piece)
        else:
            dim = len(naive_monomials(n, t))
        products = [
            {m[:i] + (m[i] + 1,) + m[i + 1 :]: c for m, c in psi.items()}
            for psi in prev
            for i in range(n)
        ]
        fresh = dim - naive_sparse_rank(products)
        if fresh:
            counts[t] = fresh
        prev = piece
    return counts


def naive_closure_dim(f: Polynomial) -> int:
    """Dimension of the span of f and all its iterated partials, every
    distinct derivative of every order listed by repeated single
    derivatives and compared by coefficient vectors."""
    n = len(f.context)
    found = {}
    frontier = [f]
    while frontier:
        fresh = []
        for g in frontier:
            key = frozenset(g.terms.items())
            if not g.is_zero and key not in found:
                found[key] = g
                fresh.extend(g.partial(i) for i in range(n))
        frontier = fresh
    monos = sorted({m for g in found.values() for m in g.terms})
    return naive_span_dim(coefficient_vector(g, monos) for g in found.values())


def reference_closure(tops, n):
    """Row-order reference for ``apolarity._closure``, not an independent
    oracle: the plain loop that feeds every nonzero first partial of
    every row kept, by every variable and along every path, to one
    ``SpanBuilder``.  It shares the span and ``partial_terms`` with the
    package, so it pins which rows the closure keeps, in what order and
    with what integer entries (each divided by the gcd of its entries,
    as the closure keeps them); whether they span the closure is checked
    against the naive routes above."""
    span = SpanBuilder()
    group = [primitive(row) for row in tops if span.add(row)]
    groups = []
    while group:
        groups.append(group)
        group = [
            primitive(dv) for row in group for i in range(n)
            if (dv := partial_terms(row, i)) and span.add(dv)
        ]
    return groups


def primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {m: c // g for m, c in row.items()}
