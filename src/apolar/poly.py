"""Sparse exact multivariate polynomials and the differentiation pairing.

A polynomial is a map from exponent tuples to rationals over a fixed,
ordered variable context.  Dual forms live in the same context but their
monomials mean iterated partial derivatives; ``apply_operator`` lets a
dual form act on a polynomial.  The action is the plain derivative with
no factorial normalization, so a k-th power differentiated k times picks
up k!.

Text grammar (whitespace insignificant)::

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    coeff  := integer | integer '/' positive-integer
    factor := var ('^' positive-integer)?
    var    := name | name '[' index (',' index)* ']'
    name   := [A-Za-z_][A-Za-z0-9_]*

Integers (coefficients, exponents, indices) are decimal digits.  Any
other text is a :class:`ParseError` naming its line and column.  Dual
forms use the same grammar with names prefixed ``d``: ``d[1,2]``
differentiates ``x[1,2]`` and ``d_y[1,2]`` differentiates ``y[1,2]``.

Two routes read this grammar.  The term scanner reads well-formed text,
one regex match per term, and resolves each distinct factor text
(``x[01]^2`` to ``x[1]`` and 2) once per call.  Text it does not accept
in full goes to the token parser, which raises every
:class:`ParseError` and is the reference the scanner is tested against.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

Rational = Fraction
Monomial = tuple[int, ...]


class PolyError(ValueError):
    pass


class ParseError(PolyError):
    """Syntax or name error in polynomial text, with position info."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ContextMismatchError(PolyError):
    pass


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_VAR_RE = re.compile(rf"{_NAME}(?:\[\d+(?:,\d+)*\])?\Z")


def dual_name(primal: str) -> str:
    """Dual-variable display name: x[...] -> d[...], other -> d_<name>."""
    if not _VAR_RE.match(primal):
        raise PolyError(f"invalid variable name {primal!r}")
    base, bracket, idx = primal.partition("[")
    return ("d" if base == "x" else "d_" + base) + bracket + idx


@dataclass(frozen=True)
class VarContext:
    """Ordered tuple of distinct variable names shared by polynomials."""

    names: tuple[str, ...]
    _pos: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise PolyError("variable names must be distinct")
        self._pos.update({name: i for i, name in enumerate(self.names)})

    @classmethod
    def of(cls, *names: str) -> "VarContext":
        return cls(tuple(names))

    def __len__(self) -> int:
        return len(self.names)

    def position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise PolyError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._pos


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial: exponent tuple -> nonzero rational coefficient."""

    context: VarContext
    terms: dict[Monomial, Rational]

    def __post_init__(self) -> None:
        n = len(self.context)
        clean: dict[Monomial, Rational] = {}
        for mono, c in self.terms.items():
            mono = tuple(mono)
            if len(mono) != n:
                raise PolyError(
                    f"monomial of length {len(mono)} in a {n}-variable context"
                )
            if min(mono, default=0) < 0:
                raise PolyError("negative exponent in monomial")
            c = Fraction(c)
            if c:
                clean[mono] = c
        object.__setattr__(self, "terms", clean)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, context: VarContext) -> "Polynomial":
        return cls(context, {})

    @classmethod
    def constant(cls, context: VarContext, c: int | Rational) -> "Polynomial":
        return cls(context, {(0,) * len(context): Fraction(c)})

    @classmethod
    def from_products(cls, context: VarContext, products) -> "Polynomial":
        """The sum of ``c * x[p_1] * ... * x[p_k]`` over the pairs
        ``(c, (p_1, ..., p_k))`` of ``products``, where the ``p_i`` are
        context positions.  A position may repeat, equal monomials add
        up, and the empty product is the constant 1."""
        n = len(context)
        terms: dict[Monomial, Rational] = {}
        for c, positions in products:
            mono = _monomial(n, positions)
            terms[mono] = terms.get(mono, 0) + c
        return cls(context, terms)

    @classmethod
    def variable(cls, context: VarContext, pos: int) -> "Polynomial":
        return cls.from_products(context, [(1, (pos,))])

    @classmethod
    def named_variable(cls, context: VarContext, name: str) -> "Polynomial":
        return cls.variable(context, context.position(name))

    # ------------------------------------------------------------------
    # structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.terms}) <= 1

    def is_linear_form(self) -> bool:
        """Nonzero and homogeneous of degree 1."""
        return not self.is_zero and self.degree() == 1 and self.is_homogeneous()

    def homogeneous_degree(self) -> int:
        degs = {sum(m) for m in self.terms}
        if len(degs) != 1:
            raise PolyError("polynomial is zero or not homogeneous")
        return degs.pop()

    def coefficient(self, mono: Monomial) -> Rational:
        return self.terms.get(tuple(mono), Fraction(0))

    def _check_compatible(self, other: "Polynomial") -> None:
        if type(self) is not type(other):
            raise ContextMismatchError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.context != other.context:
            raise ContextMismatchError("polynomials live in different contexts")

    # ------------------------------------------------------------------
    # ring arithmetic (exact)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return type(self)(self.context, out)

    def __neg__(self) -> "Polynomial":
        return type(self)(self.context, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, c: int | Rational) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return type(self)(self.context, {})
        return type(self)(self.context, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        out: dict[Monomial, Rational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return type(self)(self.context, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise PolyError("exponent must be a non-negative integer")
        result = type(self).constant(self.context, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def partial(self, pos: int) -> "Polynomial":
        """Derivative with respect to the variable at ``pos``."""
        return type(self)(self.context, partial_terms(self.terms, pos))

    def __str__(self) -> str:
        return format_polynomial(self)


class DualForm(Polynomial):
    """Element of the dual ring: monomials act as iterated derivatives."""


# ----------------------------------------------------------------------
# the apolar action


def partial_terms(terms: dict, pos: int) -> dict:
    """d/dx_pos of a sparse term map ``{exponents: coeff}``.

    ``m -> m - e_pos`` is injective, so no two terms meet and none
    cancels; integer coefficients stay integers."""
    out = {}
    for m, c in terms.items():
        e = m[pos]
        if e:
            out[m[:pos] + (e - 1,) + m[pos + 1 :]] = c * e
    return out


def apply_operator(op: DualForm, f: Polynomial) -> Polynomial:
    """Let ``op`` act on ``f`` by iterated partial differentiation.

    Linear in both arguments; drops degree by deg(op) on homogeneous
    input and returns zero when the operator degree exceeds deg(f).
    """
    if not isinstance(op, DualForm):
        raise ContextMismatchError("operator must be a DualForm")
    if isinstance(f, DualForm) or not isinstance(f, Polynomial):
        raise ContextMismatchError("operand must be a (primal) Polynomial")
    if op.context != f.context:
        raise ContextMismatchError("operator and operand contexts differ")
    out: dict[Monomial, Rational] = {}
    for me, ce in op.terms.items():
        terms = f.terms
        for i, b in enumerate(me):
            for _ in range(b):
                terms = partial_terms(terms, i)
        for m, c in terms.items():
            out[m] = out.get(m, 0) + ce * c
    return Polynomial(f.context, out)


# ----------------------------------------------------------------------
# substitution, dehomogenization


def substitute(f: Polynomial, pos: int, replacement: Polynomial) -> Polynomial:
    """Substitute ``replacement`` for the variable at ``pos``."""
    if replacement.context != f.context:
        raise ContextMismatchError("replacement lives in a different context")
    # each power once, from the one below, up to the top exponent
    powers = [Polynomial.constant(f.context, 1)]
    for _ in range(max((m[pos] for m in f.terms), default=0)):
        powers.append(powers[-1] * replacement)
    out: dict[Monomial, Rational] = {}
    for m, c in f.terms.items():
        rest = m[:pos] + (0,) + m[pos + 1 :]
        for mp, cp in powers[m[pos]].terms.items():
            target = tuple(a + b for a, b in zip(rest, mp))
            out[target] = out.get(target, 0) + c * cp
    return Polynomial(f.context, out)


def dehomogenize(f: Polynomial, l: Polynomial) -> Polynomial:
    """Set a chosen linear form to 1 via an invertible change of coordinates.

    The first variable with nonzero coefficient in ``l`` is eliminated;
    the remaining coordinates are kept, so ``l`` is completed to a basis
    by unit vectors.  The result generally mixes degrees.
    """
    if not isinstance(l, Polynomial) or not l.is_linear_form():
        raise PolyError("dehomogenization direction must be a nonzero linear form")
    if l.context != f.context:
        raise ContextMismatchError("form and direction contexts differ")
    if not f.is_homogeneous():
        raise PolyError("can only dehomogenize a homogeneous polynomial")
    coeffs = {m.index(1): c for m, c in l.terms.items()}
    j = min(coeffs)
    aj = coeffs.pop(j)
    # x_j = (1 - sum of a_i x_i over the other i) / a_j
    repl = Polynomial.from_products(
        f.context, [(1 / aj, ())] + [(-a / aj, (i,)) for i, a in coeffs.items()]
    )
    return substitute(f, j, repl)


# ----------------------------------------------------------------------
# power-sum evaluation


def evaluate_decomposition(
    linear_forms: list[Polynomial], coeffs: list[int | Rational], d: int
) -> Polynomial:
    """Exact value of sum_i c_i * l_i**d.

    Each power is expanded term by term by the multinomial formula
    (:func:`_power_products`), in integers: summand i is scaled by
    ``c_i / s_i^d``, s_i the lcm of the denominators of l_i, and every
    such scale is an integer multiple of ``1/q``, q the lcm of their
    denominators.  The integer terms of all powers are summed by one
    :meth:`Polynomial.from_products`, and the sum divided by q."""
    if len(linear_forms) != len(coeffs):
        raise PolyError(
            f"{len(linear_forms)} forms against {len(coeffs)} coefficients"
        )
    if not linear_forms:
        raise PolyError("empty decomposition")
    ctx = linear_forms[0].context
    scaled = []
    for l, c in zip(linear_forms, coeffs):
        if type(l) is not Polynomial or l.context != ctx:
            raise ContextMismatchError("summands must be polynomials in one context")
        if not l.is_linear_form():
            raise PolyError(f"summand {format_polynomial(l)!r} is not a linear form")
        s = math.lcm(*(a.denominator for a in l.terms.values()))
        a = {m.index(1): int(v * s) for m, v in l.terms.items()}
        scaled.append((a, Fraction(c) / s**d))
    q = math.lcm(*(scale.denominator for _, scale in scaled))
    total = Polynomial.from_products(
        ctx,
        itertools.chain.from_iterable(
            _power_products(a, int(scale * q), d) for a, scale in scaled
        ),
    )
    return total if q == 1 else total.scale(Fraction(1, q))


def _power_products(a: dict[int, int], c: int, d: int):
    """The terms of ``c * l**d`` for ``l = sum_p a[p] * x_p``, as
    ``(coefficient, positions)`` pairs: by the multinomial formula, one
    per multiset P of d positions of l, with coefficient
    ``c * d! / prod_p e_p! * prod_p a_p^e_p`` (e_p the multiplicity of p
    in P).  l has k variables, so there are C(k+d-1, d) terms."""
    for positions in itertools.combinations_with_replacement(sorted(a), d):
        # d! / prod_p e_p! as the product of C(e_1 + ... + e_j, e_j)
        coeff, seen = c, 0
        for p, run in itertools.groupby(positions):
            e = len(list(run))
            seen += e
            coeff *= math.comb(seen, e) * a[p] ** e
        yield coeff, positions


# ----------------------------------------------------------------------
# monomial enumeration (graded lexicographic, descending exponents)


def monomial_basis(context: VarContext, degree: int) -> list[Monomial]:
    """All monomials of the given degree, lexicographically descending."""
    # multisets of variable positions in lexicographic order are exactly
    # the exponent tuples in descending lexicographic order
    if degree < 0:
        return []
    n = len(context)
    return [
        _monomial(n, positions)
        for positions in itertools.combinations_with_replacement(range(n), degree)
    ]


def _monomial(n: int, positions) -> Monomial:
    """The exponent tuple of the product of the variables at ``positions``
    (which may repeat) in an n-variable context."""
    mono = [0] * n
    for i in positions:
        mono[i] += 1
    return tuple(mono)


# ----------------------------------------------------------------------
# formatting


def _format_coeff(q: Rational) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_polynomial(f: Polynomial) -> str:
    if not f.terms:
        return "0"
    names = f.context.names
    if isinstance(f, DualForm):
        names = tuple(dual_name(n) for n in names)
    items = sorted(
        f.terms.items(), key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0]))
    )
    pieces = []
    for mono, c in items:
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, mono)
            if e
        ]
        mag = abs(c)
        if not factors:
            body = _format_coeff(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = _format_coeff(mag) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)


# ----------------------------------------------------------------------
# parsing: the term scanner (``_Scanner``), then the token parser
# (``_tokenize``, ``_Parser``) for the text the scanner does not accept

# ``\s`` is what ``str.split()`` splits on, and ``\d`` what ``int``
# accepts (Unicode decimal digits).  The pattern is linear by
# construction: no two optional whitespace runs are adjacent, and every
# repeated group starts with a literal, so a match that fails backtracks
# over each character a bounded number of times.
_FACTOR = rf"{_NAME}\s*(?:\[\s*\d+\s*(?:,\s*\d+\s*)*\]\s*)?(?:\^\s*\d+\s*)?"
_FACTORS = rf"{_FACTOR}(?:\*\s*{_FACTOR})*"
# groups: sign, numerator, denominator, the factors after a coefficient,
# the factors of a term without one
_TERM_RE = re.compile(
    rf"\s*(?:([-+])\s*)?"
    rf"(?:(\d+)\s*(?:/\s*(\d+)\s*)?(?:\*\s*({_FACTORS}))?|({_FACTORS}))"
)
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)


class _Scanner:
    """The term scanner of one parse call: ``terms(text)`` is the text's
    term list ``[(coefficient, [factor key, ...]), ...]``, and
    ``factors`` maps every factor key seen to its ``(name, exponent)``,
    in order of first appearance.  A key is the factor's text, so
    ``x[01]^2`` is resolved (to ``("x[1]", 2)``) once per call."""

    def __init__(self, dual: bool, context: VarContext | None):
        self.dual = dual
        self.context = context
        self.factors: dict = {}
        self.coeffs: dict = {}

    def terms(self, text: str) -> list:
        raw = self._scan(text)
        if raw is None:
            # the token parser raises the ParseError; should it accept the
            # text, its factors key themselves
            raw = _Parser(text, self.dual, self.context).parse_terms()
            for _, factors in raw:
                for f in factors:
                    self.factors.setdefault(f, f)
        return raw

    def _scan(self, text: str) -> list | None:
        """The terms, or None when the text is not well formed in full."""
        out = []
        factors, coeffs = self.factors, self.coeffs
        pos, end = 0, len(text)
        while True:
            m = _TERM_RE.match(text, pos)
            if m is None:
                return None
            sign, num, den, after, alone = m.groups()
            if out and sign is None:
                return None
            if num is None:
                coeff, run = _MINUS_ONE if sign == "-" else _ONE, alone
            else:
                key = (sign, num, den)
                coeff = coeffs.get(key)
                if coeff is None:
                    coeff = coeffs[key] = _coefficient(sign, num, den)
                    if coeff is None:
                        return None
                run = after
            keys = run.split("*") if run else []
            for k in keys:
                if k not in factors:
                    resolved = self._resolve(k)
                    if resolved is None:
                        return None
                    factors[k] = resolved
            out.append((coeff, keys))
            pos = m.end()
            if pos == end:
                return out

    def _resolve(self, text: str) -> tuple[str, int] | None:
        """``(canonical name, exponent)`` of a factor text the pattern
        matched, or None for what the token parser refuses: a zero
        exponent, an over-long numeral, a name that is no dual name or
        not in the context."""
        var, _, exp = "".join(text.split()).partition("^")
        base, bracket, idx = var.partition("[")
        try:
            e = int(exp) if exp else 1
            if bracket:
                idx = f"[{','.join(str(int(i)) for i in idx[:-1].split(','))}]"
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            return None
        if not e:
            return None
        if self.dual:
            if base == "d":
                base = "x"
            elif base.startswith("d_") and _VAR_RE.match(base[2:]):
                base = base[2:]
            else:
                return None
        name = base + idx
        if self.context is not None and name not in self.context:
            return None
        return name, e


def _coefficient(sign: str | None, num: str, den: str | None) -> Rational | None:
    try:
        q = Fraction(int(num), int(den)) if den else Fraction(int(num))
    except (ValueError, ZeroDivisionError):  # an over-long numeral, or n/0
        return None
    return -q if sign == "-" else q


# one alternative per token kind; the last one is any character that
# starts no token (so ``²`` is not a number).  Only text the scanner
# refuses is tokenized, so the pattern is compiled on that path, through
# the cache of ``re``
_TOKEN_PATTERN = (
    rf"(?P<NUM>\d+)|(?P<NAME>{_NAME})|(?P<SYM>[-+*/^\[\],])"
    r"|(?P<NL>\n)|(?P<WS>[^\S\n]+)|(?P<BAD>.)"
)


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Tokens ``(kind, text, line, column)``, ending with an END token;
    a symbol's kind is the symbol itself."""
    toks = []
    line, line_start = 1, 0
    for m in re.finditer(_TOKEN_PATTERN, text):
        kind, s, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "NL":
            line, line_start = line + 1, m.end()
        elif kind == "BAD":
            raise ParseError(f"unexpected character {s!r}", line, col)
        elif kind != "WS":
            toks.append((s if kind == "SYM" else kind, s, line, col))
    toks.append(("END", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text: str, dual: bool, context: VarContext | None):
        self.toks = _tokenize(text)
        self.pos = 0
        self.dual = dual
        self.context = context

    def take(self, kind: str):
        """The next token if it has this kind (and consume it), else None."""
        tok = self.toks[self.pos]
        if tok[0] != kind:
            return None
        self.pos += 1
        return tok

    def error(self, message: str, tok=None):
        _, _, line, col = tok or self.toks[self.pos]
        raise ParseError(message, line, col)

    def expected(self, what: str):
        got = self.toks[self.pos][1] or "end of input"
        self.error(f"expected {what}, got {got!r}")

    def integer(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            self.error(
                f"integer too long: {len(tok[1])} digits "
                f"(limit {sys.get_int_max_str_digits()})",
                tok,
            )

    # raw term list: (coefficient, [(var name, exponent), ...])
    def parse_terms(self) -> list[tuple[Rational, list[tuple[str, int]]]]:
        terms = []
        sign = self.take("-") or self.take("+")
        while True:
            coeff, factors = self._term()
            terms.append((-coeff if sign and sign[0] == "-" else coeff, factors))
            if self.toks[self.pos][0] == "END":
                return terms
            sign = self.take("-") or self.take("+")
            if not sign:
                self.expected("'+', '-' or end of input")

    def _term(self) -> tuple[Rational, list[tuple[str, int]]]:
        factors: list[tuple[str, int]] = []
        num = self.take("NUM")
        if num:
            coeff = self._coeff(num)
        elif self.toks[self.pos][0] == "NAME":
            coeff = Fraction(1)
            factors.append(self._factor())
        else:
            self.expected("a term")
        while self.take("*"):
            factors.append(self._factor())
        return coeff, factors

    def _coeff(self, num) -> Rational:
        value = self.integer(num)
        if not self.take("/"):
            return Fraction(value)
        den = self.take("NUM")
        if not den:
            self.error("expected a positive integer denominator")
        den_value = self.integer(den)
        if not den_value:
            self.error("denominator must be a positive integer", den)
        return Fraction(value, den_value)

    def _factor(self) -> tuple[str, int]:
        name = self._var()
        if not self.take("^"):
            return name, 1
        if self.toks[self.pos][0] == "-":
            self.error("exponent must be a positive integer")
        etok = self.take("NUM") or self.expected("an exponent")
        exp = self.integer(etok)
        if not exp:
            self.error("exponent must be a positive integer, got 0", etok)
        return name, exp

    def _var(self) -> str:
        tok = self.take("NAME") or self.expected("a variable")
        base, suffix = tok[1], ""
        if self.take("["):
            idx = []
            while not idx or self.take(","):
                idx.append(self.integer(self.take("NUM") or self.expected("an index")))
            if not self.take("]"):
                self.expected("']'")
            suffix = f"[{','.join(str(i) for i in idx)}]"
        if self.dual:
            if base == "d":
                base = "x"
            elif base.startswith("d_") and len(base) > 2:
                base = base[2:]
            else:
                self.error(
                    "dual variable must be named 'd' or 'd_<name>', "
                    f"got {base + suffix!r}",
                    tok,
                )
            if not _VAR_RE.match(base):
                self.error(f"invalid variable name {base!r}", tok)
        name = base + suffix
        if self.context is not None:
            if name not in self.context:
                shown = dual_name(name) if self.dual else name
                self.error(f"unknown variable {shown!r}", tok)
        return name


def _assemble(cls: type, raws: list, context: VarContext, factors: dict) -> list:
    """The polynomials of the term lists ``raws`` in ``context``; each
    factor key's position is looked up once."""
    at = {key: (context.position(name), e) for key, (name, e) in factors.items()}
    n = len(context)
    out = []
    for raw in raws:
        terms: dict[Monomial, Rational] = {}
        for coeff, keys in raw:
            mono = [0] * n
            for key in keys:
                i, e = at[key]
                mono[i] += e
            mono = tuple(mono)
            if mono in terms:
                terms[mono] += coeff
            else:
                terms[mono] = coeff
        out.append(cls(context, terms))
    return out


def parse_polynomial(text: str, context: VarContext | None = None) -> Polynomial:
    """Parse polynomial text; the context is inferred (variables ordered
    by first appearance) when not supplied."""
    return parse_polynomial_list([text], context)[0]


def parse_polynomial_list(
    texts: list[str], context: VarContext | None = None, max_size: int | None = None
) -> list[Polynomial]:
    """Parse several polynomials over one shared context.

    Without an explicit context, variables are collected across all
    inputs in order of first appearance before any polynomial is built.
    Each term is built as an exponent tuple as long as the context, so
    when the terms times the variables exceed ``max_size`` a
    ``ValueError`` is raised before any tuple is built.
    """
    scanner = _Scanner(dual=False, context=context)
    raws = [scanner.terms(text) for text in texts]
    ctx = context
    if ctx is None:
        ctx = VarContext(tuple(dict.fromkeys(name for name, _ in scanner.factors.values())))
    terms = sum(map(len, raws))
    if max_size is not None and terms * len(ctx) > max_size:
        raise ValueError(
            f"{terms} terms times {len(ctx)} variables are over the size "
            f"limit of {max_size}"
        )
    return _assemble(Polynomial, raws, ctx, scanner.factors)


def parse_dual_form(text: str, context: VarContext) -> DualForm:
    """Parse dual-form text (d-prefixed names) against a primal context."""
    scanner = _Scanner(dual=True, context=context)
    return _assemble(DualForm, [scanner.terms(text)], context, scanner.factors)[0]
