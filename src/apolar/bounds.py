"""Rank bounds from apolarity data, and auditable bound reports.

Lower bounds for the cactus rank of a series W (hence for smoothable and
Waring rank of its forms):

* Sylvester: any graded dimension of the apolar algebra.
* Ranestad-Schreyer: apolar length divided by the top generator degree
  of the annihilator.
* Derivative bound: apolar length of W minus apolar length of the
  derivative series DW, for a linear dual direction D.  Valid when D is
  generic, or for any D that lies in no proper subrepresentation when W
  is invariant under a connected group action; the latter cannot be
  checked here, so it is recorded as a caller assertion.  The degree-t
  layer of DW is D applied to the degree-(t+1) layer A_{t+1} of W, so
  the bound is ``sum_t dim ker(D|A_t)``, read off W's cached layers
  (``apolarity.derivative_kernel_dims``) without building DW.  A layer
  that is all of R_t needs no elimination (D maps it onto R_{t-1}), and
  the images of any other layer stop once their rank reaches h(t-1).

The generic variant samples seeded random integer directions and takes
the minimum: each rank of D on a layer is lower semicontinuous in the
direction, so special directions only inflate the kernels and each
random sample realizes the generic value with probability 1.

Upper bound (single forms): dimension of the derivative closure of a
dehomogenization, reported next to the lower bounds so the bracket for
the unknown ranks stays visible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .apolarity import (
    LinearSeries,
    apolar_length,
    derivative_kernel_dims,
    diff_closure_dim,
    hilbert_function,
    minimal_generator_degrees,
)
# no longer called here, but still importable under this name: the
# bench tracer (bench/tracing.py) wraps it in this module
from .apolarity import differentiate_series  # noqa: F401
from .poly import (
    DualForm,
    Polynomial,
    Rational,
    VarContext,
    dehomogenize,
    format_polynomial,
)

KIND_LOWER_CACTUS = "lower-for-cactus"
KIND_LOWER_WARING = "lower-for-waring"
KIND_UPPER_CACTUS = "upper-for-cactus"
KIND_UPPER_WARING = "upper-for-waring"


class BoundConsistencyError(RuntimeError):
    """A lower bound exceeded an upper bound: the implementation is wrong."""


@dataclass(frozen=True)
class InvarianceAssertion:
    """Caller-supplied claim that the series is invariant under a connected
    group action for which the chosen direction lies in no proper
    subrepresentation.  Never verified here."""

    asserted: bool
    description: str = ""


UNASSERTED = InvarianceAssertion(False)


@dataclass(frozen=True)
class BoundEntry:
    name: str
    value: Rational
    kind: str
    metadata: dict = field(default_factory=dict)

    @property
    def integer_value(self) -> int:
        return math.ceil(self.value)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value_num": self.value.numerator,
            "value_den": self.value.denominator,
            "integer_value": self.integer_value,
            "kind": self.kind,
            "metadata": self.metadata,
        }


@dataclass(frozen=True)
class BoundReport:
    form_id: str
    bounds: tuple[BoundEntry, ...]

    def entry(self, name: str) -> BoundEntry:
        for b in self.bounds:
            if b.name == name:
                return b
        raise KeyError(name)

    def names(self) -> list[str]:
        return [b.name for b in self.bounds]

    def brackets(self) -> dict:
        """Best-known intervals for cactus, smoothable and Waring rank.

        A cactus lower bound also bounds smoothable and Waring rank from
        below; a Waring upper bound also caps the other two; a cactus
        upper bound says nothing about the larger ranks.  Missing sides
        stay None: the ranks themselves are not computed here.
        """
        lower_cactus = [b.integer_value for b in self.bounds if b.kind == KIND_LOWER_CACTUS]
        lower_waring = [b.integer_value for b in self.bounds if b.kind == KIND_LOWER_WARING]
        upper_cactus = [b.integer_value for b in self.bounds if b.kind == KIND_UPPER_CACTUS]
        upper_waring = [b.integer_value for b in self.bounds if b.kind == KIND_UPPER_WARING]

        def best(vals, pick):
            return pick(vals) if vals else None

        cr_lower = best(lower_cactus, max)
        return {
            "cactus_rank": {
                "lower": cr_lower,
                "upper": best(upper_cactus + upper_waring, min),
            },
            "smoothable_rank": {
                "lower": cr_lower,
                "upper": best(upper_waring, min),
            },
            "waring_rank": {
                "lower": best(lower_cactus + lower_waring, max),
                "upper": best(upper_waring, min),
            },
        }

    def to_dict(self) -> dict:
        return {
            "form_id": self.form_id,
            "bounds": [b.to_dict() for b in self.bounds],
            "brackets": self.brackets(),
        }


# ----------------------------------------------------------------------
# individual bounds


def sylvester_bound(W: LinearSeries) -> int:
    """Largest graded dimension of the apolar algebra."""
    return max(hilbert_function(W).dims)


def ranestad_schreyer_bound(W: LinearSeries) -> Rational:
    """Apolar length over the top minimal-generator degree (exact rational)."""
    gens = minimal_generator_degrees(W)
    return Fraction(apolar_length(W), gens.delta)


def derivative_bound(W: LinearSeries, partial: DualForm) -> int:
    """Apolar length of W minus apolar length of the derivative series DW.

    Computed as ``sum_t dim ker(D|A_t)`` over W's derivative layers: the
    degree-t layer of DW is ``D(A_{t+1})``.  Two shortcuts keep it cheap:
    a layer that is all of R_t maps onto R_{t-1} (no elimination), and
    the images of a layer stop once their rank reaches h(t-1).  When DW
    is zero every kernel is the whole layer, and the bound is the apolar
    length of W itself.
    """
    return sum(derivative_kernel_dims(W, partial))


def random_linear_dual(context: VarContext, rng: random.Random) -> DualForm:
    """Random direction with integer coefficients in [-99, 99]; an
    all-zero draw is redrawn."""
    n = len(context)
    while True:
        coeffs = [rng.randint(-99, 99) for _ in range(n)]
        if any(coeffs):
            break
    terms = {}
    for i, c in enumerate(coeffs):
        if c:
            mono = [0] * n
            mono[i] = 1
            terms[tuple(mono)] = Fraction(c)
    return DualForm(context, terms)


def generic_derivative_trials(
    W: LinearSeries, trials: int = 5, seed: int = 0
) -> list[tuple[DualForm, int]]:
    """The sampled directions and their derivative-bound values."""
    if trials < 1:
        raise ValueError("at least one trial is required")
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        dl = random_linear_dual(W.context, rng)
        out.append((dl, derivative_bound(W, dl)))
    return out


def generic_derivative_bound(W: LinearSeries, trials: int = 5, seed: int = 0) -> int:
    """Minimum derivative bound over seeded random directions (the
    generic value; special directions can only be larger)."""
    return min(v for _, v in generic_derivative_trials(W, trials, seed))


def leading_coefficient_form(F: Polynomial, var_pos: int) -> tuple[int, Polynomial]:
    """Top power k of the chosen variable and the coefficient form of
    its k-th power (a polynomial free of that variable)."""
    if F.is_zero:
        raise ValueError("the zero form has no leading coefficient")
    if not F.is_homogeneous():
        raise ValueError("expected a homogeneous form")
    k = max(m[var_pos] for m in F.terms)
    if k == 0:
        raise ValueError("the chosen variable does not occur in the form")
    terms = {
        m[:var_pos] + (0,) + m[var_pos + 1 :]: c
        for m, c in F.terms.items()
        if m[var_pos] == k
    }
    return k, Polynomial(F.context, terms)


def leading_coefficient_bound(F: Polynomial, var_pos: int) -> int:
    """Apolar length of the top coefficient form in the chosen variable.

    A cactus lower bound when the dual of the chosen variable is generic
    or covered by an invariance assertion, same caveat as the derivative
    bound.
    """
    _, fk = leading_coefficient_form(F, var_pos)
    return apolar_length(LinearSeries.of_form(fk))


def bernardi_ranestad_upper(F: Polynomial, l: Polynomial) -> int:
    """Cactus upper bound: derivative-closure dimension of a
    dehomogenization of F at the linear form l."""
    return diff_closure_dim(dehomogenize(F, l))


def landsberg_teitler_det(n: int) -> int:
    """Closed-form Waring lower bound for the generic n x n determinant."""
    if n < 2:
        raise ValueError("determinant bound needs n >= 2")
    h = n // 2
    return math.comb(n, h) ** 2 + n * n - (h + 1) ** 2


# ----------------------------------------------------------------------
# report assembly


def _default_dehomogenization_var(F: Polynomial) -> int:
    """Last context variable occurring in F (a deterministic default)."""
    return max(i for m in F.terms for i, e in enumerate(m) if e)


def bound_report(
    W: LinearSeries,
    form_id: str,
    *,
    partial: DualForm | None = None,
    trials: int = 5,
    seed: int = 0,
    assertion: InvarianceAssertion = UNASSERTED,
    det_n: int | None = None,
) -> BoundReport:
    """Run every applicable bound and assemble a consistent report.

    With an explicit direction the derivative bound is reported under
    the caller's invariance assertion; without one, the generic variant
    runs with the given trial count and seed.  The determinant
    closed-form row is included only when the caller identifies the form
    as the n x n determinant.  A lower bound exceeding an upper bound in
    the same report raises, since that would mean the code is wrong.
    """
    entries: list[BoundEntry] = []

    hf = hilbert_function(W)
    t_star = max(range(len(hf.dims)), key=lambda t: hf.dims[t])
    entries.append(
        BoundEntry(
            name="sylvester",
            value=Fraction(hf.dims[t_star]),
            kind=KIND_LOWER_CACTUS,
            metadata={"hilbert": list(hf.dims), "argmax_degree": t_star},
        )
    )

    gens = minimal_generator_degrees(W)
    length = hf.total
    entries.append(
        BoundEntry(
            name="ranestad_schreyer",
            value=Fraction(length, gens.delta),
            kind=KIND_LOWER_CACTUS,
            metadata={"apolar_length": length, "delta": gens.delta},
        )
    )

    if partial is not None:
        kernel_dims = derivative_kernel_dims(W, partial)
        if assertion.asserted:
            caveat = (
                "valid as a cactus lower bound under the asserted invariance"
                + (f": {assertion.description}" if assertion.description else "")
            )
        else:
            caveat = (
                "invariance not asserted: valid only if the direction is "
                "generic or an invariance argument applies"
            )
        entries.append(
            BoundEntry(
                name="derivative",
                value=Fraction(sum(kernel_dims)),
                kind=KIND_LOWER_CACTUS,
                metadata={
                    "partial": format_polynomial(partial),
                    "invariance_asserted": assertion.asserted,
                    "caveat": caveat,
                    "kernel_dims": kernel_dims,
                },
            )
        )
    else:
        trial_results = generic_derivative_trials(W, trials, seed)
        values = [v for _, v in trial_results]
        entries.append(
            BoundEntry(
                name="generic_derivative",
                value=Fraction(min(values)),
                kind=KIND_LOWER_CACTUS,
                metadata={
                    "trials": trials,
                    "seed": seed,
                    "trial_values": values,
                    "partials": [format_polynomial(dl) for dl, _ in trial_results],
                    "caveat": "probabilistic: each sampled direction is generic "
                    "with probability 1",
                },
            )
        )

    if det_n is not None:
        entries.append(
            BoundEntry(
                name="landsberg_teitler_det",
                value=Fraction(landsberg_teitler_det(det_n)),
                kind=KIND_LOWER_WARING,
                metadata={"n": det_n},
            )
        )

    if W.dim == 1 and W.degree >= 1:
        F = W.reduced_basis[0]
        j = _default_dehomogenization_var(F)
        l = Polynomial.variable(W.context, j)
        entries.append(
            BoundEntry(
                name="bernardi_ranestad_upper",
                value=Fraction(bernardi_ranestad_upper(F, l)),
                kind=KIND_UPPER_CACTUS,
                metadata={"dehomogenized_at": W.context.names[j]},
            )
        )

    lowers = [b.value for b in entries if b.kind == KIND_LOWER_CACTUS]
    uppers = [b.value for b in entries if b.kind == KIND_UPPER_CACTUS]
    if lowers and uppers and max(lowers) > min(uppers):
        raise BoundConsistencyError(
            f"lower bound {max(lowers)} exceeds upper bound {min(uppers)} "
            f"for {form_id}"
        )
    return BoundReport(form_id, tuple(entries))
