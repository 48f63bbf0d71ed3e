"""Rank bounds from apolarity data, and auditable bound reports.

Lower bounds for the cactus rank of a series W (hence for smoothable and
Waring rank of its forms):

* Sylvester: any graded dimension of the apolar algebra.
* Ranestad-Schreyer: apolar length divided by the top generator degree
  of the annihilator.
* Derivative bound: apolar length of W minus apolar length of the
  derivative series DW, for a linear dual direction D.  Valid when D is
  generic, or for any D that lies in no proper subrepresentation when W
  is invariant under a connected group action.  The latter cannot be
  checked here: the caller claims it for a given D with one optional
  string describing the action (``bound_report(..., invariance=...)``,
  ``bounds --partial D --assert-invariance [NOTE]``), and the report
  records the claim as unverified.  The bound is read off W's cached
  layers without building DW, as the sum of the kernels
  ``apolarity.derivative_kernel_dims`` lists (the identity is stated
  there).

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
    coordinate_closure_dim,
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
    return max(hilbert_function(W))


def ranestad_schreyer_bound(W: LinearSeries) -> Rational:
    """Apolar length over the top minimal-generator degree (exact rational)."""
    gens = minimal_generator_degrees(W)
    return Fraction(apolar_length(W), gens.delta)


def derivative_bound(W: LinearSeries, partial: DualForm) -> int:
    """Apolar length of W minus apolar length of the derivative series DW:
    the sum of :func:`apolarity.derivative_kernel_dims`, which states
    why.  When DW is zero every kernel is the whole layer, and the bound
    is the apolar length of W itself.
    """
    return sum(derivative_kernel_dims(W, partial))


def random_linear_dual(context: VarContext, rng: random.Random) -> DualForm:
    """Random direction with integer coefficients in [-99, 99]; an
    all-zero draw is redrawn."""
    while True:
        coeffs = [rng.randint(-99, 99) for _ in range(len(context))]
        if any(coeffs):
            return DualForm.from_products(context, ((c, (i,)) for i, c in enumerate(coeffs)))


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


def bernardi_ranestad_upper(F: Polynomial, l: Polynomial) -> int:
    """Cactus upper bound: derivative-closure dimension of a
    dehomogenization of F at the linear form l.

    At a coordinate direction ``l = a * x_j``, the one every bound
    report takes, a nonzero homogeneous F is dehomogenized on packed
    keys (:func:`apolarity.coordinate_closure_dim`), with no
    ``Polynomial`` built.  Any other direction or form goes through
    :func:`poly.dehomogenize` and :func:`apolarity.diff_closure_dim`,
    which also raise on bad input; the two routes give the same value."""
    if (isinstance(l, Polynomial) and l.is_linear_form() and len(l.terms) == 1
            and l.context == F.context and F.is_homogeneous() and not F.is_zero):
        [(m, a)] = l.terms.items()
        return coordinate_closure_dim(F, m.index(1), a)
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
    invariance: str | None = None,
    det_n: int | None = None,
) -> BoundReport:
    """Run every applicable bound and assemble a consistent report.

    With an explicit direction the derivative bound is reported with
    its caveat: ``invariance`` None makes no claim, and any string
    (``""`` included) claims, unverified, that W is invariant under a
    connected group for which the direction lies in no proper
    subrepresentation, the string describing the action.  A claim needs
    a direction, so ``invariance`` without ``partial`` raises
    ValueError.  Without a direction the generic variant runs with the
    given trial count and seed.  The determinant closed-form row is
    included only when the caller identifies the form as the n x n
    determinant.  A lower bound exceeding an upper bound in the same
    report raises, since that would mean the code is wrong.
    """
    if invariance is not None and partial is None:
        raise ValueError("an invariance claim needs a direction (partial)")
    entries: list[BoundEntry] = []

    hf = hilbert_function(W)
    t_star = max(range(len(hf)), key=lambda t: hf[t])
    entries.append(
        BoundEntry(
            name="sylvester",
            value=Fraction(hf[t_star]),
            kind=KIND_LOWER_CACTUS,
            metadata={"hilbert": list(hf), "argmax_degree": t_star},
        )
    )

    gens = minimal_generator_degrees(W)
    length = sum(hf)
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
        if invariance is not None:
            caveat = "valid as a cactus lower bound under the asserted invariance" + (
                f": {invariance}" if invariance else ""
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
                    "invariance_asserted": invariance is not None,
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
