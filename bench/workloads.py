"""Workload definitions: the job list of each workload and the seeded
random series generator.

A job is one user request.  Most jobs are one ``apolar`` command line,
run in-process through ``apolar.cli.main``; the ``family_bounds``
workload also holds one library call (the Bernardi-Ranestad upper bound
on ``det:6``), the only way to reach the Fraction span-closure path at
that size.  The seed orders the jobs, seeds the program's own sampling
(``bounds --seed``) and, for ``random_series``, draws the input forms.
Everything here is a pure function of the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("families_hilbert", "family_bounds", "random_series")

HILBERT_FAMILIES = (
    "det:4", "symdet:4", "monprod:7", "monprod:8", "pf:4", "minors:3,4,2", "matmul:2,3,2",
)
BOUNDS_FAMILIES = (
    "det:4", "pf:3", "symdet:4", "monprod:6", "monprod:7", "minors:3,3,2", "matmul:2,3,2",
)
BOUNDS_TRIALS = 5
SERIES_PER_CELL = 2
SERIES_TRIALS = 3
SERIES_DENSITY = 0.6
SERIES_COEFFS = tuple(c for c in range(-9, 10) if c)
LIBRARY_DET_N = 6


@dataclass(frozen=True)
class Series:
    """One random linear series: forms as ``{exponents: coefficient}``."""

    n: int
    d: int
    forms: tuple[dict, ...]

    def names(self) -> list[str]:
        return [f"x[{i}]" for i in range(1, self.n + 1)]

    def text(self) -> str:
        lines = [f"# random series: n={self.n}, d={self.d}, forms={len(self.forms)}"]
        lines += [format_form(f, self.names()) for f in self.forms]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Job:
    """One request.  ``kind`` is ``cli`` (``argv`` for ``apolar.cli.main``)
    or ``library`` (the README library call named by ``family``)."""

    key: str
    kind: str
    argv: tuple[str, ...] = ()
    family: str | None = None
    series: Series | None = None
    extra: dict = field(default_factory=dict)


def monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of degree d in n variables, in a fixed order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


def format_form(terms: dict, names: list[str]) -> str:
    pieces = []
    for mono, c in sorted(terms.items(), reverse=True):
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
        body = "*".join(factors)
        if abs(c) != 1:
            body = f"{abs(c)}*{body}"
        sign = "-" if c < 0 else "+"
        pieces.append(body if not pieces and c > 0 else f"{sign} {body}")
    return " ".join(pieces)


def random_series(seed: int) -> list[Series]:
    """Dense random series, SERIES_PER_CELL of each (n, d, forms) cell with
    n in {3,4}, d in {3,4,5} and 1 to 3 forms.  Each monomial is present
    with probability SERIES_DENSITY, with a nonzero integer coefficient
    in [-9, 9].  Every variable occurs, so the context the program
    infers from the text has all n variables.

    The cells are fixed rather than drawn: job cost grows about 60-fold
    from the smallest cell to the largest, so drawing them would make the
    cost of a pass depend on the seed."""
    rng = random.Random(seed)
    out = []
    for n, d, k in itertools.product((3, 4), (3, 4, 5), (1, 2, 3)):
        monos = monomials(n, d)
        made = 0
        while made < SERIES_PER_CELL:
            forms = []
            while len(forms) < k:
                terms = {
                    m: Fraction(rng.choice(SERIES_COEFFS))
                    for m in monos
                    if rng.random() < SERIES_DENSITY
                }
                if terms:
                    forms.append(terms)
            if all(any(m[i] for f in forms for m in f) for i in range(n)):
                out.append(Series(n, d, tuple(forms)))
                made += 1
    return out


def _bounds_argv(form: str, seed: int, trials: int) -> tuple[str, ...]:
    return (
        "bounds", "--form", form, "--trials", str(trials), "--seed", str(seed),
        "--format", "json",
    )


def jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass, in the order the seed gives.

    For ``random_series`` the argv names each series file by a fixed
    name relative to the working directory, so argv and output depend on
    the seed only; :func:`write_inputs` creates the files.
    """
    if workload == "families_hilbert":
        out = [
            Job(f"hilbert {f}", "cli", ("hilbert", "--form", f"builtin:{f}", "--format", "json"), family=f)
            for f in HILBERT_FAMILIES
        ]
    elif workload == "family_bounds":
        out = [
            Job(f"bounds {f}", "cli", _bounds_argv(f"builtin:{f}", seed, BOUNDS_TRIALS), family=f)
            for f in BOUNDS_FAMILIES
        ]
        out.append(
            Job(
                "bounds det:3 partial",
                "cli",
                ("bounds", "--form", "builtin:det:3", "--partial", "d[1,1]",
                 "--assert-invariance", "--format", "json"),
                family="det:3",
                extra={"partial": "d[1,1]"},
            )
        )
        out.append(
            Job(
                f"library bernardi_ranestad_upper det:{LIBRARY_DET_N}",
                "library",
                family=f"det:{LIBRARY_DET_N}",
                extra={"at": f"x[{LIBRARY_DET_N},{LIBRARY_DET_N}]"},
            )
        )
    elif workload == "random_series":
        out = []
        for i, s in enumerate(random_series(seed)):
            key = f"series {i:02d} n={s.n} d={s.d} forms={len(s.forms)}"
            argv = _bounds_argv(f"series_{i:02d}.txt", seed, SERIES_TRIALS)
            out.append(Job(key, "cli", argv, series=s))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    random.Random(seed).shuffle(out)
    return out


def write_inputs(job_list: list[Job]) -> None:
    """Write the polynomial file of every series job, at the path its
    argv names (relative paths from the working directory)."""
    for job in job_list:
        if job.series is not None:
            Path(job.argv[2]).write_text(job.series.text(), encoding="utf-8")
