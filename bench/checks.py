"""Correctness checks of job outputs, run outside the timed region.

Every number that has an independent route is checked against that
route, never against another output of the program:

* Hilbert functions of builtin families against
  ``catalog.closed_form_hilbert`` (formulas only), and of random series
  against ``tests/oracles.brute_hilbert``.
* Sylvester, Ranestad-Schreyer, the invariant derivative value and the
  determinant cactus upper bound ``C(2n,n) - 2`` against the
  closed-form table columns (``catalog.closed_form_table``).
* The Landsberg-Teitler bound of ``det:n`` against
  ``C(n, n//2)^2 + n^2 - (n//2 + 1)^2``, written out here: the table
  cell comes from the same ``bounds`` function as the reported value.
* The generic derivative value of ``monprod:n`` against ``C(n, n//2)``,
  and the Bernardi-Ranestad bound of ``monprod:n`` against ``2^(n-1)``
  (the closure of ``x[1]...x[n-1]`` is spanned by its square-free
  divisors).
* Each generic trial value against ``length(W) - length(dW)``, both
  lengths recomputed by the layer oracle below at the direction printed
  in the JSON.

Every JSON document must also re-serialize to itself.  A check that
fails is reported; the expected values are never adjusted to the
program.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from apolar import catalog  # noqa: E402
from apolar import Polynomial, VarContext  # noqa: E402
from apolar.catalog import closed_form_hilbert, closed_form_table, parse_family  # noqa: E402

import workloads  # noqa: E402


def _load_oracles():
    spec = importlib.util.spec_from_file_location("apolar_test_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


# ----------------------------------------------------------------------
# layer oracle: dim of the span of all derivatives, degree by degree,
# by textbook rational elimination on dict vectors


def _partial(terms: dict, i: int) -> dict:
    out: dict = {}
    for m, c in terms.items():
        e = m[i]
        if e:
            k = m[:i] + (e - 1,) + m[i + 1 :]
            out[k] = out.get(k, 0) + c * e
    return {k: v for k, v in out.items() if v}


def _independent(vectors) -> list[dict]:
    """A basis of the span, chosen from the given vectors."""
    pivots: dict = {}
    basis = []
    for vec in vectors:
        r = dict(vec)
        while r:
            p = min(r)
            row = pivots.get(p)
            if row is None:
                break
            c = r[p]
            for k, v in row.items():
                nv = r.get(k, 0) - c * v
                if nv:
                    r[k] = nv
                else:
                    r.pop(k, None)
        if r:
            p = min(r)
            c = r[p]
            pivots[p] = {k: Fraction(v) / c for k, v in r.items()}
            basis.append(vec)
    return basis


def layer_hilbert(forms: list[dict], n: int) -> list[int]:
    """dims[t] for t = 0..d of the span of all derivatives of the forms.

    Differentiating a basis of each degree piece spans the next lower
    piece, so each layer is reduced to a basis before going down.
    """
    forms = [f for f in forms if f]
    if not forms:
        return []
    d = sum(next(iter(forms[0])))
    layer = _independent(forms)
    dims = [0] * (d + 1)
    for t in range(d, -1, -1):
        dims[t] = len(layer)
        if t:
            layer = _independent(_partial(v, i) for v in layer for i in range(n))
    return dims


_LINEAR_TERM = re.compile(
    r"\s*([+-])?\s*(?:(\d+)\*)?d(?:_([A-Za-z_][A-Za-z0-9_]*))?\[(\d+(?:,\d+)*)\]\s*"
)


def parse_direction(text: str, names: list[str]) -> dict[int, int]:
    """Coefficients by variable position of a printed linear direction
    such as ``-37*d[1,1] + 5*d_y[2,3]`` (``d[...]`` differentiates
    ``x[...]``, ``d_y[...]`` differentiates ``y[...]``)."""
    pos = {name: i for i, name in enumerate(names)}
    out: dict[int, int] = {}
    at = 0
    while at < len(text):
        m = _LINEAR_TERM.match(text, at)
        if not m or m.end() == at:
            raise ValueError(f"cannot read direction {text!r}")
        sign, coeff, base, idx = m.groups()
        c = int(coeff) if coeff else 1
        out[pos[f"{base or 'x'}[{idx}]"]] = -c if sign == "-" else c
        at = m.end()
    return out


def derivative_forms(forms: list[dict], direction: dict[int, int]) -> list[dict]:
    out = []
    for f in forms:
        acc: dict = {}
        for i, c in direction.items():
            for k, v in _partial(f, i).items():
                acc[k] = acc.get(k, 0) + c * v
        out.append({k: v for k, v in acc.items() if v})
    return out


# ----------------------------------------------------------------------
# what a job is checked against


class Subject:
    """The input of one job as the checks see it: forms as term dicts in
    a known variable order, and the closed-form data if any."""

    def __init__(self, job: workloads.Job):
        self.job = job
        self.spec = parse_family(job.family) if job.family else None
        if self.spec is not None:
            W = catalog.build(self.spec)
            self.names = list(W.context.names)
            self.forms = [dict(f.terms) for f in W.forms]
        else:
            s = job.series
            self.names = s.names()
            self.forms = [dict(f) for f in s.forms]
        self.n = len(self.names)
        self.d = sum(next(iter(self.forms[0])))
        self._lengths: dict = {}
        self._hilbert = None

    def expected_hilbert(self) -> list[int]:
        if self._hilbert is None:
            if self.spec is not None:
                self._hilbert = list(closed_form_hilbert(self.spec))
            else:
                ctx = VarContext(tuple(self.names))
                self._hilbert = list(
                    oracles.brute_hilbert([Polynomial(ctx, f) for f in self.forms])
                )
        return self._hilbert

    def table_column(self) -> dict:
        """Closed-form table cells for det/pf/symdet at this n, else {}."""
        if self.spec is None or self.spec.family not in ("det", "pf", "symdet"):
            return {}
        n = self.spec.params[0]
        doc = closed_form_table(self.spec.family, max(n, 2))
        return {row.label: row.values[n - 2] for row in doc.rows}

    def length_after(self, direction: dict[int, int] | None) -> int:
        key = tuple(sorted(direction.items())) if direction else None
        if key not in self._lengths:
            forms = self.forms if direction is None else derivative_forms(self.forms, direction)
            self._lengths[key] = sum(layer_hilbert(forms, self.n))
        return self._lengths[key]

    def descriptors(self) -> dict:
        h = self.expected_hilbert()
        dim_s = sum(math.comb(self.n + t - 1, t) for t in range(self.d + 1))
        coeffs = [c for f in self.forms for c in f.values()]
        return {
            "n": self.n,
            "d": self.d,
            "dim_w": h[self.d],
            "terms": sum(len(f) for f in self.forms),
            "coeff_range": [str(min(coeffs)), str(max(coeffs))],
            "sum_h": sum(h),
            "sum_dim_s": dim_s,
            "useful_ratio": sum(h) / dim_s,
        }


def _frac(entry: dict) -> Fraction:
    return Fraction(entry["value_num"], entry["value_den"])


def _json_document(text: str) -> tuple[dict | None, list[str]]:
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]
    if json.dumps(obj, indent=2, sort_keys=True) + "\n" != text:
        return obj, ["JSON document does not re-serialize to itself"]
    return obj, []


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_hilbert(subject: Subject, obj: dict, problems: list[str]) -> None:
    h = subject.expected_hilbert()
    _expect(problems, "dims", obj.get("dims"), h)
    _expect(problems, "apolar_length", obj.get("apolar_length"), sum(h))
    _expect(problems, "degree", obj.get("degree"), len(h) - 1)


def check_bounds(subject: Subject, obj: dict, problems: list[str]) -> None:
    entries = {b["name"]: b for b in obj.get("bounds", [])}
    h = subject.expected_hilbert()
    column = subject.table_column()
    spec = subject.spec

    def need(name: str) -> dict | None:
        if name not in entries:
            problems.append(f"missing bound {name}")
        return entries.get(name)

    syl = need("sylvester")
    if syl:
        _expect(problems, "sylvester hilbert", syl["metadata"].get("hilbert"), h)
        _expect(problems, "sylvester", _frac(syl), Fraction(max(h)))
        if "Sylvester" in column:
            _expect(problems, "sylvester vs table", _frac(syl), column["Sylvester"])

    rs = need("ranestad_schreyer")
    if rs:
        delta = rs["metadata"].get("delta")
        _expect(problems, "ranestad_schreyer length", rs["metadata"].get("apolar_length"), sum(h))
        if not isinstance(delta, int) or not 1 <= delta <= subject.d + 1:
            problems.append(f"ranestad_schreyer delta {delta!r} outside 1..d+1")
        else:
            _expect(problems, "ranestad_schreyer", _frac(rs), Fraction(sum(h), delta))
        if "Ranestad-Schreyer-Shafiei" in column:
            _expect(problems, "ranestad_schreyer vs table", _frac(rs), column["Ranestad-Schreyer-Shafiei"])

    if "partial" in subject.job.extra:
        der = need("derivative")
        if der:
            direction = parse_direction(der["metadata"]["partial"], subject.names)
            want = subject.length_after(None) - subject.length_after(direction)
            _expect(problems, "derivative (oracle)", _frac(der), Fraction(want))
            if "Invariant derivative" in column:
                _expect(problems, "derivative vs table", _frac(der), column["Invariant derivative"])
    else:
        gen = need("generic_derivative")
        if gen:
            md = gen["metadata"]
            values, partials = md.get("trial_values", []), md.get("partials", [])
            _expect(problems, "trial count", len(values), md.get("trials"))
            _expect(problems, "partial count", len(partials), len(values))
            if values:
                _expect(problems, "generic_derivative", _frac(gen), Fraction(min(values)))
            base = subject.length_after(None)
            for text, value in zip(partials, values):
                direction = parse_direction(text, subject.names)
                _expect(problems, f"trial at {text}", value, base - subject.length_after(direction))
            if spec is not None and spec.family == "monprod":
                n = spec.params[0]
                _expect(problems, "monprod generic value", _frac(gen), Fraction(math.comb(n, n // 2)))

    if spec is not None and spec.family == "det":
        lt = need("landsberg_teitler_det")
        if lt:
            n, h = spec.params[0], spec.params[0] // 2
            _expect(problems, "landsberg_teitler closed form", _frac(lt),
                    Fraction(math.comb(n, h) ** 2 + n * n - (h + 1) ** 2))

    if len(subject.forms) == 1:
        br = need("bernardi_ranestad_upper")
        if br and spec is not None and spec.family == "det":
            _expect(problems, "bernardi_ranestad_upper vs table", _frac(br),
                    column["Upper bound for cactus rank"])
        if br and spec is not None and spec.family == "monprod":
            _expect(problems, "bernardi_ranestad_upper monprod", _frac(br),
                    Fraction(2 ** (spec.params[0] - 1)))


def check_library(subject: Subject, stdout: str, problems: list[str]) -> None:
    column = subject.table_column()
    try:
        value = int(stdout)
    except ValueError:
        problems.append(f"library output {stdout!r} is not an integer")
        return
    _expect(problems, "bernardi_ranestad_upper vs table", Fraction(value),
            column["Upper bound for cactus rank"])


def check_output(subject: Subject, code, stdout: str) -> list[str]:
    """Problems with one job's output; empty when it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    problems: list[str] = []
    job = subject.job
    if job.kind == "library":
        check_library(subject, stdout, problems)
        return problems
    obj, problems = _json_document(stdout)
    if obj is None:
        return problems
    try:
        if job.argv[0] == "hilbert":
            check_hilbert(subject, obj, problems)
        else:
            check_bounds(subject, obj, problems)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems
