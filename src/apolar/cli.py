"""Command-line front end.

Commands: ``bounds``, ``table``, ``hilbert``, ``apolar-gens``,
``verify-decomposition``, ``matmul``.  Forms come from ``builtin:<id>``
(see the catalog module) or from a UTF-8 file with one polynomial per
line (several lines make a linear series).  Output formats: markdown
(default), csv, json; identical invocations produce byte-identical
output.

Exit codes: 0 success, 1 parse failure (bad polynomial text, bad dual
form, bad decomposition coefficient, unreadable file), 2 invalid
parameters, an argument over its limit, an oversized form file or
builtin id, (``bounds``, ``apolar-gens``) a generator count over its
size limit, or (``verify-decomposition``) an expansion of the powers
over its size limit.
A completed verify-decomposition exits 0 whether the verdict is pass or fail.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import catalog
from .apolarity import (
    LinearSeries,
    NoVariablesError,
    hilbert_function,
    length_bound,
    minimal_generator_degrees,
    minimal_generators,
)
from .bounds import bound_report
from .catalog import FamilySpec, TableDoc, closed_form_table, parse_family
from .poly import (
    ParseError,
    Rational,
    evaluate_decomposition,
    format_polynomial,
    parse_dual_form,
    parse_polynomial_list,
)

VERIFY_N_CAP = 5  # verify mode recomputes columns up to this n
# inputs over these limits exit 2 before any work
MAX_LENGTH_BOUND = 500_000  # apolar length of a form file (a-priori) or builtin
# unknowns the generator count eliminates (checked before the count: from
# the closed form for a builtin that has one, and once the layers are built)
MAX_PROLONGATION_SIZE = 200_000
# terms times variables of a builtin or form file, and terms times
# variables plus degree of an expanded decomposition
MAX_BUILD_SIZE = 10_000_000
MAX_TRIALS = 1000  # bounds --trials
MAX_TABLE_N = 100  # table --n-max
MAX_MATMUL_SIZE = 16  # matmul --p, --q and --r

# a decomposition coefficient: an integer or a fraction in ASCII digits
# (``Fraction`` alone also reads decimals and exponents, and spends
# minutes on ``1e100000000``)
_COEFF_RE = re.compile(r"[-+]?[0-9]+(?:/[0-9]+)?\Z")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ----------------------------------------------------------------------
# value formatting (mirrors the reference tables: integers bare, halves
# as one decimal digit, other rationals as num/den)


def fmt_cell(q: Rational) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    if q.denominator == 2:
        sign = "-" if q < 0 else ""
        a = abs(q)
        return f"{sign}{a.numerator // 2}.5"
    return f"{q.numerator}/{q.denominator}"


# ----------------------------------------------------------------------
# form loading


def _read_lines(path: str) -> list[tuple[int, str]]:
    """The numbered lines of a UTF-8 file that are neither blank nor ``#``
    comments, as they are in the file.  A file that cannot be opened or
    decoded exits 1, named in the message."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"error: cannot read {path!r}: {exc}", 1) from exc
    numbered = enumerate(text.splitlines(), start=1)
    return [(i, ln) for i, ln in numbered if ln.strip() and not ln.lstrip().startswith("#")]


def load_series(src: str, count: bool = False) -> tuple[LinearSeries, FamilySpec | None]:
    """The series a ``--form`` argument names and its family (None for a
    form file).  Over-limit input exits 2 before it is built.  With
    ``count``, so does a builtin with a closed-form Hilbert function
    whose generator count would eliminate more than
    MAX_PROLONGATION_SIZE unknowns; every series is checked by its
    command, from its layers, once the arguments are
    (:func:`_check_prolongation_size`)."""
    if src.startswith("builtin:"):
        spec = parse_family(src[len("builtin:") :])
        catalog.check_size(spec, MAX_BUILD_SIZE, MAX_LENGTH_BOUND)
        if count:
            try:
                dims = catalog.closed_form_hilbert(spec)
            except catalog.NoClosedFormError:
                pass  # perm: checked by its command once built
            else:
                _check_prolongation_size(src, catalog.variable_count(spec), dims)
        return catalog.build(spec), spec
    numbered = _read_lines(src)
    if not numbered:
        raise CliError(f"error: form file {src!r} contains no polynomials", 1)
    try:
        forms = parse_polynomial_list([ln for _, ln in numbered], max_size=MAX_BUILD_SIZE)
    except ParseError:
        # each line parses on its own, so the first line that fails alone
        # is the one that failed; a line holds no newline, so the error
        # is on its line 1
        for lineno, line in numbered:
            try:
                parse_polynomial_list([line])
            except ParseError as exc:
                raise CliError(
                    f"error: {src}: line {lineno}, column {exc.col}: {exc.message}", 1
                ) from exc
        raise
    except ValueError as exc:
        raise CliError(f"error: form file {src!r} is too large: {exc}", 2) from exc
    try:
        W = LinearSeries.of_forms(forms)
    except NoVariablesError as exc:
        raise CliError(f"error: form file {src!r} has no variables", 2) from exc
    except ValueError as exc:
        raise CliError(f"error: {src}: {exc}", 2) from exc
    bound = length_bound(len(W.context), W.degree, W.dim)
    if bound > MAX_LENGTH_BOUND:
        try:
            shown = str(bound)
        except ValueError:  # more digits than the interpreter converts
            # 10^m < 2^(bits-1) <= bound, as 0.301029995 < log10(2)
            shown = f"more than 10^{(bound.bit_length() - 1) * 301029995 // 10**9}"
        raise CliError(
            f"error: form file {src!r} is too large: its apolar length may reach "
            f"{shown}, over the limit of {MAX_LENGTH_BOUND}",
            2,
        )
    return W, None


# ----------------------------------------------------------------------
# renderers


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(header) + " |"]
    out.append("| --- " + "".join("| ---: " for _ in header[1:]) + "|")
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out) + "\n"


def _csv_line(cells: list[str]) -> str:
    quoted = []
    for c in cells:
        if any(ch in c for ch in ',"\n'):
            c = '"' + c.replace('"', '""') + '"'
        quoted.append(c)
    return ",".join(quoted)


def _emit(fmt: str, doc: dict, csv_rows: list[list[str]], text: str) -> str:
    """A command's output in ``fmt``: ``doc`` as indented sorted-key JSON,
    ``csv_rows`` as CSV lines, or the markdown ``text`` as it is."""
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return "\n".join(_csv_line(r) for r in csv_rows) + "\n"
    return text


def render_table(doc: TableDoc, fmt: str, checks: dict[int, dict[str, str]] | None) -> str:
    def cell(label: str, n: int, value) -> str:
        text = fmt_cell(value)
        if checks is not None and n in checks and label in checks[n]:
            text += f" ({checks[n][label]})"
        return text

    header = ["n"] + [str(n) for n in doc.ns]
    body = [
        [row.label] + [cell(row.label, n, v) for n, v in zip(doc.ns, row.values)]
        for row in doc.rows
    ]
    obj = {
        "family": doc.family,
        "n": list(doc.ns),
        "rows": [
            {"label": row.label, "kind": row.kind, "values": cells[1:]}
            for row, cells in zip(doc.rows, body)
        ],
    }
    return _emit(fmt, obj, [header] + body, _markdown_table(header, body))


def render_bounds(report, fmt: str) -> str:
    rows = [["name", "value_num", "value_den", "integer_value", "kind"]] + [
        [
            b.name,
            str(b.value.numerator),
            str(b.value.denominator),
            str(b.integer_value),
            b.kind,
        ]
        for b in report.bounds
    ]
    lines = [f"# bounds: {report.form_id}", ""]
    body = [
        [b.name, fmt_cell(b.value), str(b.integer_value), b.kind]
        for b in report.bounds
    ]
    lines.append(_markdown_table(["name", "value", "ceiling", "kind"], body).rstrip())
    br = report.brackets()

    def fmt_interval(d: dict) -> str:
        lo = "?" if d["lower"] is None else str(d["lower"])
        hi = "?" if d["upper"] is None else str(d["upper"])
        return f"[{lo}, {hi}]"

    lines.append("")
    lines.append(
        "brackets: cactus rank in "
        + fmt_interval(br["cactus_rank"])
        + ", smoothable rank in "
        + fmt_interval(br["smoothable_rank"])
        + ", Waring rank in "
        + fmt_interval(br["waring_rank"])
    )
    notes = []
    for b in report.bounds:
        md = b.metadata
        for key in ("partial", "caveat", "dehomogenized_at"):
            if key in md:
                notes.append(f"- {b.name}: {key} = {md[key]}")
        if "trial_values" in md:
            notes.append(
                f"- {b.name}: trials = {md['trials']}, seed = {md['seed']}, "
                f"values = {md['trial_values']}"
            )
    if notes:
        lines.append("")
        lines.append("notes:")
        lines.extend(notes)
    return _emit(fmt, report.to_dict(), rows, "\n".join(lines) + "\n")


def render_hilbert(form_id: str, dims: list[int], fmt: str) -> str:
    total = sum(dims)
    doc = {
        "form_id": form_id,
        "dims": dims,
        "degree": len(dims) - 1,
        "apolar_length": total,
    }
    rows = [["t", "dim"]] + [[str(t), str(v)] for t, v in enumerate(dims)]
    text = (
        f"Hilbert function of {form_id}: [{', '.join(str(v) for v in dims)}]\n"
        f"degree: {len(dims) - 1}\n"
        f"apolar length: {total}\n"
    )
    return _emit(fmt, doc, rows, text)


def render_generators(form_id: str, gens: dict, delta: int, fmt: str) -> str:
    blocks = [
        (t, [format_polynomial(g) for g in gs]) for t, gs in sorted(gens.items())
    ]
    doc = {
        "form_id": form_id,
        "delta": delta,
        "generators": [
            {"degree": t, "count": len(texts), "generators": texts}
            for t, texts in blocks
        ],
    }
    header = ["degree", "count", "generators"]
    body = [[str(t), str(len(texts)), "; ".join(texts)] for t, texts in blocks]
    lines = [f"# annihilator generators: {form_id}", ""]
    lines.append(_markdown_table(header, body).rstrip())
    lines.append("")
    lines.append(f"delta: {delta}")
    return _emit(fmt, doc, [header] + body, "\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# commands


def _at_most(flag: str, value: int, limit: int) -> None:
    if value > limit:
        raise CliError(f"error: {flag} must be at most {limit}", 2)


def _check_prolongation_size(form_id: str, n: int, dims: tuple[int, ...]) -> None:
    """Exit 2 before the generator count of a series in n variables with
    Hilbert function ``dims`` if it would eliminate more than
    MAX_PROLONGATION_SIZE unknowns: ``n * h(t-1)`` for each degree t
    whose layer t-1 is not all of R_{t-1} (see
    ``apolarity.minimal_generator_degrees``).  n is the context's length,
    which can exceed h(1) (``matmul``)."""
    size = sum(n * h for s, h in enumerate(dims) if h != math.comb(n + s - 1, s))
    if size > MAX_PROLONGATION_SIZE:
        raise CliError(
            f"error: {form_id}: counting its annihilator generators means "
            f"eliminating {size} unknowns, over the limit of {MAX_PROLONGATION_SIZE}",
            2,
        )


def cmd_bounds(args) -> str:
    W, spec = load_series(args.form, count=True)
    if args.trials < 1:
        raise CliError("error: --trials must be at least 1", 2)
    _at_most("--trials", args.trials, MAX_TRIALS)
    if args.assert_invariance is not None and args.partial is None:
        raise CliError("error: --assert-invariance needs --partial", 2)
    partial = None
    if args.partial is not None:
        try:
            partial = parse_dual_form(args.partial, W.context)
        except ParseError as exc:
            raise CliError(f"error: --partial: {exc}", 1) from exc
        if not partial.is_linear_form():
            raise CliError("error: --partial must be a nonzero linear dual form", 2)
    _check_prolongation_size(args.form, len(W.context), hilbert_function(W))
    # the Landsberg-Teitler bound is defined from n = 2 on (det:1 is x)
    det_n = spec.params[0] if spec and spec.family == "det" and spec.params[0] >= 2 else None
    report = bound_report(
        W,
        args.form,
        partial=partial,
        trials=args.trials,
        seed=args.seed,
        invariance=args.assert_invariance,
        det_n=det_n,
    )
    return render_bounds(report, args.format)


def cmd_table(args) -> str:
    _at_most("--n-max", args.n_max, MAX_TABLE_N)
    doc = closed_form_table(args.family, args.n_max)
    checks = None
    if args.mode == "verify":
        checks = {}
        for n in [n for n in doc.ns if n <= VERIFY_N_CAP]:
            col = catalog.verify_table_column(args.family, n)
            marks = {}
            for row in doc.rows:
                if row.label in col:
                    expected = row.values[n - 2]
                    marks[row.label] = "ok" if col[row.label] == expected else "MISMATCH"
            checks[n] = marks
    return render_table(doc, args.format, checks)


def cmd_hilbert(args) -> str:
    W, _ = load_series(args.form)
    return render_hilbert(args.form, list(hilbert_function(W)), args.format)


def cmd_apolar_gens(args) -> str:
    W, _ = load_series(args.form, count=True)
    max_degree = args.max_degree if args.max_degree is not None else W.degree + 1
    if max_degree < 1:
        raise CliError("error: --max-degree must be at least 1", 2)
    _check_prolongation_size(args.form, len(W.context), hilbert_function(W))
    gens = minimal_generators(W, max_degree)
    delta = minimal_generator_degrees(W).delta
    return render_generators(args.form, gens, delta, args.format)


def cmd_verify_decomposition(args) -> str:
    W, _ = load_series(args.form)
    if W.dim != 1:
        raise CliError(
            "error: decomposition verification needs a single form, "
            f"got a series of dimension {W.dim}",
            2,
        )
    target = W.reduced_basis[0]
    coeffs: list[Rational] = []
    forms = []
    for lineno, line in _read_lines(args.file):
        coeff_text, sep, form_text = line.strip().partition(";")
        if not sep:
            raise CliError(
                f"error: {args.file}:{lineno}: expected 'coeff ; linear-form'", 1
            )
        coeff_text = coeff_text.strip()
        try:
            coeff = Fraction(coeff_text) if _COEFF_RE.match(coeff_text) else None
        except (ValueError, ZeroDivisionError):  # an over-long numeral, or x/0
            coeff = None
        if coeff is None:
            raise CliError(
                f"error: {args.file}:{lineno}: bad coefficient {coeff_text!r}", 1
            )
        try:
            form = parse_polynomial_list([form_text], W.context)[0]
        except ParseError as exc:
            raise CliError(f"error: {args.file}:{lineno}: {exc}", 1) from exc
        if not form.is_linear_form():
            raise CliError(
                f"error: {args.file}:{lineno}: {form_text.strip()!r} is not a "
                "nonzero linear form",
                2,
            )
        coeffs.append(coeff)
        forms.append(form)
    if not forms:
        raise CliError(f"error: {args.file}: no summands found", 1)
    # the d-th power of a summand in k variables has C(k+d-1, d) terms,
    # each a product of d positions made an exponent tuple as long as the
    # context: the work grows with terms times (n + d)
    d, n = W.degree, len(W.context)
    terms = sum(math.comb(len(form.terms) + d - 1, d) for form in forms)
    if terms * (n + d) > MAX_BUILD_SIZE:
        raise CliError(
            f"error: {args.file}: expanding its powers means {terms} terms times "
            f"{n} variables plus degree {d}, {terms * (n + d)}, over the limit "
            f"of {MAX_BUILD_SIZE}",
            2,
        )
    total = evaluate_decomposition(forms, coeffs, d)
    status = "pass" if total == target else "fail"
    text = f"{status} ({len(forms)} summands)"
    if status == "fail":
        text += (
            ": decomposition differs from the target, "
            f"difference has {len((total - target).terms)} terms"
        )
    return _emit(
        args.format,
        {"form_id": args.form, "status": status, "summands": len(forms)},
        [["status", "summands"], [status, str(len(forms))]],
        text + "\n",
    )


def cmd_matmul(args) -> str:
    for flag in ("p", "q", "r"):
        _at_most(f"--{flag}", getattr(args, flag), MAX_MATMUL_SIZE)
    rw, tensor = catalog.matmul_bound(args.p, args.q, args.r)
    doc = {
        "p": args.p,
        "q": args.q,
        "r": args.r,
        "rW_lower": rw,
        "tensor_lower": tensor,
    }
    text = (
        f"matmul({args.p},{args.q},{args.r}): r(W) >= {rw}, "
        f"tensor rank >= {tensor}\n"
    )
    return _emit(args.format, doc, [list(doc), [str(v) for v in doc.values()]], text)


# ----------------------------------------------------------------------
# argument parsing


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=("markdown", "csv", "json"),
        default="markdown",
        help="output format (default: markdown)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="apolar",
        description="Exact apolarity computations and Waring/cactus rank bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate all applicable rank bounds")
    p.add_argument("--form", required=True, help="builtin:<id> or a polynomial file")
    p.add_argument("--partial", help="dual form text, e.g. 'd[1,1]'")
    p.add_argument("--trials", type=int, default=5, help="random directions (default 5)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p.add_argument(
        "--assert-invariance",
        nargs="?",
        const="",
        metavar="NOTE",
        help="record that the form is invariant and the --partial direction "
        "lies in no proper subrepresentation (never verified); NOTE "
        "describes the action",
    )
    _add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table", help="reference bound tables")
    p.add_argument("family", choices=catalog.table_families())
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument(
        "--mode",
        choices=("closed-form", "verify"),
        default="closed-form",
        help="verify recomputes small-n columns from polynomial arithmetic",
    )
    _add_format(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("hilbert", help="Hilbert function of the apolar algebra")
    p.add_argument("--form", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("apolar-gens", help="minimal generators of the annihilator")
    p.add_argument("--form", required=True)
    p.add_argument("--max-degree", type=int, help="default: degree + 1")
    _add_format(p)
    p.set_defaults(func=cmd_apolar_gens)

    p = sub.add_parser(
        "verify-decomposition",
        help="check a power-sum decomposition file against a form",
    )
    p.add_argument("--form", required=True)
    p.add_argument("--file", required=True, help="lines of 'coeff ; linear-form'")
    _add_format(p)
    p.set_defaults(func=cmd_verify_decomposition)

    p = sub.add_parser("matmul", help="matrix-multiplication tensor rank bound")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_matmul)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sys.stdout.write(args.func(args))
    except CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input is too large for this process", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
