"""Command-line front end.

Commands: ``bounds``, ``table``, ``hilbert``, ``apolar-gens``,
``verify-decomposition``, ``matmul``.  Forms come from ``builtin:<id>``
(see the catalog module) or from a UTF-8 file with one polynomial per
line (several lines make a linear series).  Output formats: markdown
(default), csv, json; identical invocations produce byte-identical
output.

Exit codes: 0 success, 1 parse failure (bad polynomial text, bad dual
form, unreadable file), 2 invalid parameters.  A completed
verify-decomposition exits 0 whether the verdict is pass or fail.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog
from .apolarity import (
    LinearSeries,
    NoVariablesError,
    hilbert_function,
    minimal_generator_degrees,
    minimal_generators,
)
from .bounds import InvarianceAssertion, bound_report
from .catalog import FamilySpec, TableDoc, closed_form_table, parse_family
from .poly import (
    ParseError,
    PolyError,
    Rational,
    evaluate_decomposition,
    format_polynomial,
    parse_dual_form,
    parse_polynomial_list,
)

VERIFY_N_CAP = 4  # verify mode recomputes columns up to this n


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


def load_series(src: str) -> tuple[LinearSeries, str, FamilySpec | None]:
    if src.startswith("builtin:"):
        try:
            spec = parse_family(src[len("builtin:") :])
            return catalog.build(spec), src, spec
        except ValueError as exc:
            raise CliError(f"error: {exc}", 2) from exc
    try:
        with open(src, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"error: cannot read form file {src!r}: {exc}", 1) from exc
    lines = [
        ln for ln in (raw.strip() for raw in text.splitlines())
        if ln and not ln.startswith("#")
    ]
    if not lines:
        raise CliError(f"error: form file {src!r} contains no polynomials", 1)
    try:
        forms = parse_polynomial_list(lines)
    except ParseError as exc:
        raise CliError(f"error: {src}: {exc}", 1) from exc
    try:
        W = LinearSeries.of_forms(forms)
    except NoVariablesError as exc:
        raise CliError(f"error: form file {src!r} has no variables", 2) from exc
    except ValueError as exc:
        raise CliError(f"error: {src}: {exc}", 2) from exc
    return W, src, None


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


def cmd_bounds(args) -> str:
    W, form_id, spec = load_series(args.form)
    if args.trials < 1:
        raise CliError("error: --trials must be at least 1", 2)
    partial = None
    if args.partial is not None:
        try:
            partial = parse_dual_form(args.partial, W.context)
        except ParseError as exc:
            raise CliError(f"error: --partial: {exc}", 1) from exc
        if not partial.is_linear_form():
            raise CliError("error: --partial must be a nonzero linear dual form", 2)
    assertion = InvarianceAssertion(
        args.assert_invariance, args.invariance_note or ""
    )
    det_n = spec.params[0] if spec and spec.family == "det" else None
    report = bound_report(
        W,
        form_id,
        partial=partial,
        trials=args.trials,
        seed=args.seed,
        assertion=assertion,
        det_n=det_n,
    )
    return render_bounds(report, args.format)


def cmd_table(args) -> str:
    try:
        doc = closed_form_table(args.family, args.n_max)
    except ValueError as exc:
        raise CliError(f"error: {exc}", 2) from exc
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
    W, form_id, _ = load_series(args.form)
    dims = list(hilbert_function(W))
    return render_hilbert(form_id, dims, args.format)


def cmd_apolar_gens(args) -> str:
    W, form_id, _ = load_series(args.form)
    max_degree = args.max_degree if args.max_degree is not None else W.degree + 1
    if max_degree < 1:
        raise CliError("error: --max-degree must be at least 1", 2)
    gens = minimal_generators(W, max_degree)
    delta = minimal_generator_degrees(W).delta
    return render_generators(form_id, gens, delta, args.format)


def cmd_verify_decomposition(args) -> str:
    W, form_id, _ = load_series(args.form)
    if W.dim != 1:
        raise CliError(
            "error: decomposition verification needs a single form, "
            f"got a series of dimension {W.dim}",
            2,
        )
    target = W.reduced_basis[0]
    try:
        with open(args.file, encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise CliError(f"error: cannot read {args.file!r}: {exc}", 1) from exc
    coeffs: list[Rational] = []
    forms = []
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        coeff_text, sep, form_text = line.partition(";")
        if not sep:
            raise CliError(
                f"error: {args.file}:{lineno}: expected 'coeff ; linear-form'", 1
            )
        coeff_text = coeff_text.strip()
        try:
            coeff = Fraction(coeff_text)
        except (ValueError, ZeroDivisionError):
            raise CliError(
                f"error: {args.file}:{lineno}: bad coefficient {coeff_text!r}", 1
            ) from None
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
    total = evaluate_decomposition(forms, coeffs, W.degree)
    status = "pass" if total == target else "fail"
    text = f"{status} ({len(forms)} summands)"
    if status == "fail":
        text += (
            ": decomposition differs from the target, "
            f"difference has {len((total - target).terms)} terms"
        )
    return _emit(
        args.format,
        {"form_id": form_id, "status": status, "summands": len(forms)},
        [["status", "summands"], [status, str(len(forms))]],
        text + "\n",
    )


def cmd_matmul(args) -> str:
    try:
        rw, tensor = catalog.matmul_bound(args.p, args.q, args.r)
    except ValueError as exc:
        raise CliError(f"error: {exc}", 2) from exc
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


def build_parser() -> argparse.ArgumentParser:
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
        action="store_true",
        help="record that the form is invariant and the direction lies in "
        "no proper subrepresentation (never verified)",
    )
    p.add_argument("--invariance-note", help="free-text description of the action")
    _add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table", help="reference bound tables")
    p.add_argument("family", choices=("det", "pf", "symdet"))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sys.stdout.write(args.func(args))
    except CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
