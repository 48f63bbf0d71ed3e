import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apolar import apolarity, catalog, cli
from apolar.cli import build_parser, fmt_cell, main
from fractions import Fraction

DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# formatting rule for table cells


def test_fmt_cell():
    assert fmt_cell(Fraction(7)) == "7"
    assert fmt_cell(Fraction(5, 2)) == "2.5"
    assert fmt_cell(Fraction(429, 2)) == "214.5"
    assert fmt_cell(Fraction(-5, 2)) == "-2.5"
    assert fmt_cell(Fraction(1, 4)) == "1/4"
    assert fmt_cell(Fraction(2, 3)) == "2/3"


# ----------------------------------------------------------------------
# tables


DET_TABLE = """\
| n | 2 | 3 | 4 | 5 | 6 | 7 | 8 |
| --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: |
| Sylvester | 4 | 9 | 36 | 100 | 400 | 1225 | 4900 |
| Landsberg-Teitler | 4 | 14 | 43 | 116 | 420 | 1258 | 4939 |
| Ranestad-Schreyer-Shafiei | 3 | 10 | 35 | 126 | 462 | 1716 | 6435 |
| Invariant derivative | 4 | 14 | 50 | 182 | 672 | 2508 | 9438 |
| Upper bound for cactus rank | 4 | 18 | 68 | 250 | 922 | 3430 | 12868 |
| Upper bound for Waring rank | 4 | 20 | 160 | 1600 | 16000 | 224000 | 3584000 |
"""


def test_table_det_markdown_golden(capsys):
    code, out, err = run_cli(capsys, "table", "det", "--n-max", "8")
    assert code == 0 and err == ""
    assert out == DET_TABLE


def test_table_det_has_exactly_six_data_rows(capsys):
    _, out, _ = run_cli(capsys, "table", "det", "--n-max", "8")
    lines = out.strip().splitlines()
    assert len(lines) == 2 + 6


def test_table_symdet_rational_cells(capsys):
    _, out, _ = run_cli(capsys, "table", "symdet", "--n-max", "8")
    assert "| 2.5 |" in out
    assert "| 214.5 |" in out


def test_table_verify_marks(capsys):
    code, out, _ = run_cli(capsys, "table", "pf", "--n-max", "2", "--mode", "verify")
    assert code == 0
    assert "(ok)" in out
    assert "MISMATCH" not in out


@pytest.mark.parametrize("family", ["det", "pf", "symdet"])
def test_table_verify_reaches_n_4(capsys, family):
    code, out, _ = run_cli(
        capsys, "table", family, "--n-max", "4", "--mode", "verify", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    # every row verified at n = 3 is verified at n = 4 too, and matches
    checked = [r["values"][2] for r in rows if r["values"][1].endswith(" (ok)")]
    assert checked and all(v.endswith(" (ok)") for v in checked)
    assert "MISMATCH" not in out


@pytest.mark.parametrize("family", ["det", "pf", "symdet"])
def test_table_verify_reaches_n_5(capsys, family):
    code, out, _ = run_cli(
        capsys, "table", family, "--n-max", "5", "--mode", "verify", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    # the rows verified at n = 4 are exactly the rows verified at n = 5
    at_4 = [r["label"] for r in rows if r["values"][2].endswith(" (ok)")]
    at_5 = [r["label"] for r in rows if r["values"][3].endswith(" (ok)")]
    assert at_4 and at_5 == at_4
    assert "MISMATCH" not in out


def test_table_csv(capsys):
    _, out, _ = run_cli(capsys, "table", "det", "--n-max", "3", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "n,2,3"
    assert "Sylvester,4,9" in lines


def test_table_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "table", "symdet", "--n-max", "4", "--format", "json")
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out
    doc = json.loads(out)
    rss = next(r for r in doc["rows"] if r["label"] == "Ranestad-Schreyer-Shafiei")
    assert rss["values"] == ["2.5", "7", "21"]


def test_table_bad_n_max_exits_2(capsys):
    code, out, err = run_cli(capsys, "table", "det", "--n-max", "1")
    assert code == 2
    assert "n_max" in err or "n_max" in out or "2" in err


# ----------------------------------------------------------------------
# bounds


def test_bounds_det3_with_invariant_direction(capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds",
        "--form",
        "builtin:det:3",
        "--partial",
        "d[1,1]",
        "--assert-invariance",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    values = {b["name"]: b["integer_value"] for b in doc["bounds"]}
    assert values["derivative"] == 14
    assert values["sylvester"] == 9
    assert values["ranestad_schreyer"] == 10
    assert values["landsberg_teitler_det"] == 14
    assert values["bernardi_ranestad_upper"] == 18
    assert doc["brackets"]["cactus_rank"] == {"lower": 14, "upper": 18}


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
def test_bounds_det3_invariance_note_golden(capsys, fmt):
    code, out, err = run_cli(
        capsys,
        "bounds",
        "--form",
        "builtin:det:3",
        "--partial",
        "d[1,1]",
        "--assert-invariance",
        "GL3 x GL3",
        "--format",
        fmt,
    )
    assert (code, err) == (0, "")
    assert out == (DATA / f"det3_invariance_note.{fmt}").read_text(encoding="utf-8")
    if fmt == "markdown":
        assert (
            "- derivative: caveat = valid as a cactus lower bound under the "
            "asserted invariance: GL3 x GL3\n"
        ) in out


def test_bounds_invariance_claim_without_partial_is_refused_before_any_layer(
    capsys, monkeypatch
):
    def closure(*args):
        raise AssertionError("a layer was built")

    monkeypatch.setattr(apolarity, "_closure", closure)
    for note in ([], ["GL2 x GL2"]):
        assert run_cli(
            capsys, "bounds", "--form", "builtin:det:2", "--assert-invariance", *note
        ) == (2, "", "error: --assert-invariance needs --partial\n")


def test_bounds_has_no_separate_invariance_note_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            ["bounds", "--form", "builtin:det:2", "--partial", "d[1,1]"]
            + ["--invariance-note", "GL2 x GL2"]
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --invariance-note GL2 x GL2" in capsys.readouterr().err


def test_bounds_generic_monprod4(capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds",
        "--form",
        "builtin:monprod:4",
        "--trials",
        "7",
        "--seed",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    entry = next(b for b in doc["bounds"] if b["name"] == "generic_derivative")
    # frozen regression value: the generic direction gives the central
    # binomial 6, not the coordinate-direction value 8
    assert entry["integer_value"] == 6
    assert entry["metadata"]["trials"] == 7
    assert entry["metadata"]["seed"] == 3
    assert len(entry["metadata"]["trial_values"]) == 7


def test_bounds_json_round_trip(capsys):
    _, out, _ = run_cli(
        capsys, "bounds", "--form", "builtin:symdet:2", "--format", "json"
    )
    assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_bounds_det1_is_the_bounds_of_perm1(capsys):
    # the 1 x 1 determinant and permanent are both x[1,1]; the
    # Landsberg-Teitler determinant bound starts at n = 2
    docs = {}
    for family in ("det:1", "perm:1", "det:2"):
        code, out, err = run_cli(
            capsys, "bounds", "--form", f"builtin:{family}", "--format", "json"
        )
        assert (code, err) == (0, "")
        docs[family] = json.loads(out)
    assert docs["det:1"]["bounds"] == docs["perm:1"]["bounds"]
    assert docs["det:1"]["brackets"] == docs["perm:1"]["brackets"]
    names = [b["name"] for b in docs["det:2"]["bounds"]]
    assert "landsberg_teitler_det" in names


def test_bounds_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "bounds", "--form", "nosuch.txt")
    assert code == 1
    assert "nosuch.txt" in err


def test_bounds_bad_builtin_exits_2(capsys):
    code, _, err = run_cli(capsys, "bounds", "--form", "builtin:nosuch:3")
    assert code == 2
    assert "nosuch" in err


def test_bounds_bad_partial_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "bounds", "--form", "builtin:det:2", "--partial", "d[9,9]"
    )
    assert code == 1
    assert "d[9,9]" in err


@pytest.mark.parametrize("partial", ["d[1,1]^2", "0"])
def test_bounds_partial_that_is_not_a_nonzero_linear_form_exits_2(capsys, partial):
    assert run_cli(
        capsys, "bounds", "--form", "builtin:det:2", "--partial", partial
    ) == (2, "", "error: --partial must be a nonzero linear dual form\n")


def test_form_file_of_comments_only_exits_1(tmp_path, capsys):
    path = tmp_path / "comments.txt"
    path.write_text("# only\n# comments\n\n", encoding="utf-8")
    assert run_cli(capsys, "hilbert", "--form", str(path)) == (
        1,
        "",
        f"error: form file {str(path)!r} contains no polynomials\n",
    )


def test_bounds_zero_trials_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "bounds", "--form", "builtin:det:2", "--trials", "0"
    )
    assert code == 2


def test_bounds_form_file(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text("x*y + y^2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "bounds", "--form", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["form_id"] == str(path)


def test_bounds_form_file_with_syntax_error_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("x^0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "bounds", "--form", str(path))
    assert code == 1
    assert "positive" in err


@pytest.mark.parametrize(
    "text, col, message",
    [
        ("x^²", 3, "unexpected character '²'"),
        ("é*x", 1, "unexpected character 'é'"),
        (
            "1" * 5000 + "*x", 1,
            f"integer too long: 5000 digits (limit {sys.get_int_max_str_digits()})",
        ),
    ],
    ids=["superscript-exponent", "non-ascii-name", "5000-digit-coefficient"],
)
def test_malformed_form_file_exits_1_with_position(tmp_path, capsys, text, col, message):
    path = tmp_path / "bad.txt"
    path.write_text(text + "\n", encoding="utf-8")
    assert run_cli(capsys, "hilbert", "--form", str(path)) == (
        1, "", f"error: {path}: line 1, column {col}: {message}\n"
    )


@pytest.mark.parametrize(
    "text, line, col, message",
    [
        ("# header\n\nx^2 + y^2\nx*y\n2*x + 3*y^0\n", 5, 11,
         "exponent must be a positive integer, got 0"),
        ("x^2 + y^2\n   x y\n", 2, 6, "expected '+', '-' or end of input, got 'y'"),
        ("x\n\t  x^2 +  \n", 2, 11, "expected a term, got 'end of input'"),
        ("x\r\n y\r\n  z é\r\n", 3, 5, "unexpected character 'é'"),
    ],
    ids=["fifth-line", "indented", "trailing-blanks", "crlf"],
)
def test_form_file_error_names_its_line_and_column_in_the_file(
    tmp_path, capsys, text, line, col, message
):
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode("utf-8"))
    assert run_cli(capsys, "hilbert", "--form", str(path)) == (
        1, "", f"error: {path}: line {line}, column {col}: {message}\n"
    )


@pytest.mark.parametrize(
    "kind, body", [("form", b"x\xff*y\n"), ("decomposition", b"1 ; x[1]\xff\n")]
)
def test_file_with_invalid_utf8_exits_1_naming_it(tmp_path, capsys, kind, body):
    path = tmp_path / f"bad.{kind}"
    path.write_bytes(body)
    if kind == "form":
        argv = ["hilbert", "--form", str(path)]
    else:
        argv = ["verify-decomposition", "--form", "builtin:monprod:3", "--file", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {str(path)!r}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_bounds_zero_form_file_exits_2(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("0\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "bounds", "--form", str(path))
    assert code == 2
    assert "zero" in err


@pytest.mark.parametrize(
    "command", ["hilbert", "bounds", "apolar-gens", "verify-decomposition"]
)
def test_form_file_without_variables_exits_2(tmp_path, capsys, command):
    path = tmp_path / "constant.txt"
    path.write_text("5\n", encoding="utf-8")
    extra = ["--file", str(path)] if command == "verify-decomposition" else []
    code, out, err = run_cli(capsys, command, "--form", str(path), *extra)
    assert code == 2 and out == ""
    assert err == f"error: form file {str(path)!r} has no variables\n"


@pytest.mark.parametrize(
    "text, limit, bound",
    [
        # n=2, d=3, k=1: h(t) <= min(t+1, 4-t), so 1 + 2 + 2 + 1
        ("x^2*y\n", 5, 6),
        # the bound counts the independent forms: k=2 gives 1 + 2 + 3 + 2
        ("x^2*y\nx*y^2\n", 7, 8),
        ("x^2*y\n2*x^2*y\n", 5, 6),
        # a degree at the limit is refused with the whole bound, not d + 1
        ("x^2*y\n", 3, 6),
    ],
)
def test_form_file_over_the_length_bound_exits_2(
    tmp_path, monkeypatch, capsys, text, limit, bound
):
    path = tmp_path / "form.txt"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(cli, "MAX_LENGTH_BOUND", limit)
    code, out, err = run_cli(capsys, "hilbert", "--form", str(path))
    assert code == 2 and out == ""
    assert err == (
        f"error: form file {str(path)!r} is too large: its apolar length may reach "
        f"{bound}, over the limit of {limit}\n"
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(0, 60),
    st.integers(1, 40) | st.integers(1, 10**6),
)
def test_length_bound_is_the_sum_of_the_layer_bounds(n, d, k):
    # once k exceeds C(n+d-1, d) (one variable: every k > 1) the second
    # term of the minimum is the larger at every degree, so the large
    # draws sum C(n+t-1, t) alone
    want = sum(apolarity.layer_bound(n, d, k, t) for t in range(d + 1))
    assert apolarity.length_bound(n, d, k) == want
    if k > math.comb(n + d - 1, d):
        assert want == math.comb(n + d, d)


def test_length_bound_of_one_variable_and_of_a_huge_degree():
    assert apolarity.length_bound(1, 0, 1) == 1
    assert apolarity.length_bound(1, 100000, 1) == 100001
    # the sum would take 10^9 + 1 terms; the closed form takes about 30
    # pairs of binomials
    assert apolarity.length_bound(2, 10**9, 1) == (10**9 // 2 + 1) ** 2


def test_form_file_at_the_length_bound_runs(tmp_path, monkeypatch, capsys):
    path = tmp_path / "form.txt"
    path.write_text("x^2*y\n", encoding="utf-8")
    monkeypatch.setattr(cli, "MAX_LENGTH_BOUND", 6)
    code, out, _ = run_cli(capsys, "hilbert", "--form", str(path))
    assert code == 0 and "[1, 2, 2, 1]" in out


def test_high_degree_form_file_exits_2_before_any_layer(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("x^2000*y^2000\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "hilbert", "--form", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "may reach 4004001, over the limit" in err


def test_form_file_whose_bound_has_too_many_digits_to_print_exits_2(tmp_path, capsys):
    # the bound of x[1]*...*x[20000] has 8291 digits, more than the
    # interpreter converts to a string by default (4300): the message
    # names a power of ten below it instead
    path = tmp_path / "product.txt"
    path.write_text("*".join(f"x[{i}]" for i in range(1, 20001)) + "\n", encoding="utf-8")
    bound = apolarity.length_bound(20000, 20000, 1)
    assert 10**8290 < bound < 10**8291
    code, out, err = run_cli(capsys, "hilbert", "--form", str(path))
    assert code == 2 and out == ""
    assert err == (
        f"error: form file {str(path)!r} is too large: its apolar length may reach "
        f"more than 10^8290, over the limit of {cli.MAX_LENGTH_BOUND}\n"
    )


@pytest.mark.parametrize("k, refused", [(500, False), (20000, True)])
def test_form_file_of_many_variables_is_bounded_by_its_size(tmp_path, capsys, k, refused):
    # k lines x[i]*y: the a-priori length 2k + 2 passes, but the terms
    # times the variables grow like k^2
    path = tmp_path / "wide.txt"
    path.write_text("".join(f"x[{i}]*y\n" for i in range(1, k + 1)), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "hilbert", "--form", str(path))
    if refused:
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == (
            f"error: form file {str(path)!r} is too large: {k} terms times {k + 1} "
            f"variables are over the size limit of {cli.MAX_BUILD_SIZE}\n"
        )
    else:
        assert code == 0 and f"[1, {k + 1}, {k}]" in out


@pytest.mark.parametrize("command", ["hilbert", "bounds", "apolar-gens"])
def test_wide_series_is_refused_before_its_generator_count(tmp_path, capsys, command):
    # 2000 lines x[i]*y: the layers are small, but the generator count
    # would eliminate 2001 * 2000 unknowns at degree 3
    path = tmp_path / "wide.txt"
    path.write_text("".join(f"x[{i}]*y\n" for i in range(1, 2001)), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--form", str(path))
    if command == "hilbert":
        assert code == 0 and "[1, 2001, 2000]" in out
        return
    assert time.perf_counter() - start < 3
    assert code == 2 and out == ""
    assert err == (
        f"error: {path}: counting its annihilator generators means eliminating "
        f"4002000 unknowns, over the limit of {cli.MAX_PROLONGATION_SIZE}\n"
    )


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (
            ("bounds", "--partial", "zz"),
            1,
            "error: --partial: line 1, column 1: dual variable must be named "
            "'d' or 'd_<name>', got 'zz'\n",
        ),
        (("apolar-gens", "--max-degree", "0"), 2, "error: --max-degree must be at least 1\n"),
    ],
)
def test_form_file_over_the_count_limit_reports_a_bad_argument_first(
    tmp_path, capsys, monkeypatch, argv, code, message
):
    # the count size of a form file is read off its layers, so it is
    # checked after the arguments, and a bad one is reported with no
    # layer built
    def closure(*args):
        raise AssertionError("a layer was built")

    monkeypatch.setattr(apolarity, "_closure", closure)
    path = tmp_path / "wide.txt"
    path.write_text("".join(f"x[{i}]*y\n" for i in range(1, 2001)), encoding="utf-8")
    assert run_cli(capsys, argv[0], "--form", str(path), *argv[1:]) == (code, "", message)


@pytest.mark.parametrize("argv", [("bounds", "--trials", "1"), ("apolar-gens",)])
def test_builtin_over_the_count_limit_is_refused_before_any_layer(capsys, monkeypatch, argv):
    # det:8 would eliminate 819520 unknowns; its closed-form Hilbert
    # function gives that before any derivative layer is built
    calls = []
    original = apolarity._closure

    def closure(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(apolarity, "_closure", closure)
    code, out, err = run_cli(capsys, *argv, "--form", "builtin:det:8")
    assert calls == []
    assert code == 2 and out == ""
    assert err == (
        "error: builtin:det:8: counting its annihilator generators means eliminating "
        f"819520 unknowns, over the limit of {cli.MAX_PROLONGATION_SIZE}\n"
    )


@pytest.mark.parametrize("argv", [("bounds", "--trials", "1"), ("apolar-gens",)])
def test_builtin_over_the_count_limit_is_refused_before_it_is_built(capsys, monkeypatch, argv):
    # the family record gives n = 64 and the closed form h, so the 40320
    # terms of det:8 are never written
    def refuse(spec):
        raise AssertionError(f"built {spec.id}")

    monkeypatch.setattr(catalog, "build", refuse)
    code, out, err = run_cli(capsys, *argv, "--form", "builtin:det:8")
    assert code == 2 and out == ""
    assert err == (
        "error: builtin:det:8: counting its annihilator generators means eliminating "
        f"819520 unknowns, over the limit of {cli.MAX_PROLONGATION_SIZE}\n"
    )


@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize(
    "family", [f for f, record in catalog._FAMILIES.items() if record.hilbert]
)
def test_count_size_from_the_closed_form_equals_the_size_from_the_layers(family, size):
    # matmul:2,2,2 has h(1) = 8 over 12 variables: n stays the context's
    arity = len(catalog._FAMILIES[family].params.split(","))
    spec = catalog.FamilySpec(family, (size,) * arity)
    W = catalog.build(spec)
    # the count size is a function of (n, h): load_series checks it with n
    # from the family record and the closed form, the commands with the
    # context and the layers
    n = catalog.variable_count(spec)
    dims = catalog.closed_form_hilbert(spec)
    assert (n, dims) == (len(W.context), apolarity.hilbert_function(W))
    assert any(h != math.comb(n + s - 1, s) for s, h in enumerate(dims))


def test_one_variable_degree_20000_is_under_the_length_bound(tmp_path):
    path = tmp_path / "power.txt"
    path.write_text("x^20000\n", encoding="utf-8")
    W, _ = cli.load_series(str(path))
    assert W.degree == 20000


@pytest.mark.parametrize(
    "argv, limit, refused, message",
    [
        # det:3 has 6 terms over 9 variables and apolar length 20
        (("hilbert", "--form", "builtin:det:3"), {"MAX_BUILD_SIZE": 54}, False, ""),
        (
            ("hilbert", "--form", "builtin:det:3"), {"MAX_BUILD_SIZE": 53}, True,
            "builtin 'det:3' is too large: its terms times its variables are over "
            "the limit of 53",
        ),
        (("hilbert", "--form", "builtin:det:3"), {"MAX_LENGTH_BOUND": 20}, False, ""),
        (
            ("hilbert", "--form", "builtin:det:3"), {"MAX_LENGTH_BOUND": 19}, True,
            "builtin 'det:3' is too large: its apolar length is over the limit of 19",
        ),
        (
            ("bounds", "--form", "builtin:perm:3"), {"MAX_BUILD_SIZE": 53}, True,
            "builtin 'perm:3' is too large: its terms times its variables are over "
            "the limit of 53",
        ),
        (("bounds", "--form", "builtin:det:2", "--trials", "3"), {"MAX_TRIALS": 3}, False, ""),
        (
            ("bounds", "--form", "builtin:det:2", "--trials", "4"), {"MAX_TRIALS": 3}, True,
            "--trials must be at most 3",
        ),
        (("table", "det", "--n-max", "3"), {"MAX_TABLE_N": 3}, False, ""),
        (
            ("table", "det", "--n-max", "4"), {"MAX_TABLE_N": 3}, True,
            "--n-max must be at most 3",
        ),
        (("matmul", "--p", "2", "--q", "2", "--r", "2"), {"MAX_MATMUL_SIZE": 2}, False, ""),
        (
            ("matmul", "--p", "2", "--q", "2", "--r", "3"), {"MAX_MATMUL_SIZE": 2}, True,
            "--r must be at most 2",
        ),
        # the generator count of det:3 eliminates 9 * 9 + 9 * 1 unknowns
        (("bounds", "--form", "builtin:det:3"), {"MAX_PROLONGATION_SIZE": 90}, False, ""),
        (
            ("bounds", "--form", "builtin:det:3"), {"MAX_PROLONGATION_SIZE": 89}, True,
            "builtin:det:3: counting its annihilator generators means eliminating "
            "90 unknowns, over the limit of 89",
        ),
        (
            ("apolar-gens", "--form", "builtin:det:3"), {"MAX_PROLONGATION_SIZE": 90},
            False, "",
        ),
        (
            ("apolar-gens", "--form", "builtin:det:3"), {"MAX_PROLONGATION_SIZE": 89},
            True,
            "builtin:det:3: counting its annihilator generators means eliminating "
            "90 unknowns, over the limit of 89",
        ),
        # a high exponent at the dehomogenized variable: its powers are
        # built in a loop, not one stack frame each
        (("bounds", "--form", str(DATA / "power_1000.txt")), {}, False, ""),
        (("bounds", "--form", str(DATA / "power_1000_y.txt")), {}, False, ""),
    ],
)
def test_limits_refuse_one_over_and_run_at(capsys, monkeypatch, argv, limit, refused, message):
    for name, value in limit.items():
        monkeypatch.setattr(cli, name, value)
    code, out, err = run_cli(capsys, *argv)
    if refused:
        assert code == 2 and out == "" and err == f"error: {message}\n"
    else:
        assert code == 0 and out and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("hilbert", "--form", "builtin:monprod:100000"),
        ("table", "det", "--n-max", "100000"),
        ("table", "pf", "--mode", "verify", "--n-max", "1000000"),
        ("bounds", "--form", "builtin:det:2", "--trials", "100000000"),
        ("matmul", "--p", "100000", "--q", "100000", "--r", "100000"),
        ("hilbert", "--form", "builtin:det:12"),
        ("hilbert", "--form", "builtin:perm:" + "9" * 4000),
        ("hilbert", "--form", "builtin:matmul:100000,1,1"),
        ("hilbert", "--form", "builtin:minors:100000,100000,50000"),
    ],
)
def test_hostile_arguments_exit_2_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and (" too large: " in err or " at most " in err)


def test_bounds_series_file(tmp_path, capsys):
    path = tmp_path / "series.txt"
    path.write_text("# two quadrics\nx*y\ny*z\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "hilbert", "--form", str(path))
    assert code == 0
    assert "[1, 3, 2]" in out


# ----------------------------------------------------------------------
# hilbert / apolar-gens


def test_hilbert_pf2(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--form", "builtin:pf:2")
    assert code == 0
    assert "[1, 6, 1]" in out
    assert "apolar length: 8" in out


def test_hilbert_json(capsys):
    _, out, _ = run_cli(
        capsys, "hilbert", "--form", "builtin:det:3", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["dims"] == [1, 9, 9, 1]
    assert doc["apolar_length"] == 20


def test_apolar_gens_det2(capsys):
    code, out, _ = run_cli(
        capsys, "apolar-gens", "--form", "builtin:det:2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"] == 2
    [block] = doc["generators"]
    assert block["degree"] == 2
    assert block["count"] == 9
    assert "d[1,1]^2" in block["generators"]


def test_apolar_gens_respects_max_degree(capsys):
    _, out, _ = run_cli(
        capsys,
        "apolar-gens",
        "--form",
        "builtin:monprod:2",
        "--max-degree",
        "1",
        "--format",
        "json",
    )
    doc = json.loads(out)
    assert doc["generators"] == []
    # the listing is capped but the reported top generator degree is not
    assert doc["delta"] == 2


def test_apolar_gens_max_degree_above_delta_prints_the_default(capsys):
    default = run_cli(capsys, "apolar-gens", "--form", "builtin:det:3")
    assert default[0] == 0
    assert run_cli(
        capsys, "apolar-gens", "--form", "builtin:det:3", "--max-degree", "40"
    ) == default


def test_apolar_gens_counts_generators_once(monkeypatch, capsys):
    calls = []
    count = apolarity._count_generators

    def counted(W):
        calls.append(W)
        return count(W)

    monkeypatch.setattr(apolarity, "_count_generators", counted)
    assert run_cli(capsys, "apolar-gens", "--form", "builtin:pf:3")[0] == 0
    assert len(calls) == 1


# ----------------------------------------------------------------------
# verify-decomposition


INTRO_DEC_3 = """\
# four power sums averaging to x[1]*x[2]*x[3]
1/24 ; x[1] + x[2] + x[3]
-1/24 ; x[1] + x[2] - x[3]
-1/24 ; x[1] - x[2] + x[3]
1/24 ; x[1] - x[2] - x[3]
"""


def test_verify_decomposition_pass(tmp_path, capsys):
    path = tmp_path / "intro.dec"
    path.write_text(INTRO_DEC_3, encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "verify-decomposition",
        "--form",
        "builtin:monprod:3",
        "--file",
        str(path),
    )
    assert code == 0
    assert out.startswith("pass (4 summands)")


def test_verify_decomposition_fail(tmp_path, capsys):
    path = tmp_path / "wrong.dec"
    path.write_text("1 ; x[1] + x[2] + x[3]\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "verify-decomposition",
        "--form",
        "builtin:monprod:3",
        "--file",
        str(path),
    )
    assert code == 0
    assert out.startswith("fail (1 summands)")


def test_verify_decomposition_json_format(tmp_path, capsys):
    path = tmp_path / "intro.dec"
    path.write_text(INTRO_DEC_3, encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "verify-decomposition",
        "--form",
        "builtin:monprod:3",
        "--file",
        str(path),
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["summands"] == 4


def test_verify_decomposition_bad_line_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.dec"
    path.write_text("1/24 x[1] + x[2]\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        "verify-decomposition",
        "--form",
        "builtin:monprod:2",
        "--file",
        str(path),
    )
    assert code == 1
    assert ":1:" in err


@pytest.mark.parametrize(
    "coeff", ["1e100000000", "1.5", "1e3", "1_000", "½", "٣", "1/0", "1 / 2", "/2", "9" * 5000]
)
def test_verify_decomposition_coefficient_outside_the_grammar_exits_1(
    tmp_path, capsys, coeff
):
    path = tmp_path / "bad.dec"
    path.write_text(f"{coeff} ; x[1]\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify-decomposition", "--form", "builtin:monprod:1", "--file", str(path)
    )
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: {path}:1: bad coefficient {coeff!r}\n"


@pytest.mark.parametrize("coeff", ["1", "+1", "-1", "001", "2/2", "-3/3"])
def test_verify_decomposition_coefficient_grammar_accepts(tmp_path, capsys, coeff):
    path = tmp_path / "one.dec"
    path.write_text(f"{coeff} ; x[1]\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "verify-decomposition", "--form", "builtin:monprod:1", "--file", str(path)
    )
    assert code == 0
    assert out.startswith("pass (1 summands)" if "-" not in coeff else "fail (1 summands)")


def test_verify_decomposition_nonlinear_summand_exits_2(tmp_path, capsys):
    path = tmp_path / "nl.dec"
    path.write_text("1 ; x[1]^2\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys,
        "verify-decomposition",
        "--form",
        "builtin:monprod:2",
        "--file",
        str(path),
    )
    assert code == 2
    assert "linear" in err


@pytest.mark.parametrize(
    "forms, summands, code, message",
    [
        (
            "x^2 + y^2\nx*y\n",
            "1 ; x\n",
            2,
            "error: decomposition verification needs a single form, "
            "got a series of dimension 2\n",
        ),
        (
            "x^2 + y^2\n",
            "1 ; x +\n",
            1,
            "error: {file}:1: line 1, column 5: expected a term, got 'end of input'\n",
        ),
        ("x^2 + y^2\n", "# nothing\n\n", 1, "error: {file}: no summands found\n"),
    ],
)
def test_verify_decomposition_refusals(tmp_path, capsys, forms, summands, code, message):
    form, path = tmp_path / "form.txt", tmp_path / "sums.dec"
    form.write_text(forms, encoding="utf-8")
    path.write_text(summands, encoding="utf-8")
    assert run_cli(
        capsys, "verify-decomposition", "--form", str(form), "--file", str(path)
    ) == (code, "", message.format(file=path))


@pytest.mark.parametrize("limit, refused", [(240, False), (239, True)])
def test_verify_decomposition_refuses_an_expansion_over_the_build_limit(
    tmp_path, monkeypatch, capsys, limit, refused
):
    # four cubes in 3 variables: 4 * C(5, 3) = 40 terms of 3 positions,
    # each made a 3-exponent tuple: 40 * (3 + 3) = 240
    path = tmp_path / "intro.dec"
    path.write_text(INTRO_DEC_3, encoding="utf-8")
    monkeypatch.setattr(cli, "MAX_BUILD_SIZE", limit)
    code, out, err = run_cli(
        capsys, "verify-decomposition", "--form", "builtin:monprod:3", "--file", str(path)
    )
    if refused:
        assert code == 2 and out == ""
        assert err == (
            f"error: {path}: expanding its powers means 40 terms times 3 variables "
            "plus degree 3, 240, over the limit of 239\n"
        )
    else:
        assert (code, out, err) == (0, "pass (4 summands)\n", "")


def test_verify_decomposition_of_a_wide_summand_is_refused_before_expanding(
    tmp_path, capsys
):
    # (sum of the 36 variables)^6 has C(41, 6) = 4496388 terms
    path = tmp_path / "wide.dec"
    names = [f"x[{i},{j}]" for i in range(1, 7) for j in range(1, 7)]
    path.write_text("1 ; " + " + ".join(names) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify-decomposition", "--form", "builtin:det:6", "--file", str(path)
    )
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err == (
        f"error: {path}: expanding its powers means 4496388 terms times 36 variables "
        f"plus degree 6, 188848296, over the limit of {cli.MAX_BUILD_SIZE}\n"
    )


def test_verify_decomposition_of_a_high_degree_form_is_expanded_term_by_term(
    tmp_path, capsys
):
    # (x + y + z)^200 has C(202, 2) = 20301 terms, none of them equal to
    # the target's: repeated squaring took minutes here
    form = tmp_path / "form.txt"
    form.write_text("x^198*y*z\n", encoding="utf-8")
    path = tmp_path / "one.dec"
    path.write_text("1 ; x + y + z\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "verify-decomposition", "--form", str(form), "--file", str(path)
    )
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert out == (
        "fail (1 summands): decomposition differs from the target, "
        "difference has 20301 terms\n"
    )


# ----------------------------------------------------------------------
# matmul


def test_matmul_command(capsys):
    code, out, _ = run_cli(capsys, "matmul", "--p", "2", "--q", "2", "--r", "2")
    assert code == 0
    assert "r(W) >= 9" in out
    assert "tensor rank >= 5" in out


def test_matmul_json(capsys):
    _, out, _ = run_cli(
        capsys, "matmul", "--p", "3", "--q", "3", "--r", "3", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["rW_lower"] == 22
    assert doc["tensor_lower"] == 11


# ----------------------------------------------------------------------
# determinism


def test_identical_invocations_are_byte_identical(capsys):
    runs = []
    for _ in range(2):
        _, out, _ = run_cli(
            capsys,
            "bounds",
            "--form",
            "builtin:det:2",
            "--seed",
            "0",
            "--format",
            "json",
        )
        runs.append(out)
    assert runs[0] == runs[1]
    tables = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "table", "symdet", "--n-max", "8")
        tables.append(out)
    assert tables[0] == tables[1]


def test_module_entry_point_runs_in_subprocess():
    env_src = str(Path(__file__).resolve().parent.parent / "src")
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = env_src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "apolar", "hilbert", "--form", "builtin:pf:2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "[1, 6, 1]" in proc.stdout


def test_hilbert_of_a_high_power_runs_in_little_memory(tmp_path):
    # the layer rows of x^100000 are kept primitive: with their raw
    # coefficients d!/t! the same run needs gigabytes.  The child's
    # address space is capped, so a regression fails fast
    resource = pytest.importorskip("resource")
    path = tmp_path / "power.txt"
    path.write_text("x^100000\n", encoding="utf-8")
    cap = 256 * 2**20
    env_src = str(Path(__file__).resolve().parent.parent / "src")
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = env_src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "apolar", "hilbert", "--form", str(path)],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "apolar length: 100001" in proc.stdout


def test_bounds_of_a_sum_of_1000_squares_runs_in_little_memory(tmp_path):
    # the generator count's prolongation images of this form hold about
    # 10^6 entries; keyed by column numbers they are small ints, keyed by
    # 2000-bit packed monomials the same run needs over 400 MB.  The
    # child's address space is capped, so a regression fails fast
    resource = pytest.importorskip("resource")
    import os

    path = tmp_path / "squares.txt"
    path.write_text(" + ".join(f"x[{i}]^2" for i in range(1, 1001)) + "\n", encoding="utf-8")
    cap = 320 * 2**20
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "apolar", "bounds", "--form", str(path),
         "--trials", "1", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    values = {b["name"]: b["integer_value"] for b in json.loads(proc.stdout)["bounds"]}
    assert values == {
        "sylvester": 1000,
        "ranestad_schreyer": 501,
        "generic_derivative": 1000,
        "bernardi_ranestad_upper": 1001,
    }


def test_bounds_of_det_6_runs_in_less_memory(tmp_path):
    # layer, count and closure spans hold each row's tail as two tuples,
    # not a dict, and the Bernardi-Ranestad closure holds one derivative
    # order at a time.  Bisected in whole MiB on a 2-CPU Linux host,
    # CPython 3.11, this run needs an address-space cap of 87 MiB with
    # dict rows and 64 MiB with tuple rows; the cap sits between them
    resource = pytest.importorskip("resource")
    import os

    cap = 76 * 2**20
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "apolar", "bounds", "--form", "builtin:det:6",
         "--trials", "1", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    doc = json.loads(proc.stdout)
    assert {b["name"]: b["integer_value"] for b in doc["bounds"]} == {
        "sylvester": 400,
        "ranestad_schreyer": 462,
        "generic_derivative": 400,
        "landsberg_teitler_det": 420,
        "bernardi_ranestad_upper": 922,
    }
    assert doc["brackets"] == {
        "cactus_rank": {"lower": 462, "upper": 922},
        "smoothable_rank": {"lower": 462, "upper": None},
        "waring_rank": {"lower": 462, "upper": None},
    }


def test_running_out_of_memory_is_a_one_line_error(capsys, monkeypatch):
    def exhausted(W):
        raise MemoryError

    # the parser, and the command each subparser names, is built once, so
    # the computation inside the command is the one made to fail
    monkeypatch.setattr(cli, "hilbert_function", exhausted)
    code, out, err = run_cli(capsys, "hilbert", "--form", "builtin:det:2")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: out of memory")


def test_hilbert_of_linear_form_in_many_variables(tmp_path, capsys):
    form = tmp_path / "wide.txt"
    form.write_text(" + ".join(f"x[{i}]" for i in range(1, 1201)) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "hilbert", "--form", str(form))
    assert code == 0
    assert "[1, 1]" in out


# ----------------------------------------------------------------------
# golden output: each command in each format, byte for byte


GOLDEN = {
    ("hilbert", "--form", "builtin:det:2"): {
        "markdown": """\
Hilbert function of builtin:det:2: [1, 4, 1]
degree: 2
apolar length: 6
""",
        "csv": """\
t,dim
0,1
1,4
2,1
""",
        "json": """\
{
  "apolar_length": 6,
  "degree": 2,
  "dims": [
    1,
    4,
    1
  ],
  "form_id": "builtin:det:2"
}
""",
    },
    ("apolar-gens", "--form", "builtin:det:2"): {
        "markdown": """\
# annihilator generators: builtin:det:2

| degree | count | generators |
| --- | ---: | ---: |
| 2 | 9 | d[1,1]^2; d[1,1]*d[1,2]; d[1,1]*d[2,1]; d[1,2]^2; d[1,1]*d[2,2] + d[1,2]*d[2,1]; d[1,2]*d[2,2]; d[2,1]^2; d[2,1]*d[2,2]; d[2,2]^2 |

delta: 2
""",
        "csv": """\
degree,count,generators
2,9,"d[1,1]^2; d[1,1]*d[1,2]; d[1,1]*d[2,1]; d[1,2]^2; d[1,1]*d[2,2] + d[1,2]*d[2,1]; d[1,2]*d[2,2]; d[2,1]^2; d[2,1]*d[2,2]; d[2,2]^2"
""",
        "json": """\
{
  "delta": 2,
  "form_id": "builtin:det:2",
  "generators": [
    {
      "count": 9,
      "degree": 2,
      "generators": [
        "d[1,1]^2",
        "d[1,1]*d[1,2]",
        "d[1,1]*d[2,1]",
        "d[1,2]^2",
        "d[1,1]*d[2,2] + d[1,2]*d[2,1]",
        "d[1,2]*d[2,2]",
        "d[2,1]^2",
        "d[2,1]*d[2,2]",
        "d[2,2]^2"
      ]
    }
  ]
}
""",
    },
    ("apolar-gens", "--form", "builtin:monprod:2", "--max-degree", "1"): {
        "markdown": """\
# annihilator generators: builtin:monprod:2

| degree | count | generators |
| --- | ---: | ---: |

delta: 2
""",
        "csv": """\
degree,count,generators
""",
        "json": """\
{
  "delta": 2,
  "form_id": "builtin:monprod:2",
  "generators": []
}
""",
    },
    ("verify-decomposition", "--form", "builtin:monprod:3", "--file", "pass.dec"): {
        "markdown": """\
pass (4 summands)
""",
        "csv": """\
status,summands
pass,4
""",
        "json": """\
{
  "form_id": "builtin:monprod:3",
  "status": "pass",
  "summands": 4
}
""",
    },
    ("verify-decomposition", "--form", "builtin:monprod:3", "--file", "fail.dec"): {
        "markdown": """\
fail (1 summands): decomposition differs from the target, difference has 10 terms
""",
        "csv": """\
status,summands
fail,1
""",
        "json": """\
{
  "form_id": "builtin:monprod:3",
  "status": "fail",
  "summands": 1
}
""",
    },
    ("matmul", "--p", "2", "--q", "2", "--r", "2"): {
        "markdown": """\
matmul(2,2,2): r(W) >= 9, tensor rank >= 5
""",
        "csv": """\
p,q,r,rW_lower,tensor_lower
2,2,2,9,5
""",
        "json": """\
{
  "p": 2,
  "q": 2,
  "r": 2,
  "rW_lower": 9,
  "tensor_lower": 5
}
""",
    },
    ("bounds", "--form", "builtin:det:2", "--seed", "0"): {
        "markdown": """\
# bounds: builtin:det:2

| name | value | ceiling | kind |
| --- | ---: | ---: | ---: |
| sylvester | 4 | 4 | lower-for-cactus |
| ranestad_schreyer | 3 | 3 | lower-for-cactus |
| generic_derivative | 4 | 4 | lower-for-cactus |
| landsberg_teitler_det | 4 | 4 | lower-for-waring |
| bernardi_ranestad_upper | 4 | 4 | upper-for-cactus |

brackets: cactus rank in [4, 4], smoothable rank in [4, ?], Waring rank in [4, ?]

notes:
- generic_derivative: caveat = probabilistic: each sampled direction is generic with probability 1
- generic_derivative: trials = 5, seed = 0, values = [4, 4, 4, 4, 4]
- bernardi_ranestad_upper: dehomogenized_at = x[2,2]
""",
        "csv": """\
name,value_num,value_den,integer_value,kind
sylvester,4,1,4,lower-for-cactus
ranestad_schreyer,3,1,3,lower-for-cactus
generic_derivative,4,1,4,lower-for-cactus
landsberg_teitler_det,4,1,4,lower-for-waring
bernardi_ranestad_upper,4,1,4,upper-for-cactus
""",
        "json": """\
{
  "bounds": [
    {
      "integer_value": 4,
      "kind": "lower-for-cactus",
      "metadata": {
        "argmax_degree": 1,
        "hilbert": [
          1,
          4,
          1
        ]
      },
      "name": "sylvester",
      "value_den": 1,
      "value_num": 4
    },
    {
      "integer_value": 3,
      "kind": "lower-for-cactus",
      "metadata": {
        "apolar_length": 6,
        "delta": 2
      },
      "name": "ranestad_schreyer",
      "value_den": 1,
      "value_num": 3
    },
    {
      "integer_value": 4,
      "kind": "lower-for-cactus",
      "metadata": {
        "caveat": "probabilistic: each sampled direction is generic with probability 1",
        "partials": [
          "-d[1,1] + 95*d[1,2] + 8*d[2,1] - 89*d[2,2]",
          "-33*d[1,1] + 31*d[1,2] + 25*d[2,1] + 4*d[2,2]",
          "-22*d[1,1] + 23*d[1,2] - 8*d[2,1] + 50*d[2,2]",
          "-44*d[1,1] + 30*d[1,2] - 64*d[2,1] - 27*d[2,2]",
          "-64*d[1,1] + 94*d[1,2] - 75*d[2,1] + 59*d[2,2]"
        ],
        "seed": 0,
        "trial_values": [
          4,
          4,
          4,
          4,
          4
        ],
        "trials": 5
      },
      "name": "generic_derivative",
      "value_den": 1,
      "value_num": 4
    },
    {
      "integer_value": 4,
      "kind": "lower-for-waring",
      "metadata": {
        "n": 2
      },
      "name": "landsberg_teitler_det",
      "value_den": 1,
      "value_num": 4
    },
    {
      "integer_value": 4,
      "kind": "upper-for-cactus",
      "metadata": {
        "dehomogenized_at": "x[2,2]"
      },
      "name": "bernardi_ranestad_upper",
      "value_den": 1,
      "value_num": 4
    }
  ],
  "brackets": {
    "cactus_rank": {
      "lower": 4,
      "upper": 4
    },
    "smoothable_rank": {
      "lower": 4,
      "upper": null
    },
    "waring_rank": {
      "lower": 4,
      "upper": null
    }
  },
  "form_id": "builtin:det:2"
}
""",
    },
    ("table", "pf", "--n-max", "3", "--mode", "verify"): {
        "markdown": """\
| n | 2 | 3 |
| --- | ---: | ---: |
| Sylvester | 6 (ok) | 15 (ok) |
| Ranestad-Schreyer-Shafiei | 4 (ok) | 16 (ok) |
| Invariant derivative | 6 (ok) | 24 (ok) |
| Upper bound for cactus rank | 8 (ok) | 32 (ok) |
| Upper bound for Waring rank | 6 (ok) | 60 (ok) |
""",
        "csv": """\
n,2,3
Sylvester,6 (ok),15 (ok)
Ranestad-Schreyer-Shafiei,4 (ok),16 (ok)
Invariant derivative,6 (ok),24 (ok)
Upper bound for cactus rank,8 (ok),32 (ok)
Upper bound for Waring rank,6 (ok),60 (ok)
""",
        "json": """\
{
  "family": "pf",
  "n": [
    2,
    3
  ],
  "rows": [
    {
      "kind": "lower-for-cactus",
      "label": "Sylvester",
      "values": [
        "6 (ok)",
        "15 (ok)"
      ]
    },
    {
      "kind": "lower-for-cactus",
      "label": "Ranestad-Schreyer-Shafiei",
      "values": [
        "4 (ok)",
        "16 (ok)"
      ]
    },
    {
      "kind": "lower-for-cactus",
      "label": "Invariant derivative",
      "values": [
        "6 (ok)",
        "24 (ok)"
      ]
    },
    {
      "kind": "upper-for-cactus",
      "label": "Upper bound for cactus rank",
      "values": [
        "8 (ok)",
        "32 (ok)"
      ]
    },
    {
      "kind": "upper-for-waring",
      "label": "Upper bound for Waring rank",
      "values": [
        "6 (ok)",
        "60 (ok)"
      ]
    }
  ]
}
""",
    },
}


@pytest.mark.parametrize("fmt", ["markdown", "csv", "json"])
@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_output(tmp_path, monkeypatch, capsys, argv, fmt):
    (tmp_path / "pass.dec").write_text(INTRO_DEC_3, encoding="utf-8")
    (tmp_path / "fail.dec").write_text("1 ; x[1] + x[2] + x[3]\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv, "--format", fmt) == (0, GOLDEN[argv][fmt], "")


def test_golden_output_survives_a_reused_parser(tmp_path, monkeypatch, capsys):
    # one parser serves every call of main in a process: no call may
    # leave state behind that changes the next one
    (tmp_path / "pass.dec").write_text(INTRO_DEC_3, encoding="utf-8")
    (tmp_path / "fail.dec").write_text("1 ; x[1] + x[2] + x[3]\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert build_parser() is build_parser()
    for _ in range(2):
        for argv, outputs in GOLDEN.items():
            assert run_cli(capsys, *argv) == (0, outputs["markdown"], "")
            assert run_cli(capsys, *argv, "--format", "json") == (0, outputs["json"], "")
