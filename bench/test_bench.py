"""Tests of the benchmark itself (run with ``python3 -m pytest bench``).

They use small forms only, so the whole file runs in a few seconds.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import tracing
import worker
import workloads
from apolar import catalog
from apolar.catalog import closed_form_hilbert, closed_form_table

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cli_job(key: str, argv, family=None, series=None, extra=None) -> workloads.Job:
    return workloads.Job(key, "cli", tuple(argv), family=family, series=series, extra=extra or {})


def _small_jobs(tmp_path: Path) -> list[workloads.Job]:
    series = workloads.random_series(seed=3)[:2]
    jobs = [
        _cli_job("hilbert det:2", ["hilbert", "--form", "builtin:det:2", "--format", "json"], "det:2"),
        _cli_job("bounds det:3", workloads._bounds_argv("builtin:det:3", 7, 2), "det:3"),
        _cli_job("bounds monprod:4", workloads._bounds_argv("builtin:monprod:4", 7, 2), "monprod:4"),
        _cli_job("bounds matmul:1,2,2", workloads._bounds_argv("builtin:matmul:1,2,2", 7, 2),
                 "matmul:1,2,2"),
        _cli_job("bounds det:2 partial",
                 ["bounds", "--form", "builtin:det:2", "--partial", "d[1,1]",
                  "--assert-invariance", "--format", "json"],
                 "det:2", extra={"partial": "d[1,1]"}),
    ]
    for i, s in enumerate(series):
        path = tmp_path / f"series_{i}.txt"
        jobs.append(_cli_job(f"series {i}", workloads._bounds_argv(str(path), 7, 2), series=s))
    workloads.write_inputs(jobs)
    return jobs


def test_small_jobs_pass_every_check(tmp_path):
    jobs = _small_jobs(tmp_path)
    passes = [worker.run_pass(jobs), worker.run_pass(jobs)]
    attempted, failed, described, failures = run.check_jobs(jobs, passes)
    assert failures == []
    assert (attempted, failed) == (2 * len(jobs), 0)
    assert all(0 < d["useful_ratio"] <= 1 for d in described)
    summary = run.workload_descriptors(described)
    assert summary["jobs"] == len(jobs) and summary["coeff_range"] == ["-9", "9"]


def _wrong_hilbert(spec):
    h = list(closed_form_hilbert(spec))
    h[1] += 1
    return h


def _wrong_table(family, n_max):
    doc = closed_form_table(family, n_max)
    rows = tuple(
        catalog.TableRow(r.label, r.kind, tuple(v + 1 for v in r.values)) for r in doc.rows
    )
    return catalog.TableDoc(doc.family, doc.ns, rows)


@pytest.mark.parametrize(
    "attr, wrong",
    [("closed_form_hilbert", _wrong_hilbert), ("closed_form_table", _wrong_table)],
)
def test_injected_wrong_expected_value_raises_error_rate(tmp_path, monkeypatch, attr, wrong):
    jobs = _small_jobs(tmp_path)
    result = worker.run_pass(jobs)
    monkeypatch.setattr(checks, attr, wrong)
    attempted, failed, _, failures = run.check_jobs(jobs, [result])
    assert failed > 0 and failures
    metrics = run.end_to_end([dict(result, peak_rss_kb=1)], [0.1], attempted, failed)
    assert metrics["success_rate"]["value"] < 1


def test_malformed_output_is_a_failure_not_a_crash(tmp_path):
    job = _small_jobs(tmp_path)[1]
    text = json.dumps({"bounds": [{"name": "sylvester"}]}, indent=2, sort_keys=True) + "\n"
    assert any("malformed" in p for p in checks.check_output(checks.Subject(job), 0, text))


def test_wrong_trial_value_is_caught(tmp_path):
    job = _small_jobs(tmp_path)[1]
    r = worker.run_job(job)
    obj = json.loads(r["stdout"])
    entry = next(b for b in obj["bounds"] if b["name"] == "generic_derivative")
    entry["metadata"]["trial_values"][0] += 1
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert checks.check_output(checks.Subject(job), 0, text)


def test_bug_in_landsberg_teitler_is_caught(tmp_path, monkeypatch):
    import apolar.bounds

    right = apolar.bounds.landsberg_teitler_det
    for module in (apolar.bounds, catalog):  # the table cell shares the function
        monkeypatch.setattr(module, "landsberg_teitler_det", lambda n: right(n) + 1)
    job = _small_jobs(tmp_path)[1]
    r = worker.run_job(job)
    assert any("landsberg_teitler" in p
               for p in checks.check_output(checks.Subject(job), r["code"], r["stdout"]))


def test_identical_argv_gives_byte_identical_stdout(tmp_path):
    for job in _small_jobs(tmp_path):
        first, second = worker.run_job(job), worker.run_job(job)
        assert first["code"] == 0
        assert first["stdout"].encode() == second["stdout"].encode()


def test_every_json_document_reserializes_to_itself(tmp_path):
    for job in _small_jobs(tmp_path):
        text = worker.run_job(job)["stdout"]
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
    one_pass = dict(worker.run_pass(_small_jobs(tmp_path)), peak_rss_kb=1)
    result = run.end_to_end([one_pass], [0.1], 1, 0)
    line = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": result},
                      sort_keys=True)
    assert json.dumps(json.loads(line), sort_keys=True) == line


def test_metric_names_are_valid_and_match_the_spec(tmp_path):
    declared_e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    declared_layers = [m["name"] for m in BENCHMARK["per_layer"]]
    names = declared_e2e + declared_layers + [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME_RE.match(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert sorted(declared_e2e) == sorted(run.END_TO_END_UNITS)

    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        traced = worker.run_pass(_small_jobs(tmp_path), tracer)
    finally:
        tracing.uninstall(saved)
    emitted = run.per_layer([traced], [traced], run.layer_units())
    assert sorted(emitted) == sorted(declared_layers)
    assert set(traced["layers"]) | {"trace.run_s", "trace.untraced_run_s", "trace.overhead_s"} \
        == set(declared_layers)
    layers = traced["layers"]
    assert layers["linalg.rank_calls"] > 0 and layers["linalg.span_adds"] > 0
    assert 0.95 < layers["trace.self_coverage"] < 1.05


def test_layer_oracle_and_direction_parser():
    W = catalog.build(catalog.parse_family("det:3"))
    forms = [dict(f.terms) for f in W.forms]
    assert checks.layer_hilbert(forms, 9) == [1, 9, 9, 1]
    names = list(W.context.names)
    assert checks.parse_direction("-37*d[1,1] + d[3,2] - 2*d[2,2]", names) == {0: -37, 7: 1, 4: -2}
    mm = catalog.build(catalog.parse_family("matmul:1,2,2"))
    mm_names = list(mm.context.names)
    assert checks.parse_direction("d[1,2] + 3*d_y[2,1]", mm_names) == {
        mm_names.index("x[1,2]"): 1, mm_names.index("y[2,1]"): 3,
    }


def test_random_series_follow_their_description():
    a, b = workloads.random_series(5), workloads.random_series(5)
    assert a == b and len(a) == 18 * workloads.SERIES_PER_CELL
    for s in a:
        assert s.n in (3, 4) and s.d in (3, 4, 5) and 1 <= len(s.forms) <= 3
        for f in s.forms:
            assert all(sum(m) == s.d for m in f)
            assert all(c in workloads.SERIES_COEFFS and isinstance(c, Fraction) for c in f.values())


def test_seed_orders_jobs():
    keys = {tuple(j.key for j in workloads.jobs("families_hilbert", s)) for s in range(6)}
    assert len(keys) > 1
    assert [j.key for j in workloads.jobs("family_bounds", 4)] == \
        [j.key for j in workloads.jobs("family_bounds", 4)]
    series = workloads.jobs("random_series", 4)
    assert [j.argv for j in series] == [j.argv for j in workloads.jobs("random_series", 4)]
    assert sorted(j.argv[2] for j in series) == [f"series_{i:02d}.txt" for i in range(len(series))]


def test_missing_source_exits_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "families_hilbert", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
