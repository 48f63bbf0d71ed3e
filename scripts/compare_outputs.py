#!/usr/bin/env python3
"""Run a fixed set of ``apolar`` invocations against two source trees and
report every one whose stdout, stderr or exit code differs.

    python3 scripts/compare_outputs.py OLD_ROOT NEW_ROOT

Each root is a checkout whose ``src/`` holds the ``apolar`` package.
Every invocation runs once per tree, in a fresh process that imports
``apolar`` from that tree's ``src/`` (no bytecode is written into it).
The 143 invocations are:

* every job of the three workloads of ``bench/workloads.py`` at seeds 1
  and 2, each (workload, seed) in its own temporary directory holding
  its input files.  The library job prints ``bernardi_ranestad_upper``
  as ``bench/worker.py`` computes it;
* ``table det|pf|symdet --n-max 5 --mode verify`` in each format;
* ``apolar-gens --format json`` and ``bounds --seed 7 --format json`` on
  a few builtin families;
* ``bounds builtin:det:3 --partial d[1,1]``, alone and with a bare
  ``--assert-invariance`` in markdown and csv (the json form is a
  ``family_bounds`` job), and with the direction spelled ``d [1 , 1]``;
* ``bounds --format json`` on the form files of ``FORM_FILES``: two
  ternary cubics, two forms with a high exponent, the second refused
  by the a-priori length bound, and a binary quadric written with
  blanks inside its factors, a zero-padded index, fractions and Arabic-
  Indic digits (also run through ``hilbert``);
* ``bounds --trials 1 --format json`` on ``wide.txt``, a sum of 300
  squares: a wide count, and a random direction of 300 terms to format;
* ``bounds --partial "d[1] + 2*d[2] - 3*d[3]" --format json`` on the
  form files of ``PARTIAL_FILES``: one quartic, whose kernels are read
  once per pair of degrees {t, d+1-t}, and a series of two quartics,
  whose kernels are each computed;
* ``hilbert`` on ``bad-line.txt``, whose syntax error is on an indented
  third line: the message names the line and column in the file;
* ``apolar-gens --format json`` on the two ternary cubics of
  ``GENS_FILES``; the second prints generators with fractional
  coefficients (``-2/3``, ``-3/2``), kernel entries whose pivot
  coefficient is not 1;
* ``bernardi_ranestad_upper`` on ``det:4`` at the linear forms of
  ``LIBRARY_BOUNDS``: a scaled coordinate, and a sum of two coordinates,
  whose dehomogenization merges terms.

The number compared and every difference are printed; the exit code is 1
if any invocation differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

SEEDS = (1, 2)
TABLE_FAMILIES = ("det", "pf", "symdet")
FORMATS = ("markdown", "csv", "json")
FAMILIES = ("det:3", "pf:3", "perm:3", "minors:3,3,2", "monprod:5", "matmul:2,2,2")

FORM_FILES = {
    "ternary.txt": "x^2*y + x^2*z - y*z^2\n",
    "fractional.txt": "x^3 + 2*x*y^2 + 3*y*z^2 - z^3\n",
    "high.txt": "x^1000*y^3\n",
    "too-high.txt": "x^2000*y^3\n",
    "variants.txt": "x [ 01 ] ^ 2 + 1/٣ * y^2 - 3/6*x[1]*y\n",
}
WIDE_FILE = " + ".join(f"x[{i}]^2" for i in range(1, 301)) + "\n"
QUARTIC = "x[1]^3*x[2] + x[2]^2*x[3]^2 - 2*x[1]*x[3]^3 + x[1]^2*x[2]*x[3]\n"
PARTIAL_FILES = {
    "quartic.txt": QUARTIC,
    "quartics.txt": QUARTIC + "x[1]^4 - x[2]*x[3]^3 + 3*x[1]*x[2]^2*x[3]\n",
}
PARTIAL = "d[1] + 2*d[2] - 3*d[3]"
HILBERT_FILES = ("variants.txt", "bad-line.txt")
GENS_FILES = ("ternary.txt", "fractional.txt")
# linear forms at which the library call bounds det:4
LIBRARY_BOUNDS = ("3*x[4,4]", "x[1,1] + x[2,2]")

# the library job of bench/worker.py, reading the family and the linear
# form (a variable name, for the workload jobs) from its arguments
LIBRARY_CALL = """
import sys
import apolar
import apolar.bounds
import apolar.catalog

family, at = sys.argv[1:]
W = apolar.catalog.build(apolar.catalog.parse_family(family))
F = W.reduced_basis[0]
print(apolar.bounds.bernardi_ranestad_upper(F, apolar.parse_polynomial(at, W.context)))
"""


@dataclass(frozen=True)
class Invocation:
    """One process: ``python3 *args`` run in ``cwd``."""

    label: str
    args: tuple[str, ...]
    cwd: Path


def cli(label: str, argv, cwd: Path) -> Invocation:
    return Invocation(label, ("-m", "apolar", *argv), cwd)


def library(label: str, family: str, at: str, cwd: Path) -> Invocation:
    return Invocation(label, ("-c", LIBRARY_CALL, family, at), cwd)


def invocations(workdir: Path) -> list[Invocation]:
    """The fixed invocation list; the input files of the workload jobs
    and the form files are written under ``workdir``."""
    out = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            cwd = workdir / f"{workload}-{seed}"
            cwd.mkdir()
            for job in workloads.jobs(workload, seed):
                label = f"{workload} seed {seed}: {job.key}"
                if job.series is not None:
                    (cwd / job.argv[2]).write_text(job.series.text(), encoding="utf-8")
                if job.kind == "cli":
                    out.append(cli(label, job.argv, cwd))
                elif job.kind == "library":
                    out.append(library(label, job.family, job.extra["at"], cwd))
                else:
                    raise ValueError(f"{label}: unknown job kind {job.kind!r}")
    argvs = [
        ("table", family, "--n-max", "5", "--mode", "verify", "--format", fmt)
        for family in TABLE_FAMILIES
        for fmt in FORMATS
    ]
    for family in FAMILIES:
        form = f"builtin:{family}"
        argvs.append(("apolar-gens", "--form", form, "--format", "json"))
        argvs.append(("bounds", "--form", form, "--seed", "7", "--format", "json"))
    det3 = ("bounds", "--form", "builtin:det:3", "--partial", "d[1,1]")
    argvs.append(det3)
    argvs.extend((*det3, "--assert-invariance", "--format", fmt) for fmt in FORMATS[:2])
    argvs.append(("bounds", "--form", "builtin:det:3", "--partial", "d [1 , 1]"))
    for name, text in FORM_FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
        argvs.append(("bounds", "--form", name, "--format", "json"))
    (workdir / "wide.txt").write_text(WIDE_FILE, encoding="utf-8")
    argvs.append(("bounds", "--form", "wide.txt", "--trials", "1", "--format", "json"))
    for name, text in PARTIAL_FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
        argvs.append(("bounds", "--form", name, "--partial", PARTIAL, "--format", "json"))
    (workdir / "bad-line.txt").write_text("# a comment\nx^2 + y^2\n   x y\n", encoding="utf-8")
    argvs.extend(("hilbert", "--form", name) for name in HILBERT_FILES)
    argvs.extend(("apolar-gens", "--form", name, "--format", "json") for name in GENS_FILES)
    out.extend(cli(" ".join(argv), argv, workdir) for argv in argvs)
    for at in LIBRARY_BOUNDS:
        out.append(library(f"library bernardi_ranestad_upper det:4 at {at}", "det:4", at, workdir))
    return out


def run(root: Path, inv: Invocation) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``inv`` against ``root/src``."""
    src = str(Path(root, "src").resolve())
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, *inv.args], cwd=inv.cwd, env=env, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def differences(old: tuple[int, str, str], new: tuple[int, str, str]) -> list[str]:
    """One report line per differing part, with a unified diff of each
    differing stream."""
    out = []
    if old[0] != new[0]:
        out.append(f"  exit code {old[0]} -> {new[0]}")
    for name, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a != b:
            out.append(f"  {name} differs:")
            diff = difflib.unified_diff(
                a.splitlines(), b.splitlines(), "old", "new", lineterm="", n=1
            )
            out.extend("    " + line for line in diff)
    return out


def compare(old_root: Path, new_root: Path, invs: list[Invocation]) -> dict[str, list[str]]:
    """The report lines of each invocation that differs between the
    trees, by its label."""
    out = {}
    for inv in invs:
        diff = differences(run(old_root, inv), run(new_root, inv))
        if diff:
            out[inv.label] = diff
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        invs = invocations(Path(tmp))
        report = compare(args.old_root, args.new_root, invs)
    print(f"compared {len(invs)} invocations, {len(report)} differ")
    for label, lines in report.items():
        print(label)
        print("\n".join(lines))
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
