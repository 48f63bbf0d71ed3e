"""Spans and counts recorded from outside the program.

Tracing wraps the public functions of each ``apolar`` module at the
names through which the calling module looks them up (a module global
such as ``apolar.apolarity.rank``, or a method such as
``SpanBuilder.add``).  Nothing under ``src/`` changes: the wrappers are
installed into an already imported package and only in a traced pass.

Each span records name, start, end and parent in memory.  A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans of one job sum to the job's root span.  Work the
tracer itself does to size an argument (scanning a matrix for its
nonzeros and bit lengths) runs in a ``trace.bookkeeping`` span, so it
is not charged to the layer that was called.
"""

from __future__ import annotations

import functools
import importlib
import time
import weakref
from collections import defaultdict

BOOKKEEPING = "trace.bookkeeping"
JOB = "bench.job"


class Tracer:
    """In-memory span and count recorder for one pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.max_entry_bits = 0
        self._catalecticants: dict[int, tuple[weakref.ref, int]] = {}

    def enter(self, name: str) -> None:
        self._stack.append(len(self.names))
        self.parents.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self.names.append(name)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())

    def exit(self) -> None:
        self.ends[self._stack.pop()] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += durations[i]
        out: dict[str, float] = defaultdict(float)
        for name, dur, ch in zip(self.names, durations, child):
            out[name] += dur - ch
        return dict(out)

    # catalecticants are remembered so that rank and kernel calls on them
    # can count the Hilbert-function value they produce

    def mark_catalecticant(self, m) -> None:
        self._catalecticants[id(m)] = (weakref.ref(m), m.cols)

    def catalecticant_cols(self, m) -> int | None:
        entry = self._catalecticants.get(id(m))
        if entry is None or entry[0]() is not m:
            return None
        return entry[1]


def _entry_bits(m) -> int:
    return max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in m.entries),
        default=0,
    )


def _scan_matrix(tracer: Tracer, m) -> None:
    tracer.enter(BOOKKEEPING)
    try:
        tracer.max_entry_bits = max(tracer.max_entry_bits, _entry_bits(m))
    finally:
        tracer.exit()


# hooks run after the wrapped call returns: (tracer, args, result)


def _after_catalecticant(tracer, args, m):
    tracer.counts["apolarity.catalecticant_cells"] += m.rows * m.cols
    tracer.enter(BOOKKEEPING)
    try:
        tracer.counts["apolarity.catalecticant_nnz"] += sum(1 for x in m.entries if x)
    finally:
        tracer.exit()
    tracer.counts["apolarity.catalecticant_cols"] += m.cols
    tracer.mark_catalecticant(m)


def _after_rank(tracer, args, r):
    tracer.counts["linalg.rank_calls"] += 1
    m = args[0]
    _scan_matrix(tracer, m)
    if tracer.catalecticant_cols(m) is not None:
        tracer.counts["apolarity.useful_columns"] += r


def _after_kernel(tracer, args, basis):
    tracer.counts["linalg.kernel_vectors"] += len(basis)
    m = args[0]
    _scan_matrix(tracer, m)
    cols = tracer.catalecticant_cols(m)
    if cols is not None:
        tracer.counts["apolarity.useful_columns"] += cols - len(basis)


def _after_span_add(tracer, args, enlarged):
    tracer.counts["linalg.span_adds"] += 1
    if enlarged:
        tracer.counts["linalg.span_enlargements"] += 1


def _counter(name):
    def hook(tracer, args, result):
        tracer.counts[name] += 1
    return hook


def _after_monomial_basis(tracer, args, monos):
    tracer.counts["poly.monomial_basis_len"] += len(monos)


def _after_ideal_component(tracer, args, duals):
    tracer.counts["apolarity.ideal_component_dim"] += len(duals)


def _after_build(tracer, args, series):
    tracer.counts["catalog.build_terms"] += sum(len(f.terms) for f in series.forms)


# (module, attribute, span name, hook); a span name shared by several
# attributes means one function reached through several lookups
WRAPS = (
    ("apolar.cli", "main", "cli.main", None),
    ("apolar.cli", "load_series", "cli.load_series", None),
    ("apolar.cli", "render_hilbert", "cli.render", None),
    ("apolar.cli", "render_bounds", "cli.render", None),
    ("apolar.cli", "parse_polynomial_list", "poly.parse", None),
    ("apolar.cli", "parse_dual_form", "poly.parse", None),
    ("apolar.cli", "hilbert_function", "apolarity.hilbert", _counter("apolarity.hilbert_calls")),
    ("apolar.cli", "bound_report", "bounds.report", None),
    ("apolar.catalog", "build", "catalog.build", _after_build),
    ("apolar.bounds", "hilbert_function", "apolarity.hilbert", _counter("apolarity.hilbert_calls")),
    ("apolar.bounds", "apolar_length", "apolarity.apolar_length", None),
    ("apolar.bounds", "minimal_generator_degrees", "apolarity.generator_degrees", None),
    ("apolar.bounds", "differentiate_series", "apolarity.differentiate", None),
    ("apolar.bounds", "diff_closure_dim", "apolarity.diff_closure", None),
    ("apolar.bounds", "dehomogenize", "poly.dehomogenize", None),
    ("apolar.bounds", "derivative_bound", "bounds.derivative_bound",
     _counter("bounds.derivative_bound_calls")),
    ("apolar.bounds", "generic_derivative_trials", "bounds.generic_trials", None),
    ("apolar.bounds", "bernardi_ranestad_upper", "bounds.br_upper", None),
    ("apolar.apolarity", "hilbert_function", "apolarity.hilbert", _counter("apolarity.hilbert_calls")),
    ("apolar.apolarity", "catalecticant_matrix", "apolarity.catalecticant", _after_catalecticant),
    ("apolar.apolarity", "apolar_ideal_component", "apolarity.ideal_component",
     _after_ideal_component),
    ("apolar.apolarity", "monomial_basis", "poly.monomial_basis", _after_monomial_basis),
    ("apolar.apolarity", "apply_operator", "poly.apply_operator",
     _counter("poly.apply_operator_calls")),
    ("apolar.apolarity", "rank", "linalg.rank", _after_rank),
    ("apolar.apolarity", "kernel_basis", "linalg.kernel", _after_kernel),
    ("apolar.linalg:SpanBuilder", "add", "linalg.span_add", _after_span_add),
)

SPAN_NAMES = tuple(sorted({w[2] for w in WRAPS} | {JOB, BOOKKEEPING}))


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer, args, result)
        return result

    return wrapper


def _resolve(path: str):
    """``package.module`` or ``package.module:Class``."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(tracer: Tracer) -> list:
    """Wrap every entry of WRAPS so that calls record into ``tracer``;
    returns what :func:`uninstall` needs to put the originals back."""
    saved = []
    for owner_path, attr, name, hook in WRAPS:
        owner = _resolve(owner_path)
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, name, original, hook))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced pass (self times and counts)."""
    selfs = tracer.self_times()
    out = {f"{name}_s": selfs.get(name, 0.0) for name in SPAN_NAMES}
    c = tracer.counts
    for key in (
        "apolarity.catalecticant_cells", "apolarity.catalecticant_nnz",
        "poly.monomial_basis_len", "linalg.rank_calls", "apolarity.ideal_component_dim",
        "linalg.kernel_vectors", "linalg.span_adds", "apolarity.hilbert_calls",
        "bounds.derivative_bound_calls", "poly.apply_operator_calls",
        "catalog.build_terms", "cli.stdout_bytes",
    ):
        out[key] = c[key]
    cols = c["apolarity.catalecticant_cols"]
    out["apolarity.useful_column_ratio"] = c["apolarity.useful_columns"] / cols if cols else 0.0
    adds = c["linalg.span_adds"]
    out["linalg.span_enlarge_ratio"] = c["linalg.span_enlargements"] / adds if adds else 0.0
    out["linalg.max_entry_bits"] = tracer.max_entry_bits
    out["trace.self_coverage"] = sum(selfs.values()) / wall_s if wall_s > 0 else 0.0
    return out
