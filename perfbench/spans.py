"""Per-layer spans for the traced in-process run.

Wrappers are rebound, for the length of one pass, on the public
functions and class methods of each `tanaka` module, and on every
`from .x import y` binding of them in the other modules. Each wrapper
opens a span; a span's self time is its duration minus that of its
child spans. Counts are read from the call arguments and results,
outside the timed interval, and the time spent counting is charged to
no span.

Calls into `exact_linear` or `jsonio` made from inside a span of the
same layer are that layer's internals and open no span of their own:
`rank` reduces through `rref_canonicalize`, `emit_result` emits the
algebra with `emit_algebra`. The other layers nest, so that
`resolve_g0` excludes the `der0_basis` it calls and `act_quasi`
excludes the `MLift.make` validator.

`graded` has no spans; its time lands in the self time of its callers.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Optional

import tanaka  # noqa: F401  (loads every tanaka module)

FLAT_LAYERS = ("exact_linear", "jsonio")

# (module, attribute, span). "Class.method" names a method.
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("exact_linear", "kernel", "exact_linear.kernel"),
    ("exact_linear", "rank", "exact_linear.rank"),
    ("exact_linear", "solve", "exact_linear.solve"),
    ("exact_linear", "inverse", "exact_linear.solve"),
    ("exact_linear", "rref_canonicalize", "exact_linear.subspace"),
    ("exact_linear", "complement", "exact_linear.subspace"),
    ("exact_linear", "Subspace.span", "exact_linear.subspace"),
    ("exact_linear", "Subspace.add", "exact_linear.subspace"),
    ("exact_linear", "Subspace.intersect", "exact_linear.subspace"),
    ("exact_linear", "Subspace.coords_of", "exact_linear.subspace"),
    ("exact_linear", "Subspace.contains", "exact_linear.subspace"),
    ("lie", "der0_basis", "lie.der0_basis"),
    ("lie", "resolve_g0", "lie.resolve_g0"),
    ("lie", "validate", "lie.validate"),
    ("prolong", "prolong", "prolong.solve"),
    ("prolong", "prolong_step", "prolong.solve"),
    ("prolong", "extended_bracket", "prolong.extended_bracket"),
    ("torsion", "partial1_matrix", "torsion.boundary"),
    ("torsion", "partial_np1_matrix", "torsion.boundary"),
    ("torsion", "kernel_reports", "torsion.report"),
    ("torsion", "tower_report", "torsion.report"),
    ("filtered", "act_quasi", "filtered.act_quasi"),
    ("filtered", "mlift_of_quasi", "filtered.lift"),
    ("filtered", "quasi_of_mlift", "filtered.lift"),
    ("filtered", "full_lift", "filtered.lift"),
    ("filtered", "transition", "filtered.transition"),
    ("filtered", "project_gradation", "filtered.project"),
    ("filtered", "project_quasi", "filtered.project"),
    ("filtered", "compatible_gradation", "filtered.project"),
    ("filtered", "gradation_of_quasi", "filtered.project"),
    ("filtered", "is_compatible", "filtered.project"),
    ("filtered", "FilteredSpace.quotient_of", "filtered.quotient"),
    ("filtered", "FilteredSpace.quotient_lift", "filtered.quotient"),
    ("filtered", "FilteredSpace.make", "filtered.construct"),
    ("filtered", "AdaptedGradation.make", "filtered.construct"),
    ("filtered", "QuasiGradation.make", "filtered.construct"),
    ("filtered", "GradedFrame.make", "filtered.construct"),
    ("filtered", "MLift.make", "filtered.construct"),
    ("filtered", "make_filtered_from_graded", "filtered.construct"),
    ("jsonio", "emit_algebra", "jsonio.emit"),
    ("jsonio", "emit_g0_generators", "jsonio.emit"),
    ("jsonio", "emit_result", "jsonio.emit"),
    ("jsonio", "emit_result_document", "jsonio.emit"),
    ("jsonio", "parse_algebra", "jsonio.parse"),
    ("jsonio", "parse_g0", "jsonio.parse"),
    ("jsonio", "parse_result", "jsonio.parse"),
    ("selftest", "run_catalog_suite", "selftest.catalog_suite"),
    ("selftest", "run_filtered_suite", "selftest.filtered_suite"),
)

ROOT = "cli"

PROLONG = "wall_s on prolong_tower (its sparse prolong/der0 commands)"
TOWER = "wall_s on prolong_tower (its dense tower/torsion commands)"
FILTERED = "wall_s on selftest_filtered"
SETUP = "setup_s on every workload"

# (metric, unit, better, the end-to-end metric it should move); the key
# set the traced run reports.
PER_LAYER: tuple[tuple[str, str, str, str], ...] = (
    *((f"exact_linear.{op}.{key}", unit, "lower", moves)
      for op, moves in (("kernel", PROLONG), ("rank", TOWER))
      for key, unit in (("calls", "count"), ("self_s", "s"), ("cells", "count"),
                        ("nnz", "count"), ("max_bits", "bits"))),
    ("exact_linear.solve.calls", "count", "lower", FILTERED),
    ("exact_linear.solve.self_s", "s", "lower", FILTERED),
    ("exact_linear.subspace.calls", "count", "lower", FILTERED),
    ("exact_linear.subspace.self_s", "s", "lower", FILTERED),
    ("prolong.solve.self_s", "s", "lower", PROLONG),
    # exact counts over the kernel calls made by the level solver
    ("prolong.levels", "count", "lower", PROLONG),
    ("prolong.unknowns", "count", "lower", PROLONG),
    ("prolong.constraint_rows", "count", "lower", PROLONG),
    ("prolong.constraint_nnz", "count", "lower", PROLONG),
    ("prolong.extended_bracket.calls", "count", "lower", TOWER + "; peak_rss_mb if cached"),
    ("prolong.extended_bracket.self_s", "s", "lower", TOWER + "; peak_rss_mb if cached"),
    ("torsion.boundary.calls", "count", "lower", TOWER),
    ("torsion.boundary.self_s", "s", "lower", TOWER),
    ("torsion.boundary.rows", "count", "lower", TOWER),
    ("torsion.boundary.cols", "count", "lower", TOWER),
    ("torsion.report.self_s", "s", "lower", TOWER),
    ("lie.der0_basis.calls", "count", "lower", PROLONG),
    ("lie.der0_basis.self_s", "s", "lower", PROLONG),
    ("lie.resolve_g0.self_s", "s", "lower", PROLONG),
    ("lie.validate.calls", "count", "lower", SETUP),
    ("lie.validate.self_s", "s", "lower", SETUP),
    *((f"filtered.{name}", unit, "lower", FILTERED + " and peak_rss_mb there")
      for name, unit in (("act_quasi.calls", "count"), ("act_quasi.self_s", "s"),
                         ("lift.self_s", "s"), ("transition.self_s", "s"),
                         ("project.self_s", "s"), ("quotient.calls", "count"),
                         ("quotient.self_s", "s"), ("construct.self_s", "s"))),
    ("jsonio.emit.self_s", "s", "lower", PROLONG),
    ("jsonio.emit.bytes", "bytes", "lower", PROLONG),
    ("jsonio.parse.self_s", "s", "lower", SETUP),
    ("jsonio.parse.bytes", "bytes", "lower", SETUP),
    ("selftest.catalog_suite.s", "s", "lower", FILTERED),
    ("selftest.filtered_suite.self_s", "s", "lower", FILTERED),
    ("cli.self_s", "s", "lower", "wall_s on every workload"),
    # health of the trace itself: share of command time inside layer spans,
    # and the traced pass against the untraced one
    ("trace.coverage", "ratio", "higher", "none"),
    ("trace.overhead_ratio", "ratio", "lower", "none"),
)


def _module(name: str):
    return sys.modules[f"tanaka.{name}"]


def _matrix_stats(m) -> tuple[int, int, int]:
    """(cells, nonzeros, largest numerator or denominator bit length)."""
    nnz = bits = 0
    for row in m.entries:
        for e in row:
            if e:
                nnz += 1
                bits = max(bits, e.numerator.bit_length(), e.denominator.bit_length())
    return m.rows * m.cols, nnz, bits


class Recorder:
    """Span stack and per-span totals for one traced pass."""

    def __init__(self):
        self.stack: list[list] = []  # [span, child_ns]
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def call(self, span: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run fn inside a span named span."""
        parent = self.stack[-1][0] if self.stack else None
        layer = span.split(".")[0]
        if layer in FLAT_LAYERS and parent is not None and parent.split(".")[0] == layer:
            return fn(*args, **kwargs)
        frame = [span, 0]
        self.stack.append(frame)
        returned = False
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            returned = True
        finally:
            duration = time.perf_counter_ns() - start
            self.stack.pop()
            self.self_ns[span] = self.self_ns.get(span, 0) + duration - frame[1]
            self.total_ns[span] = self.total_ns.get(span, 0) + duration
            if returned:
                self.add(f"{span}.calls", 1)
                self._count(span, parent, args, result)
            if self.stack:
                # the parent's child time covers the counting as well
                self.stack[-1][1] += time.perf_counter_ns() - start
        return result

    def _count(self, span: str, parent: Optional[str], args: tuple, result: Any) -> None:
        if span in ("exact_linear.kernel", "exact_linear.rank"):
            cells, nnz, bits = _matrix_stats(args[0])
            self.add(f"{span}.cells", cells)
            self.add(f"{span}.nnz", nnz)
            key = f"{span}.max_bits"
            self.counts[key] = max(self.counts.get(key, 0), bits)
            if span == "exact_linear.kernel" and parent == "prolong.solve":
                self.add("prolong.levels", 1)
                self.add("prolong.unknowns", args[0].cols)
                self.add("prolong.constraint_rows", args[0].rows)
                self.add("prolong.constraint_nnz", nnz)
        elif span == "torsion.boundary":
            self.add("torsion.boundary.rows", result[1].rows)
            self.add("torsion.boundary.cols", result[1].cols)
        elif span == "jsonio.emit":
            self.add("jsonio.emit.bytes", len(result.encode()))
        elif span == "jsonio.parse" and isinstance(args[0], str):
            self.add("jsonio.parse.bytes", len(args[0].encode()))

    def root(self, fn: Callable, *args) -> Any:
        """Run fn as the root span of one command."""
        return self.call(ROOT, fn, args, {})

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except the overhead ratio."""
        out: dict[str, float] = {}
        for name, *_ in PER_LAYER:
            span, _, key = name.rpartition(".")
            if key == "self_s":
                out[name] = self.self_ns.get(span, 0) / 1e9
            elif key == "s":
                out[name] = self.total_ns.get(span, 0) / 1e9
            elif name in ("trace.coverage", "trace.overhead_ratio"):
                continue
            else:
                out[name] = self.counts.get(name, 0)
        total = self.total_ns.get(ROOT, 0)
        out["trace.coverage"] = 1 - self.self_ns.get(ROOT, 0) / total if total else 0.0
        return out


def _wrapper(recorder: Recorder, span: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(span, fn, args, kwargs)
    return traced


def resolve(module: str, attr: str) -> Any:
    """The object a WRAPPED entry names; raises if it no longer exists."""
    owner = _module(module)
    cls_name, _, method = attr.rpartition(".")
    if cls_name:
        return getattr(owner, cls_name).__dict__[method]
    return getattr(owner, attr)


class Installed:
    """Wrappers bound into tanaka; `remove` puts every original back."""

    def __init__(self, recorder: Recorder):
        self.undo: list[tuple[Any, str, Any]] = []
        for module, attr, span in WRAPPED:
            original = resolve(module, attr)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(_module(module), cls_name)
                if isinstance(original, staticmethod):
                    bound = staticmethod(_wrapper(recorder, span, original.__func__))
                else:
                    bound = _wrapper(recorder, span, original)
                self._set(cls, method, bound)
                continue
            wrapped = _wrapper(recorder, span, original)
            for mod in [m for name, m in sys.modules.items()
                        if name == "tanaka" or name.startswith("tanaka.")]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapped)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self.undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, value in reversed(self.undo):
            setattr(owner, name, value)
        self.undo.clear()
