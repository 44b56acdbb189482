"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of z2memory from outside the package: each
function is replaced wherever a caller looks it up (the `from .x import f`
bindings in cli, thermal, macroscopicity, rvb and the package namespace),
and `TfimHamiltonian.apply` is wrapped on the class.  A span records its
name, start, end, parent span, thread id and an optional note.  Recording
is thread-safe, because the CLI pool runs sweep points concurrently; a span
opened on a pool thread with nothing open on that thread takes the main
thread's open top-level span (`cli.main`) as its parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

# (span name, module, attribute path, note): note(result) is stored on the span
TARGETS = (
    ("cli.main", "z2memory.cli", "main", None),
    ("model.apply", "z2memory.model", "TfimHamiltonian.apply", None),
    ("model.stabilizer_check", "z2memory.model", "stabilizer_check", None),
    ("eigensolve.lowest_eigenpairs", "z2memory.eigensolve", "lowest_eigenpairs",
     lambda pairs: int(pairs.eigenvalues.size)),
    ("eigensolve.full_spectrum", "z2memory.eigensolve", "full_spectrum", None),
    ("eigensolve.superposed_state", "z2memory.eigensolve", "superposed_state", None),
    ("macroscopicity.build_vcm", "z2memory.macroscopicity", "build_vcm", None),
    ("macroscopicity.mz_distribution", "z2memory.macroscopicity", "mz_distribution", None),
    ("macroscopicity.second_eigenvalue_scan", "z2memory.macroscopicity",
     "second_eigenvalue_scan", None),
    ("thermal.gibbs_from_spectrum", "z2memory.thermal", "gibbs_from_spectrum", None),
    ("thermal.build_w_matrix", "z2memory.thermal", "build_w_matrix", None),
    ("rvb.connected_correlation_scan", "z2memory.rvb", "connected_correlation_scan", None),
    ("rvb.rvb_vcm_check", "z2memory.rvb", "rvb_vcm_check", None),
    ("rvb.t_operator_moments", "z2memory.rvb", "t_operator_moments", None),
    ("rvb.iterated_swap_residual", "z2memory.rvb", "iterated_swap_residual", None),
    ("pauli.two_point", "z2memory.pauli", "two_point", None),
)

# Per-layer metrics: name -> unit.  Times are summed over threads, so with
# the CLI pool they can add up to more than the wall time of a pass.
LAYER_METRICS = {
    "model.apply_calls": "count",
    "model.apply_s": "s",
    "model.stabilizer_check_s": "s",
    "eigensolve.lowest_eigenpairs_s": "s",
    "eigensolve.lowest_eigenpairs_self_s": "s",
    "eigensolve.lowest_eigenpairs_calls": "count",
    "eigensolve.matvecs_per_pair": "matvec/pair",
    "eigensolve.full_spectrum_s": "s",
    "eigensolve.superposed_state_s": "s",
    "macroscopicity.build_vcm_s": "s",
    "macroscopicity.mz_distribution_s": "s",
    "macroscopicity.second_eigenvalue_scan_s": "s",
    "thermal.gibbs_from_spectrum_s": "s",
    "thermal.build_w_matrix_s": "s",
    "thermal.points": "count",
    "rvb.connected_correlation_scan_s": "s",
    "rvb.rvb_vcm_check_s": "s",
    "rvb.t_operator_moments_s": "s",
    "rvb.iterated_swap_residual_s": "s",
    "pauli.two_point_calls": "count",
    "pauli.two_point_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    note: int | None = None


class Tracer:
    """Records spans of wrapped z2memory functions; ``install`` patches,
    ``uninstall`` restores every original binding."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            on_main = threading.current_thread() is threading.main_thread()
            parent = stack[-1] if stack else (None if on_main else tracer._root)
            with tracer._lock:
                sid = next(tracer._ids)
            if not stack and on_main:
                tracer._root = sid
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if not stack and on_main:
                    tracer._root = None
            span = Span(sid, parent, name, start, end, threading.get_ident(),
                        note(result) if note else None)
            with tracer._lock:
                tracer.spans.append(span)
            return result

        return traced

    def install(self) -> None:
        package = [m for key, m in sys.modules.items()
                   if key == "z2memory" or key.startswith("z2memory.")]
        for name, module, path, note in TARGETS:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original, note)
            if outer:  # a method: patch the class once
                holders = [owner]
            else:  # a function: patch every module that bound it by name
                holders = [m for m in package if getattr(m, attr, None) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        """Spans recorded since the last call, and forget them."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics of one pass, named as in LAYER_METRICS, plus the
    bases of the ratio (``solve_matvecs``, ``pairs``) and ``top_level_s``,
    the time covered by spans that have no parent."""
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    children: dict[int, list[Span]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def self_time(name: str) -> float:
        return sum(
            (s.end - s.start) - _covered(
                (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())
            )
            for s in spans if s.name == name
        )

    solve_matvecs = sum(
        1 for s in spans
        if s.name == "model.apply" and s.parent in by_id
        and by_id[s.parent].name == "eigensolve.lowest_eigenpairs"
    )
    pairs = sum(s.note for s in spans if s.name == "eigensolve.lowest_eigenpairs")
    out = {
        "model.apply_calls": calls.get("model.apply", 0),
        "eigensolve.lowest_eigenpairs_self_s": self_time("eigensolve.lowest_eigenpairs"),
        "eigensolve.lowest_eigenpairs_calls": calls.get("eigensolve.lowest_eigenpairs", 0),
        "eigensolve.matvecs_per_pair": solve_matvecs / pairs if pairs else 0.0,
        "thermal.points": calls.get("thermal.build_w_matrix", 0),
        "pauli.two_point_calls": calls.get("pauli.two_point", 0),
        "cli.self_s": self_time("cli.main"),
    }
    for metric in LAYER_METRICS:
        if metric not in out:
            out[metric] = busy.get(metric[: -len("_s")], 0.0)
    out["solve_matvecs"] = solve_matvecs
    out["pairs"] = pairs
    out["top_level_s"] = sum(s.end - s.start for s in spans if s.parent is None)
    return out


def medians(per_pass: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def write_spans(path, passes: list[list[Span]]) -> None:
    """One JSON object per span, with the index of its traced pass."""
    with open(path, "w") as fh:
        for i, spans in enumerate(passes):
            for s in spans:
                fh.write(json.dumps({"pass": i, **s.__dict__}) + "\n")
