"""In-memory timing spans around the public functions of each idealglue
module, installed from outside the package at run time.

`LAYERS` names each traced function and the span name it records under.
`Tracer.install` replaces every reference to a listed function in the
loaded `idealglue` modules (so `from .gluing import jacobian` in another
module is traced too) with a wrapper that records a span while an op is
active; `uninstall` puts the originals back.  A function that no longer exists is listed in `missing`, not
raised.  Spans are plain lists [name, start, end, parent, op, note], where
parent is the index of the enclosing span (-1 at an op's root) and note
holds a few numbers taken from the result (`NOTES`).
"""
from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (span name, module, function)
LAYERS = (
    ("fileio.parse", "fileio", "parse_triangulation"),
    ("fileio.format", "fileio", "format_triangulation"),
    ("triangulation.edge_classes", "triangulation", "compute_edge_classes"),
    ("gluing.exponent_matrix", "gluing", "build_exponent_matrix"),
    ("gluing.holonomies", "gluing", "all_holonomies"),
    ("gluing.jacobian", "gluing", "jacobian"),
    ("gluing.residual", "gluing", "evaluate_residual"),
    ("solver.newton", "solver", "newton_solve"),
    ("solver.sweep", "solver", "sweep_family"),
    ("solver.sample", "solver", "cone_locus_sample"),
    ("solver.certificate", "solver", "essential_edge_certificate"),
    ("solver.cover_report", "solver", "branched_cover_report"),
    ("develop.spanning_tree", "develop", "develop_spanning_tree"),
    ("develop.edge_matrix", "develop", "edge_holonomy_matrix"),
    ("develop.face_step", "develop", "develop_across_face"),
    ("geometry.volume", "geometry", "solution_volume"),
    ("geometry.cone_angles", "geometry", "edge_cone_angles"),
    ("report.build", "report", "build_solution_report"),
    ("report.verify", "report", "verify_report"),
)

# span name -> result -> note recorded on the span
NOTES = {
    "solver.newton": lambda r: (r.iterations, bool(r.converged), r.reason),
    "solver.sample": lambda r: (len(r[0]), r[1]),
}


class Tracer:
    """Collects spans for the ops run between `begin_op` and `end_op`."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._op = None
        self._installed = []        # (module, attribute, original)

    def install(self, package: str = "idealglue") -> None:
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for span, module, func in LAYERS:
            try:
                original = getattr(importlib.import_module(f"{package}.{module}"),
                                   func)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{func}")
                continue
            wrapper = self._wrap(span, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._installed.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._installed):
            setattr(m, attr, original)
        self._installed.clear()

    def _wrap(self, span: str, fn):
        note = NOTES.get(span)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            rec = [span, 0.0, 0.0, self._stack[-1], self._op, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self._stack.pop()
            if note is not None:
                rec[5] = note(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op: int, name: str = "op") -> None:
        self._op = op
        self._stack = [len(self.spans)]
        self.spans.append([name, time.perf_counter(), 0.0, -1, op, None])

    def end_op(self) -> None:
        self.spans[self._stack[0]][2] = time.perf_counter()
        self._op = None
        self._stack = []

    def add_span(self, name: str, start: float, end: float, note=None) -> int:
        """Record a span measured by the caller under the active op."""
        self.spans.append([name, start, end, self._stack[-1], self._op, note])
        return len(self.spans) - 1

    def adopt(self, spans, parent: int) -> None:
        """Append spans recorded by another process (one op each), moving
        their roots under `parent` and into the active op."""
        base = len(self.spans)
        for name, start, end, par, _, note in spans:
            par = parent if par < 0 else base + par
            self.spans.append([name, start, end, par, self._op, note])


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def summarize(spans) -> dict:
    """Per span name: call count and total self time."""
    calls, self_s = defaultdict(int), defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        calls[s[0]] += 1
        self_s[s[0]] += st
    return {name: (calls[name], self_s[name]) for name in calls}


def newton_step_counts(spans) -> tuple:
    """(accepted steps, line-search residual evaluations) over all
    `solver.newton` spans.

    Each `newton_solve` iteration evaluates the residual at the current
    point and returns if it has converged; otherwise it evaluates the
    Jacobian once and the residual once per trial step.  A solve that ends
    converged or out of iterations makes one current-point evaluation more
    than it makes Jacobians; one that stops without accepting a step
    (stalled, degenerate) makes as many.  The trial evaluations are the
    direct residual children minus the current-point ones, and every
    iteration counted in the result accepted one step.
    """
    residuals, jacobians = defaultdict(int), defaultdict(int)
    for name, _, _, parent, *_ in spans:
        if name == "gluing.residual":
            residuals[parent] += 1
        elif name == "gluing.jacobian":
            jacobians[parent] += 1
    accepted = trials = 0
    for i, (name, *_, note) in enumerate(spans):
        if name != "solver.newton" or note is None:
            continue
        iterations, converged, reason = note
        final = 1 if converged or reason == "max_iterations" else 0
        accepted += iterations
        trials += max(0, residuals[i] - jacobians[i] - final)
    return accepted, trials
