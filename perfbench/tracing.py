"""Spans around the calls into each pnpfem layer, recorded from outside.

The program is not instrumented: ``Tracer.install`` replaces, for the
length of a ``with`` block, each boundary attribute by a wrapper that opens
a span.  A boundary is patched where the caller looks the name up at call
time, so ``solver.py``'s by-name imports are patched on ``pnpfem.solver``,
and scipy's ``splu`` on ``scipy.sparse.linalg``.  Spans nest on a stack;
closing one adds its duration to its parent's child time, which gives every
span's self time.  Aggregates are kept per (phase, span name), where the
phase is ``setup`` until ``on_step(0)`` and ``march`` after it.
"""

import contextlib
import time
from collections import defaultdict

import scipy.sparse.linalg as spla

import pnpfem.diagnostics
import pnpfem.mesh
import pnpfem.scenarios
import pnpfem.solver

# (owner, attribute, span name); several attributes may share a span name
BOUNDARIES = (
    (pnpfem.scenarios.Scenario, "make_mesh", "mesh.build"),
    (pnpfem.mesh, "build_sym_stencils", "mesh.stencil"),
    (pnpfem.solver, "assemble_mass", "fespace.setup"),
    (pnpfem.solver, "assemble_stiffness", "fespace.setup"),
    (pnpfem.solver, "lumped_mass_vector", "fespace.setup"),
    (pnpfem.scenarios, "averaged_interpolate", "fespace.setup"),
    (pnpfem.scenarios, "nodal_interpolate", "fespace.setup"),
    (pnpfem.solver, "assemble_drift", "fespace.drift"),
    (pnpfem.solver, "compute_alpha", "detector.alpha"),
    (pnpfem.solver, "build_stabilizer_alg1", "stabilizer.alg1"),
    (pnpfem.solver, "build_stabilizer_alg2", "stabilizer.alg2"),
    (pnpfem.solver, "star_transport_vector", "stabilizer.transport"),
    (pnpfem.solver.PoissonSolver, "solve", "solver.poisson"),
    (pnpfem.solver, "picard_step_alg1", "solver.step"),
    (pnpfem.solver, "picard_step_alg2", "solver.step"),
    (pnpfem.solver._StepContext, "residual_parts", "solver.residual"),
    (pnpfem.solver._StepContext, "linearized_solve", "solver.sweep"),
    (spla, "splu", "solver.lu_factor"),
    (pnpfem.diagnostics, "entropy_Eh", "diagnostics.report"),
    (pnpfem.diagnostics, "dissipation_Dh", "diagnostics.report"),
    (pnpfem.diagnostics, "energy_electrostatic", "diagnostics.report"),
    (pnpfem.diagnostics, "mass", "diagnostics.report"),
    (pnpfem.diagnostics, "extrema", "diagnostics.report"),
)


class SpanStats:
    """Call count, inclusive and self seconds of one span name in one phase."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span stack and per-(phase, name) aggregates for one traced run."""

    def __init__(self):
        self.phase = "setup"
        self.stats = defaultdict(SpanStats)
        self.missing = set()     # span names with a boundary absent
        self.lu_nnz = []         # SuperLU stored nonzeros of L and U, march
        self.unconverged = 0     # steps whose best residual missed the tol
        self._stack = []         # child seconds of each open span

    def span(self, name, fn, *args, **kwargs):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dt
            s = self.stats[(self.phase, name)]
            s.calls += 1
            s.total += dt
            s.self_time += dt - child

    def get(self, phase, name):
        return self.stats.get((phase, name), SpanStats())

    def _wrap(self, name, fn):
        if name == "solver.lu_factor":
            def wrapper(*args, **kwargs):
                lu = _LUProxy(self, self.span(name, fn, *args, **kwargs))
                if self.phase == "march":
                    self.lu_nnz.append(lu.nnz)
                return lu
        elif name == "solver.step":
            def wrapper(state, config, *args, **kwargs):
                out = self.span(name, fn, state, config, *args, **kwargs)
                if min(out[2]) > config.picard_residual_tol:
                    self.unconverged += 1
                return out
        else:
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Wrap every boundary present for the ``with`` block, then restore."""
        saved = []
        try:
            for owner, attr, name in BOUNDARIES:
                if attr not in vars(owner):
                    self.missing.add(name)
                    continue
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self._wrap(name, vars(owner)[attr]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class _LUProxy:
    """A SuperLU factorization whose ``solve`` calls are spans."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._tracer.span("solver.lu_solve", self._lu.solve,
                                 *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)
