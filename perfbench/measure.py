"""One workload's measurement: set-up samples, untraced and traced marches.

Everything goes through ``pnpfem.run(scenario, on_step=...)``.  Set-up time
is the time from the ``run`` call to ``on_step(0)``; march time is from
``on_step(0)`` to the last ``on_step``; a step sample is the time between
consecutive ``on_step`` calls, so it includes that step's diagnostics row.
"""

import resource
import statistics
import time

import numpy as np

from pnpfem import LinearSolveError, StepError, run

import reference
from tracing import Tracer

CLOCK = time.perf_counter

# Share of the run given to set-up-only samples, and their least number.
# Set-up of the 373-node channel takes about 0.1 s, so one sample is at
# the mercy of a single slow spell of the machine; the median of many,
# spread over the run, is not.
SETUP_SHARE = 0.2
SETUP_MIN = 5

END_TO_END = (
    ("setup_s", "s"),
    ("march_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("picard_iters_per_step", "count"),
    ("peak_rss_mb", "MB"),
)


class March:
    """Timings, checks and (when traced) the trace of one ``run`` call."""

    def __init__(self, setup_s, stamps, reports, attempted, failed,
                 tracer=None, errors=()):
        self.setup_s = setup_s
        self.march_s = stamps[-1] - stamps[0]
        self.steps_ms = np.diff(stamps) * 1e3
        self.iters = [r.picard_iters for r in reports[1:]]
        self.attempted = attempted
        self.failed = failed
        self.tracer = tracer
        self.errors = list(errors)


def _failed_steps(result, scenario, ref):
    """Indices of reports with an in-force flag false or off the reference."""
    reports = result.all_reports()
    bad = {}
    for m, rep in enumerate(reports):
        off = [f for f, active in result.in_force.items()
               if active and not getattr(rep, f)]
        if off:
            bad[m] = f"in-force flags false: {off}"
    if ref is not None:
        if len(ref) != len(reports):
            raise RuntimeError(
                f"reference has {len(ref)} rows, the run {len(reports)}")
        d = result.assemblies.d
        tol = reference.Tolerance(ref, scenario.config.picard_residual_tol,
                                  scenario.config.k, float(d.min()),
                                  float(d.sum()))
        for m, (rep, ref_rep) in enumerate(zip(reports, ref)):
            off = tol.mismatches(m, rep, ref_rep)
            if off:
                bad.setdefault(m, f"off the reference: {off}")
    return bad


def march(scenario, ref, tracer=None):
    """Run one scenario to its horizon and check every step."""
    stamps = []

    def on_step(m, _state):
        stamps.append(CLOCK())
        if m == 0 and tracer is not None:
            tracer.phase = "march"

    nsteps = int(np.floor(scenario.config.T / scenario.config.k + 1e-9))
    t0 = CLOCK()
    try:
        if tracer is None:
            result = run(scenario, on_step=on_step)
        else:
            with tracer.install():
                result = run(scenario, on_step=on_step)
        raised = None
    except (StepError, LinearSolveError) as err:
        if not stamps:  # set-up failed: no step was attempted
            raise
        result = getattr(err, "partial", None)
        raised = err
    done = len(stamps) - 1
    errors = []
    if raised is None:
        attempted, failed = nsteps, 0
    else:
        attempted, failed = done + 1, 1
        errors.append(f"step {done + 1}: {type(raised).__name__}: {raised}")
    if result is not None:
        bad = _failed_steps(result, scenario,
                            None if ref is None else ref[:done + 1])
        if 0 in bad:  # wrong initial data: no step can be right
            failed = attempted
        else:
            failed += len(bad)
        errors += [f"row {m}: {why}" for m, why in sorted(bad.items())]
        reports = result.all_reports()
    else:
        failed = attempted
        reports = []
    return March(stamps[0] - t0, stamps, reports, attempted, failed,
                 tracer, errors)


def setup_only(workload, seed):
    """Seconds from the ``run`` call to ``on_step(0)`` with no steps."""
    scenario = workload.scenario(seed, T=0.0)
    t = []
    t0 = CLOCK()
    run(scenario, on_step=lambda m, s: t.append(CLOCK()))
    return t[0] - t0


def measure(workload, seed, seconds, traced):
    """Measure one workload for about ``seconds``; returns a result dict."""
    ref = reference.load(workload.name) if seed == 0 else None
    warm = workload.scenario(seed)
    warm.config.T = warm.config.k  # imports, first factorization, caches
    run(warm)

    # Marches and set-up samples alternate over the whole run, so a slow
    # spell of the machine weighs on both alike; untraced and traced
    # marches alternate, each kind runs at least once, and another round
    # starts only if it still fits.
    start = CLOCK()
    deadline = start + seconds
    runs = {False: [], True: []}
    setups = []

    def round_s(kind):
        return statistics.median(
            m.setup_s + m.march_s for m in runs[kind]) / (1 - SETUP_SHARE)

    while True:
        pending = [k for k in ((False, True) if traced else (False,))
                   if not runs[k] or CLOCK() + round_s(k) <= deadline]
        if not pending:
            break
        for kind in pending:
            t0 = CLOCK()
            runs[kind].append(march(workload.scenario(seed), ref,
                                    Tracer() if kind else None))
            until = CLOCK() + (CLOCK() - t0) * SETUP_SHARE / (1 - SETUP_SHARE)
            while CLOCK() < until or len(setups) < SETUP_MIN:
                setups.append(setup_only(workload, seed))

    plain = runs[False]
    setups += [m.setup_s for m in plain]
    steps = np.concatenate([m.steps_ms for m in plain])
    iters = [it for m in plain for it in m.iters]
    every = plain + runs[True]
    e2e = {
        "setup_s": (statistics.median(setups), len(setups)),
        "march_s": (statistics.median(m.march_s for m in plain), len(plain)),
        "step_ms_p50": (float(np.percentile(steps, 50)), steps.size),
        "step_ms_p90": (float(np.percentile(steps, 90)), steps.size),
        "picard_iters_per_step": (float(np.mean(iters)), len(iters)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, 1),
    }
    attempted = sum(m.attempted for m in every)
    failed = sum(m.failed for m in every)
    out = {
        "e2e": e2e,
        "failed_step_frac": (failed / attempted, attempted),
        "attempted": attempted,
        "failed": failed,
        "errors": [e for m in every for e in m.errors][:20],
    }
    if traced:
        t = sorted(runs[True], key=lambda m: m.march_s)
        chosen = t[(len(t) - 1) // 2]
        out["layers"], out["absent"] = layer_metrics(
            chosen, e2e["march_s"][0])
        out["traced_marches"] = len(t)
    return out


S, M = "setup", "march"
# (metric suffix, unit, SpanStats field)
CALLS = ("_calls", "count", "calls")
TOTAL = ("_s", "s", "total")
SELF = ("_self_s", "s", "self_time")


def _stat(phase, span, field):
    return lambda m, _: getattr(m.tracer.get(phase, span), field)


def _rows(phase, span, *kinds, boundary=None):
    return tuple((span + suffix, unit, boundary or span,
                  _stat(phase, span, field)) for suffix, unit, field in kinds)


def _per_iter(span, per_iter):
    def value(m, _):
        iters = sum(m.iters)
        return m.tracer.get(M, span).calls / per_iter / iters if iters else 0.0
    return value


def _unattributed(m, _):
    return m.march_s - sum(s.self_time for (phase, _span), s
                           in m.tracer.stats.items() if phase == M)


# (metric, unit, the boundary it is built on or None, value of
# (traced march, untraced march_s)); a metric whose boundary the program no
# longer has is reported absent
LAYERS = (
    *_rows(S, "mesh.build", TOTAL),
    *_rows(S, "mesh.stencil", TOTAL),
    *_rows(S, "fespace.setup", TOTAL),
    *_rows(M, "fespace.drift", CALLS, TOTAL),
    *_rows(M, "detector.alpha", CALLS, TOTAL),
    *_rows(M, "stabilizer.alg1", CALLS, TOTAL),
    *_rows(M, "stabilizer.alg2", CALLS, TOTAL),
    *_rows(M, "stabilizer.transport", CALLS, TOTAL),
    *_rows(M, "solver.lu_factor", CALLS, TOTAL),
    # solves are traced through the factorizations the factor span returns
    *_rows(M, "solver.lu_solve", CALLS, TOTAL, boundary="solver.lu_factor"),
    ("solver.lu_nnz", "count", "solver.lu_factor",
     lambda m, _: float(np.mean(m.tracer.lu_nnz)) if m.tracer.lu_nnz
     else 0.0),
    *_rows(M, "solver.poisson", CALLS, TOTAL, SELF),
    *_rows(M, "solver.residual", CALLS, TOTAL, SELF),
    *_rows(M, "solver.sweep", CALLS, TOTAL, SELF),
    *_rows(M, "solver.step", SELF),
    ("solver.residuals_per_iter", "1/iter", "solver.residual",
     _per_iter("solver.residual", 1)),
    # alpha is computed once per species in each coefficient build
    ("solver.coeff_builds_per_iter", "1/iter", "detector.alpha",
     _per_iter("detector.alpha", 2)),
    ("solver.iters_max", "count", None,
     lambda m, _: max(m.iters, default=0)),
    ("solver.unconverged_steps", "count", "solver.step",
     lambda m, _: m.tracer.unconverged),
    *_rows(M, "diagnostics.report", CALLS, ("_s", "s", "self_time")),
    ("trace.march_s", "s", None, lambda m, _: m.march_s),
    ("trace.overhead_s", "s", None, lambda m, base: m.march_s - base),
    ("trace.unattributed_s", "s", None, _unattributed),
)


def layer_metrics(m, untraced_march_s):
    """Per-layer metrics of one traced march, and those that are absent."""
    out, absent = {}, []
    for name, _, span, value in LAYERS:
        if span in m.tracer.missing:
            absent.append(name)
        else:
            out[name] = value(m, untraced_march_s)
    return out, sorted(absent)
