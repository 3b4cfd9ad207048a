"""The library calls the traced run wraps, and the per-layer metrics
computed from their spans.

The layers are the package modules: generators, systems, selection,
priors, solver and diagnostics.  `cli` only builds presets and seeds for
the benchmark, so it gets no timing of its own.  Module functions are
traced where the library looks them up (`solver.run` finds `abnbk_step`
and `selection.*` through module globals); system and prior methods are
traced on each instance.
"""

from __future__ import annotations

import numpy as np

from bregman_kaczmarz import diagnostics, generators, selection, solver

from tracing import aggregate, root_ns


def _count_rows(key, position):
    def observe(counts, args, kwargs, result):
        counts[key] += len(args[position])
    return observe


def _count_block(counts, args, kwargs, result):
    counts["blocks"] += 1
    counts["block_rows"] += len(result)


def _count_iterations(counts, args, kwargs, result):
    counts["iterations"] += result.iterations


def _count_support(counts, args, kwargs, result):
    counts["support_nnz"] += int(np.count_nonzero(result))
    counts["support_n"] += result.size


LIBRARY_CALLS = (
    (generators, "generate", None),
    (generators, "save_instance", None),
    (generators, "load_instance", None),
    (solver, "run", _count_iterations),
    (solver, "abnbk_step", None),
    (solver, "solution_error", None),
    (selection, "select_indices", _count_block),
    (selection, "weights_for", _count_rows("weighted_rows", 0)),
    (selection, "adaptive_stepsize", None),
    (selection, "effective_direction", None),
    (diagnostics, "check_gradients", None),
    (diagnostics, "audit_run", None),
    (diagnostics, "trajectory_pairs", None),
    (diagnostics, "estimate_eta", _count_rows("eta_pairs", 1)),
    (diagnostics, "block_jacobians", None),
    (diagnostics, "contraction_audit", None),
)
SYSTEM_CALLS = (
    ("eval_all", None),
    ("grad_block", _count_rows("grad_rows", 0)),
    ("jacobian", None),
    ("eval_component", None),
)
PRIOR_CALLS = (
    ("conj_grad", _count_support),
    ("bregman_distance", None),
)
# the spans that enclose a whole solve or audit
OUTER_CALLS = ("solver.run", "diagnostics.audit_run")
ORIGINALS = {(module, attr): getattr(module, attr)
             for module, attr, _ in LIBRARY_CALLS}


def _layer(module):
    return module.__name__.rsplit(".", 1)[-1]


def trace_library(tracer):
    for module, attr, observe in LIBRARY_CALLS:
        tracer.patch(module, attr, f"{_layer(module)}.{attr}", observe)


def trace_system(tracer, system):
    for attr, observe in SYSTEM_CALLS:
        tracer.patch(system, attr, f"systems.{attr}", observe)


def trace_prior(tracer, prior):
    for attr, observe in PRIOR_CALLS:
        tracer.patch(prior, attr, f"priors.{attr}", observe)


def still_patched(systems, priors):
    """Names of traced attributes that were not restored."""
    left = [f"{_layer(module)}.{attr}" for (module, attr), fn in ORIGINALS.items()
            if getattr(module, attr) is not fn]
    for objects, calls in ((systems, SYSTEM_CALLS), (priors, PRIOR_CALLS)):
        left += [f"{type(obj).__name__}.{attr}" for obj in objects
                 for attr, _ in calls if attr in vars(obj)]
    return left


def per_layer(tracer, traced, untraced):
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Times are totals over the pass in ms; `self_ms` leaves out the time
    of traced calls made from inside.  `traced` and `untraced` are the
    two passes over the same inputs; coverage is the share of the traced
    pass's timed set-ups and operations that spans cover, and
    `unattributed_frac` the share left as self time of the outer solve and
    audit spans, i.e. spent in the library outside every wrapped call.
    """
    stats = aggregate(tracer.spans)
    counts = tracer.counts

    def ms(name):
        return (stats[name].total_ns / 1e6 if name in stats else 0.0), "ms"

    def self_ms(name):
        return (stats[name].self_ns / 1e6 if name in stats else 0.0), "ms"

    def calls(name):
        return (stats[name].calls if name in stats else 0), "count"

    def count(value):
        return value, "count"

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    fallbacks = stats.get("selection.adaptive_stepsize")
    return {
        "systems.eval_all.ms": ms("systems.eval_all"),
        "systems.eval_all.calls": calls("systems.eval_all"),
        "systems.grad_block.ms": ms("systems.grad_block"),
        "systems.grad_block.calls": calls("systems.grad_block"),
        "systems.grad_block.rows": count(counts["grad_rows"]),
        "systems.jacobian.ms": ms("systems.jacobian"),
        "systems.eval_component.ms": ms("systems.eval_component"),
        "systems.eval_component.calls": calls("systems.eval_component"),
        "solver.abnbk_step.self_ms": self_ms("solver.abnbk_step"),
        "solver.run.self_ms": self_ms("solver.run"),
        "solver.solution_error.ms": ms("solver.solution_error"),
        "solver.iterations": count(counts["iterations"]),
        "priors.bregman_distance.ms": ms("priors.bregman_distance"),
        "priors.conj_grad.ms": ms("priors.conj_grad"),
        "priors.support_frac": ratio(counts["support_nnz"], counts["support_n"]),
        "selection.select_indices.ms": ms("selection.select_indices"),
        "selection.weights_for.ms": ms("selection.weights_for"),
        "selection.adaptive_stepsize.ms": ms("selection.adaptive_stepsize"),
        "selection.effective_direction.ms": ms("selection.effective_direction"),
        "selection.block_rows.mean": (ratio(counts["block_rows"],
                                            counts["blocks"])[0], "count"),
        "selection.rows_dropped": count(counts["block_rows"]
                                        - counts["weighted_rows"]),
        "selection.adaptive_fallbacks": count(
            fallbacks.errors["DegenerateDirection"] if fallbacks else 0),
        "generators.generate.ms": ms("generators.generate"),
        "generators.save_instance.ms": ms("generators.save_instance"),
        "generators.load_instance.ms": ms("generators.load_instance"),
        "diagnostics.estimate_eta.self_ms": self_ms("diagnostics.estimate_eta"),
        "diagnostics.check_gradients.self_ms": self_ms("diagnostics.check_gradients"),
        "diagnostics.contraction_audit.ms": ms("diagnostics.contraction_audit"),
        "diagnostics.block_jacobians.self_ms": self_ms("diagnostics.block_jacobians"),
        "diagnostics.eta_pairs": count(counts["eta_pairs"]),
        "trace.overhead_frac": (traced.wall_s / untraced.wall_s - 1.0, "ratio"),
        "trace.coverage": (root_ns(tracer.spans) / 1e9 / traced.wall_s, "ratio"),
        "trace.unattributed_frac": (
            sum(self_ms(name)[0] for name in OUTER_CALLS) / 1e3 / traced.wall_s,
            "ratio"),
    }


def split(tracer, traced):
    """Share of the traced pass's timed set-ups and operations per span
    name, as name -> (self share, inclusive share), largest self first."""
    wall = traced.wall_s * 1e9
    stats = aggregate(tracer.spans)
    rows = {name: (st.self_ns / wall, st.total_ns / wall)
            for name, st in stats.items()}
    return dict(sorted(rows.items(), key=lambda kv: -kv[1][0]))
