"""Span tracing of splinefollow from outside the package.

``Tracer.installed`` replaces the package's public functions (every
module binding of each one), the ``SplinePath`` and ``MechanicalSystem``
instance methods of the run, and ``RunLog.to_csv`` with wrappers that
record one span (name, start, end, parent) per call, and puts the
originals back when the block exits.  Spans stay in memory; per-layer
metrics are self times derived from them.
"""

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# public functions wrapped wherever a package module binds them
MODULE_FUNCTIONS = (
    ("sim", "run"), ("sim", "zero_dynamics_portrait"), ("sim", "portrait_to_files"),
    ("control", "step"), ("control", "resolve_input"),
    ("projection", "update"), ("projection", "global_initialize"),
    ("transform", "linearize"), ("frames", "frame_jet"),
    ("dynamics", "acceleration"), ("dynamics", "drift_and_input"),
)
PATH_METHODS = ("jet_unchecked", "evaluate_unchecked", "arclength_interp")
SYSTEM_METHODS = ("D",)


def _bindings(fn):
    """(module, attribute) pairs of the package that refer to fn."""
    return [
        (mod, attr)
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "splinefollow" or name.startswith("splinefollow."))
        for attr, value in list(vars(mod).items())
        if value is fn
    ]


_MISSING = object()


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the owners on exit.

    An attribute the owner did not hold itself (an instance method found
    on the class) is deleted again rather than set back.
    """
    saved = [(owner, attr, vars(owner).get(attr, _MISSING))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def latency_wrapped(pkg, latencies):
    """Replacements timing every control.step call into ``latencies``."""
    step = pkg.control.step

    def timed_step(*args, **kwargs):
        t0 = perf_counter()
        out = step(*args, **kwargs)
        latencies.append(perf_counter() - t0)
        return out

    return [(mod, attr, timed_step) for mod, attr in _bindings(step)]


class Tracer:
    """In-memory spans of wrapped calls, and the metrics derived from them."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.iterations = {}    # span index of projection.update -> iterations
        self._stack = [-1]

    def _wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, span_name, start, end, parent = (
            self._stack, self.span_name, self.start, self.end, self.parent)
        record_iterations = name == "projection.update"

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if record_iterations:
                self.iterations[idx] = out.last_iterations
            return out

        return wrapper

    def replacements(self, pkg, system, path):
        """Every (owner, attribute, wrapper) triple of one traced block."""
        out = []
        for mod_name, fn_name in MODULE_FUNCTIONS:
            fn = getattr(getattr(pkg, mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            out += [(mod, attr, wrapper) for mod, attr in _bindings(fn)]
        out.append((pkg.sim.RunLog, "to_csv",
                    self._wrap("sim.to_csv", pkg.sim.RunLog.to_csv)))
        for attr in PATH_METHODS:
            out.append((path, attr, self._wrap(f"curves.{attr}", getattr(path, attr))))
        for attr in SYSTEM_METHODS:
            out.append((system, attr, self._wrap(f"dynamics.{attr}", getattr(system, attr))))
        return out

    def installed(self, pkg, system, path):
        return patched(self.replacements(pkg, system, path))

    # --- analysis ---------------------------------------------------------

    def arrays(self):
        """Copies of the span columns: name id, parent index, duration."""
        names = np.array(self.span_name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        return names, parent, np.array(self.end) - np.array(self.start)

    def save(self, filename):
        """Write every span: names[span_name] is the name of each one."""
        np.savez_compressed(
            filename, names=np.array(self.names),
            span_name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start), end=np.array(self.end),
        )

    def metrics(self, ops):
        """Per-layer metrics of ``ops`` traced operations.

        Values are per control period (control.step call) unless the
        name says otherwise; a metric that does not apply to the
        workload is None.
        """
        names, parent, dur = self.arrays()
        name_list, parent_list = names.tolist(), parent.tolist()
        nid = {n: i for i, n in enumerate(self.names)}
        count = {n: int(np.sum(names == i)) for n, i in nid.items()}
        periods = count["control.step"]

        def mask(name):
            return names == nid.get(name, -1)

        def nearest(i, targets):
            """Index of the nearest ancestor of span i named in targets."""
            i = parent_list[i]
            while i >= 0 and name_list[i] not in targets:
                i = parent_list[i]
            return i

        def exclusive(name, minus):
            """Time in ``name`` spans outside their nearest ``minus`` spans."""
            top = nid.get(name, -1)
            cut = {nid[m] for m in minus if m in nid}
            total = float(dur[mask(name)].sum())
            for j in np.flatnonzero(np.isin(names, list(cut))):
                a = nearest(j, cut | {top})
                if a >= 0 and name_list[a] == top:
                    total -= dur[j]
            return total

        step_id = nid.get("control.step", -1)
        under = [False] * len(name_list)
        for i, p in enumerate(parent_list):
            under[i] = p >= 0 and (name_list[p] == step_id or under[p])
        under_step = np.array(under, dtype=bool)

        updates = np.flatnonzero(mask("projection.update") & under_step)
        iters = np.array([self.iterations[i] for i in updates])
        upd_id = nid.get("projection.update", -1)
        descent = {nearest(j, {upd_id})
                   for j in np.flatnonzero(mask("curves.evaluate_unchecked"))}
        descent_steps = sum(1 for i in updates if i in descent)

        lin = mask("transform.linearize")
        field_evals = int(np.sum(lin & ~under_step))
        is_run = count.get("sim.run", 0) > 0
        is_portrait = count.get("sim.zero_dynamics_portrait", 0) > 0
        writes = mask("sim.to_csv") | mask("sim.portrait_to_files")
        sim_top, sim_minus = (
            ("sim.run", ("control.step", "dynamics.acceleration",
                         "projection.global_initialize"))
            if is_run else
            ("sim.zero_dynamics_portrait", ("control.step", "transform.linearize",
                                            "dynamics.acceleration")))
        sim_self = exclusive(sim_top, sim_minus)

        def per_period(name):
            return 1e3 * float(dur[mask(name)].sum()) / periods

        return {
            "sim.self_ms": 1e3 * sim_self / periods,
            "sim.to_csv_s": float(dur[writes].sum()) / ops,
            "sim.portrait_self_s": sim_self / ops if is_portrait else None,
            "sim.field_evals": field_evals / ops if is_portrait else None,
            "control.step_self_ms": 1e3 * exclusive(
                "control.step", ("projection.update", "transform.linearize",
                                 "control.resolve_input")) / periods,
            "control.resolve_input_ms": per_period("control.resolve_input"),
            "projection.update_ms": 1e3 * float(dur[updates].sum()) / periods,
            "projection.iters_mean": float(iters.mean()),
            "projection.iters_max": int(iters.max()),
            "projection.descent_steps": descent_steps / ops,
            "projection.global_init_ms": (
                1e3 * float(dur[mask("projection.global_initialize")].sum()) / ops
                if is_run else None),
            "transform.linearize_self_ms": 1e3 * exclusive(
                "transform.linearize", ("frames.frame_jet",
                                        "dynamics.drift_and_input")) / periods,
            "frames.frame_jet_ms": per_period("frames.frame_jet"),
            "curves.jet_calls": count.get("curves.jet_unchecked", 0) / periods,
            "curves.jet_us": 1e6 * float(dur[mask("curves.jet_unchecked")].mean()),
            "dynamics.acceleration_ms": per_period("dynamics.acceleration"),
            "dynamics.acceleration_calls": count.get("dynamics.acceleration", 0) / periods,
            "dynamics.drift_and_input_ms": per_period("dynamics.drift_and_input"),
            "dynamics.inertia_evals": count.get("dynamics.D", 0) / periods,
        }
