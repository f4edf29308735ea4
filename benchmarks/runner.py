"""Child process of the benchmark: one rg1d CLI invocation.

Usage: python3 runner.py RECORD SPAWN_TIME TRACE [rg1d arguments...]

Imports ``rg1d.cli`` from the checkout's ``src/`` and calls
``rg1d.cli.main(arguments)``, exactly as the ``rg1d`` entry point does.
With no rg1d arguments it only imports, which times set-up alone.
The process exits with the CLI's exit code.  RECORD receives a JSON
object with the set-up time: from SPAWN_TIME, a ``time.monotonic()``
reading the parent took just before spawning, until the import returns.

With TRACE=1 every function named in TRACED is swapped for a timing
wrapper before ``main`` runs.  Each call records a span (name, start,
end, parent span).  Spans stay in memory; when the invocation ends they
are written to RECORD + ".spans" as four flat arrays (name id and parent
as int32, start and end as float64), and RECORD gets the span names, the
span count and the counters the HOOKS take from results.  One process is
one invocation, so the record file identifies the invocation.
"""

import json
import os
import sys
import time
from array import array

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# (module, attribute path) of every traced function; a dotted path names a
# class attribute.  The span name is "<module>.<path>".
TRACED = (
    ("cli", "main"),
    ("propagators", "free_propagator"),
    ("rgflow", "run_flow"),
    ("rgflow", "flow_checks"),
    ("rgflow", "fixed_point_values"),
    ("renorm", "z_flow"),
    ("renorm", "exponents"),
    ("correlations", "z_tables"),
    ("correlations", "correlation_rows"),
    ("correlations", "assemble_response"),
    ("nusolver", "inversion_rows"),
    ("nusolver", "solve_fixed_point"),
    ("g1map", "sweep_sector"),
    ("g1map", "SectorDomain.contains"),
    ("g1map", "iterate"),
    ("g1map", "verify_closeness"),
    ("g1map", "verify_sector"),
    ("oracle", "mp_map_trajectory"),
    ("oracle", "bubble_quadrature"),
    ("oracle", "wick_free_response"),
    ("oracle", "free_g"),
    ("oracle", "EDSystem.response"),
    ("oracle", "EDSystem.expectation"),
    ("oracle", "EDSystem.two_point"),
    ("oracle", "ed_micro"),
    ("oracle", "particle_hole_gap"),
)

# Spans split by the value of one argument: name -> (argument, variants).
VARIANTS = {
    "propagators.free_propagator": ("representation",
                                    ("kernel_sum", "cutoff_sum")),
}


def span_names():
    """Every span name the traced pass can report, variants expanded."""
    out = []
    for module, path in TRACED:
        name = module + "." + path
        if name in VARIANTS:
            out.extend(name + "." + v for v in VARIANTS[name][1])
        else:
            out.append(name)
    return out


def _sweep_counters(result):
    steps = result.n_steps
    live = sum(steps if ln.first_violation is None
               else min(ln.first_violation, steps) for ln in result.lanes)
    return [("g1map.sweep_sector.lane_steps", len(result.lanes) * steps, "sum"),
            ("g1map.sweep_sector.live_lane_steps", live, "sum")]


def _ed_counters(result):
    return [("oracle.ed_micro.sectors", len(result.basis), "max"),
            ("oracle.ed_micro.max_sector_dim",
             max(len(v) for v in result.basis.values()), "max")]


def merge_counter(counters, key, value, op):
    """Fold one value into counters[key] = [total, op]; op is "sum" or "max"."""
    old = counters.get(key)
    if old is None:
        counters[key] = [value, op]
    else:
        old[0] = old[0] + value if op == "sum" else max(old[0], value)


# Counters taken where the work happens: name -> result -> [(counter,
# value, "sum" | "max")].
HOOKS = {
    "nusolver.solve_fixed_point": lambda r: [
        ("nusolver.solve_fixed_point.iterations", r.iterations, "sum")],
    "g1map.sweep_sector": _sweep_counters,
    "oracle.ed_micro": _ed_counters,
}


class Tracer:
    """In-memory span store and the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self.name_id = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {}

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, fn, name):
        clock = time.perf_counter
        hook = HOOKS.get(name)
        variant = VARIANTS.get(name)
        if variant is not None:
            import inspect   # trace mode only: keeps set-up of untraced runs lean
            sig = inspect.signature(fn)
            ids = {v: self._id(name + "." + v) for v in variant[1]}
        else:
            nid = self._id(name)

        def traced(*args, **kwargs):
            if variant is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                sid = ids[bound.arguments[variant[0]]]
            else:
                sid = nid
            i = len(self.start)
            self.name_of.append(sid)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()
            if hook is not None:
                for key, value, op in hook(result):
                    merge_counter(self.counters, key, value, op)
            return result

        return traced

    def install(self):
        """Swap every TRACED function, wherever an rg1d module binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == "rg1d" or key.startswith("rg1d.")]
        for module_name, path in TRACED:
            module = sys.modules["rg1d." + module_name]
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr]
            wrapped = self.wrap(fn, module_name + "." + path)
            if owner is module:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)
            else:
                setattr(owner, attr, wrapped)

    def save(self, record, path):
        record["trace"] = {"names": self.names, "spans": len(self.start),
                           "counters": self.counters}
        with open(path, "wb") as fh:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def main():
    record_path, spawn_time, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[4:]
    sys.path.insert(0, SRC)
    import rg1d.cli
    setup_s = time.monotonic() - spawn_time
    if not os.path.realpath(rg1d.cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit("rg1d was not imported from %s" % SRC)
    record = {"setup_s": setup_s}
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    try:
        return rg1d.cli.main(argv) if argv else 0
    finally:
        if tracer is not None:
            tracer.save(record, record_path + ".spans")
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    raise SystemExit(main())
