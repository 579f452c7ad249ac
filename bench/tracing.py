"""Call-boundary spans around lorsolve's public functions.

The benchmark never edits the program: it replaces module and class
attributes with timing wrappers for the duration of one certify and puts
the originals back afterwards.  Names that a module imported directly
(``distribution`` in ``lorsolve.norms``, ``audit_contraction`` in
``lorsolve.solve``) are patched in the calling module, where the call
looks them up.

Each certify runs in a process of its own, so the spans of one tracer
belong to one request.  A span is (name, start, end, parent); spans stay
in memory and are written out when the certify ends.  A span's self time
is its duration minus the durations of its direct children.
"""

import contextlib
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans and counters of one certify."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    def call(self, name, fn, args, kwargs, after=None):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(self.counts, result, *args, **kwargs)
        return result

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after)

        return traced

    def span(self, name, after=None):
        """A ``make`` for :func:`patched`: wrap the original in a span."""
        return lambda fn: self.wrap(name, fn, after)

    def summary(self):
        """Per span name: (list of durations, total self time)."""
        child_time = defaultdict(float)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            durs, self_t = out.setdefault(name, ([], [0.0]))
            durs.append(end - start)
            self_t[0] += end - start - child_time[i]
        return {name: (durs, t[0]) for name, (durs, t) in out.items()}

    def write_csv(self, path):
        lines = ["name,start_s,end_s,parent"]
        t0 = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent in self.spans:
            lines.append(f"{name},{start - t0!r},{end - t0!r},{parent}")
        path.write_text("\n".join(lines) + "\n")


@contextlib.contextmanager
def patched(targets):
    """Replace attributes for the duration of a ``with`` block.

    ``targets`` are ``(owner, attribute, make)`` triples; the attribute is
    set to ``make(original)`` and restored on exit.  Yields the names of
    targets the program no longer has, which stay untraced (their metrics
    read 0), so a refactor of the program cannot break the run.
    """
    live = [(owner, attr, make) for owner, attr, make in targets
            if attr in vars(owner)]
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets
               if attr not in vars(owner)]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in live]
    try:
        for owner, attr, make in live:
            setattr(owner, attr, make(vars(owner)[attr]))
        yield missing
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def boundary_targets(tracer, on_solve):
    """The two call-boundary timers of every certify: setup and solve.

    ``on_solve(inst, solution, trace)`` receives what the CLI solved, so
    correctness checks can run on it after the timed region.
    """
    from lorsolve import cli

    def keep(_counts, result, inst, *args, **kwargs):
        on_solve(inst, *result)

    return [
        (cli, "load_instance", tracer.span("config.load_instance")),
        (cli, "solve_elementary", tracer.span("solve.solve_elementary", keep)),
    ]


def layer_targets(tracer):
    """Spans and counters around each module's public calls."""
    from lorsolve import cli, config, grids, maps, norms, solve, transfer

    def compile_traced(compile_expression):
        def compile_and_wrap(src):
            fn = compile_expression(src)
            traced = tracer.wrap("expressions.eval", fn)
            traced.source = fn.source
            return traced

        return compile_and_wrap

    def count_subsets(counts, _result, maps_arg):
        counts["transfer.overlap_subsets"] += 2 ** len(list(maps_arg)) - 1

    def count_apply_bytes(counts, _result, inst, phi):
        # Computed, not measured: per map an int64 index and a float64
        # weight per cell are read, phi is gathered, and the accumulator is
        # read and written.
        per_map = 16 * phi.ncells + 3 * phi.values.nbytes
        counts["transfer.apply_bytes_computed"] += inst.n_maps * per_map

    def count_levels(counts, dist, f):
        counts["grids.levels"] += dist.measures.size
        counts["grids.level_cells"] += f.ncells

    def count_bytes(counts, _result, _out_dir, _filename, text):
        counts["cli.bytes_written"] += len(text.encode())

    def count_measure_builds(prop):
        def cell_measures(self):
            if getattr(self, "_measures", None) is not None:
                return prop.fget(self)
            tracer.counts["grids.cell_measures_builds"] += 1
            return tracer.call("grids.cell_measures", prop.fget, (self,), {})

        return property(cell_measures)

    def classmethod_span(name):
        return lambda cm: classmethod(tracer.wrap(name, cm.__func__))

    span = tracer.span
    SampledFn = grids.SampledFn
    ProblemInstance = transfer.ProblemInstance
    return [
        (config, "compile_expression", compile_traced),
        (SampledFn, "from_csv", classmethod_span("grids.csv_parse")),
        (maps.PiecewiseMap, "__call__", span("maps.eval")),
        (maps.PiecewiseMap, "deriv", span("maps.eval")),
        (ProblemInstance, "__init__", span("transfer.index_build")),
        (solve, "audit_contraction", span("transfer.audit")),
        (transfer, "estimate_overlap_L", span("transfer.overlap", count_subsets)),
        (transfer, "estimate_multiplicity", span("transfer.multiplicity")),
        (transfer, "indicatrix_profile", span("maps.indicatrix")),
        (ProblemInstance, "apply", span("transfer.apply", count_apply_bytes)),
        (ProblemInstance, "norm", span("norms.norm")),
        (norms, "distribution", span("grids.distribution", count_levels)),
        (grids.StepDistribution, "lorentz_integral",
         span("grids.lorentz_integral")),
        (norms, "pointwise_norm", span("grids.pointwise_norm")),
        (SampledFn, "__init__", span("grids.sampledfn_init")),
        (SampledFn, "cell_measures", count_measure_builds),
        (SampledFn, "csv_text", span("grids.csv_text")),
        (solve.IterationTrace, "write_csv", span("solve.trace_write_csv")),
        (cli, "_atomic_write", span("cli.atomic_write", count_bytes)),
    ]


def layer_metrics(tracer, steps):
    """Per-module metrics of the traced certify; ``steps`` is its step count.

    ``*_s`` are inclusive call times, except ``config.self_s``,
    ``maps.eval_s``, ``transfer.index_build_s`` and ``solve.self_s``,
    which are self times of the module's own code; ``*_ms`` are medians
    per call.
    """
    d = tracer.summary()

    def total(name):
        return float(sum(d.get(name, ([], 0.0))[0]))

    def self_time(name):
        return d.get(name, ([], 0.0))[1]

    def calls(name):
        return len(d.get(name, ([], 0.0))[0])

    def per_call_ms(name):
        durs = d.get(name, ([], 0.0))[0]
        return 1e3 * statistics.median(durs) if durs else 0.0

    c = tracer.counts
    write_s = total("grids.csv_text") + total("solve.trace_write_csv") \
        + total("cli.atomic_write")
    return {
        "config.self_s": self_time("config.load_instance"),
        "grids.csv_parse_s": total("grids.csv_parse"),
        "expressions.eval_calls": calls("expressions.eval"),
        "expressions.eval_s": total("expressions.eval"),
        "maps.eval_s": self_time("maps.eval"),
        "transfer.index_build_s": self_time("transfer.index_build"),
        "transfer.audit_s": total("transfer.audit"),
        "transfer.overlap_s": total("transfer.overlap"),
        "transfer.overlap_subsets": c["transfer.overlap_subsets"],
        "transfer.multiplicity_s": total("transfer.multiplicity"),
        "maps.indicatrix_calls": calls("maps.indicatrix"),
        "transfer.apply_calls": calls("transfer.apply"),
        "transfer.apply_s": total("transfer.apply"),
        "transfer.apply_ms": per_call_ms("transfer.apply"),
        "transfer.apply_bytes_computed": c["transfer.apply_bytes_computed"],
        "norms.norm_calls": calls("norms.norm"),
        "norms.norm_s": total("norms.norm"),
        "norms.norm_ms": per_call_ms("norms.norm"),
        "grids.distribution_s": total("grids.distribution"),
        "grids.levels_per_cell": c["grids.levels"] / max(c["grids.level_cells"], 1),
        "grids.lorentz_integral_s": total("grids.lorentz_integral"),
        "grids.pointwise_norm_s": total("grids.pointwise_norm"),
        "grids.sampledfn_new": calls("grids.sampledfn_init"),
        "grids.sampledfn_init_s": total("grids.sampledfn_init"),
        "grids.cell_measures_builds": c["grids.cell_measures_builds"],
        "solve.steps": steps,
        "solve.step_ms": 1e3 * (total("solve.solve_elementary")
                                - total("transfer.audit")) / max(steps, 1),
        "solve.self_s": self_time("solve.solve_elementary"),
        "cli.write_s": write_s,
        "grids.csv_text_s": total("grids.csv_text"),
        "cli.bytes_written": c["cli.bytes_written"],
    }
