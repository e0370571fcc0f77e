"""In-memory span tracer that wraps the library's public functions.

``Tracer.install`` replaces every module-level binding of every public
function of the package (``optim.solve_state``, ``verify.solve_state`` and
``solver.solve_state`` all become the same wrapper) so each call records a
span (name, start, end, parent, op id).  The library itself is untouched;
``Tracer.uninstall`` restores the original bindings.  A few wrappers also
read counts from their own arguments and results.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict

OPTIMIZER = "optim.proximal_gradient_solve"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(Counter)  # op id -> deterministic counters
        self._stack = []  # open span indices
        self._op = None
        self._saved = []  # (module, attribute, original)
        self._orig = {}  # span name -> original function

    # -- installation -----------------------------------------------------

    def _modules(self):
        mods = [self.package]
        for info in pkgutil.iter_modules(self.package.__path__):
            mods.append(importlib.import_module(
                f"{self.package.__name__}.{info.name}"))
        return mods

    def install(self):
        mods = self._modules()
        public = {}
        for mod in mods:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith(self.package.__name__)):
                    public[obj] = obj.__module__.rsplit(".", 1)[-1] \
                        + "." + obj.__name__
        wrappers = {fn: self._wrap(name, fn) for fn, name in public.items()}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        self._orig = {name: fn for fn, name in public.items()}

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def original(self, name):
        return self._orig[name]

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        self.counts[self._op][name + ".calls"] += 1

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _inside(self, name):
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook.before(self, bound)
                args, kwargs = bound.args, bound.kwargs
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook:
                hook.after(self, bound, result)
            return result

        return traced

    @contextlib.contextmanager
    def op(self, op_id):
        """Make a root span "op" for one timed op."""
        self._op = op_id
        self._open("op")
        try:
            yield
        finally:
            self._close()
            self._op = None

    def span_cost(self, n=20000):
        """Seconds one traced call adds, measured on an empty function."""
        def empty():
            pass

        traced = self._wrap("trace.calibration", empty)
        t0 = time.perf_counter()
        for _ in range(n):
            empty()
        t1 = time.perf_counter()
        for _ in range(n):
            traced()
        t2 = time.perf_counter()
        del self.spans[-n:]
        del self.counts[self._op]["trace.calibration.calls"]
        return max((t2 - t1) - (t1 - t0), 0.0) / n

    def count(self, key, n=1):
        self.counts[self._op][key] += n

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name},{t0!r},{t1!r},{parent},{op}\n")


class _Hook:
    def before(self, tracer, bound):
        pass

    def after(self, tracer, bound, result):
        pass


class _SolveState(_Hook):
    """Reads PCG iterations through solve_state's public stats argument."""

    def before(self, tracer, bound):
        if bound.arguments["stats"] is None:
            bound.arguments["stats"] = {}

    def after(self, tracer, bound, result):
        iters = bound.arguments["stats"]["cg_iterations"]
        tracer.count("solver.cg_iterations", iters)
        tracer.count("solver.cg_cell_updates",
                     iters * bound.arguments["init"].grid.n_cells)
        if tracer._inside(OPTIMIZER):
            tracer.count("optim.state_solves")


class _SolveAdjoint(_Hook):
    def after(self, tracer, bound, result):
        if tracer._inside(OPTIMIZER):
            tracer.count("optim.adjoint_solves")


class _ProxPair(_Hook):
    """Counts groups the prox zeroes and groups it must bisect."""

    def before(self, tracer, bound):
        if tracer._inside(OPTIMIZER):
            tracer.count("optim.trials")
        a = bound.arguments
        mode = a["mode"].name
        if mode not in ("TIME", "SPACE") or a["kappa"] == 0.0:
            return
        norms = tracer.original("fields.slice_norms")
        thresh = a["eta"] * a["kappa"]
        for v in (a["v1"], a["v2"]):
            n = norms(v, mode.lower())
            active = int((n > thresh).sum())
            tracer.count("sparsity.prox.active_groups", active)
            tracer.count("sparsity.prox.zero_groups", n.size - active)


class _Optimizer(_Hook):
    def after(self, tracer, bound, result):
        tracer.count("optim.iterations", result.n_iters)


class _WriteFieldCsv(_Hook):
    def before(self, tracer, bound):
        tracer.count("fields.write_field_csv.rows",
                     bound.arguments["u"].values.size)


_HOOKS = {
    "solver.solve_state": _SolveState(),
    "solver.solve_adjoint": _SolveAdjoint(),
    "sparsity.prox_pair": _ProxPair(),
    OPTIMIZER: _Optimizer(),
    "fields.write_field_csv": _WriteFieldCsv(),
}


_UNITS = {"solver.cg_iterations_per_state_solve": "count/solve",
          "sparsity.prox.bisect_share": "share",
          "optim.iterations": "count/solve", "optim.trials": "count/solve",
          "optim.accept_ratio": "share", "runner.artifact_bytes": "bytes/op",
          "trace.wall_s": "s", "trace.overhead_share": "share"}


def unit(name):
    if name in _UNITS:
        return _UNITS[name]
    return "s/op" if name.endswith((".s", ".self_s")) else "count/op"


def layer_metrics(tracer, op_ids):
    """Per-op means of the per-layer metrics over the given ops."""
    ops = set(op_ids)
    n_ops = max(len(ops), 1)
    incl, own = Counter(), Counter()
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        if span[4] in ops:
            incl[span[0]] += span[2] - span[1]
            own[span[0]] += self_s
    c = Counter()
    for op in ops:
        c.update(tracer.counts[op])

    def per_op(key):
        return c[key] / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in ("solver.solve_state", "solver.solve_adjoint",
                 "solver.solve_linearized", "sparsity.prox_pair"):
        out[name + ".calls"] = per_op(name + ".calls")
    for name in ("solver.solve_state", "solver.solve_adjoint",
                 "solver.solve_linearized", "sparsity.prox_pair",
                 "sparsity.select_subgradient", "sparsity.certificate",
                 OPTIMIZER, "verify.fd_gradient_check",
                 "verify.linearized_fd_refinement", "verify.duality_gap",
                 "verify.separation_monitor", "fields.write_field_csv",
                 "runner.parse_config_text", "presets.make_problem",
                 "model.validate_setup"):
        out[name + ".s"] = incl[name] / n_ops
    for name in ("solver.solve_state", OPTIMIZER, "runner.run"):
        out[name + ".self_s"] = own[name] / n_ops
    out["solver.cg_iterations_per_state_solve"] = ratio(
        c["solver.cg_iterations"], c["solver.solve_state.calls"])
    out["solver.cg_cell_updates"] = per_op("solver.cg_cell_updates")
    active = c["sparsity.prox.active_groups"]
    zero = c["sparsity.prox.zero_groups"]
    out["sparsity.prox.active_groups"] = active / n_ops
    out["sparsity.prox.zero_groups"] = zero / n_ops
    out["sparsity.prox.bisect_share"] = ratio(active, active + zero)
    solves = c[OPTIMIZER + ".calls"]
    out["optim.iterations"] = ratio(c["optim.iterations"], solves)
    out["optim.trials"] = ratio(c["optim.trials"], solves)
    out["optim.accept_ratio"] = ratio(c["optim.iterations"],
                                      c["optim.trials"])
    out["optim.state_solves_per_op"] = per_op("optim.state_solves")
    out["optim.adjoint_solves_per_op"] = per_op("optim.adjoint_solves")
    out["fields.write_field_csv.rows"] = per_op("fields.write_field_csv.rows")
    out["runner.artifact_bytes"] = per_op("runner.artifact_bytes")
    out["trace.spans_per_op"] = sum(1 for s in tracer.spans
                                    if s[4] in ops) / n_ops
    return out
