"""Tracing of the predissoc layers from outside the program, by patching.

The program is not instrumented.  Instead :class:`Tracer` replaces, for the
duration of a traced work unit, every public function of the seven layer modules
at every module attribute that holds it (``predissoc.spectrum.
resonance_estimates`` and ``predissoc.solver.resonance_estimates`` are the
same object, so both names get the same wrapper), plus the scipy/numpy
eigen and factorisation entry points, so ``solver.eig_*`` keeps measuring
the eigensolve whichever routine the solver uses.  Those routines count
only when a solver span calls them (numpy's Gauss-Legendre rule calls
``eigvalsh`` too).

Each wrapped call is a span ``(id, parent, op, name, start, end, self_s)``
kept in memory; the self time is the span minus the time its direct
children cover.  Expression evaluation is far too fine-grained for one span
per call (hundreds of thousands per op), so top-level ``AnalyticExpr``
calls are only counted and timed, and their time is charged to the
enclosing span as child time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("expressions", "potentials", "turning_points", "actions",
          "spectrum", "solver", "runner")

#: Eigen entry points: their returned eigenvalues are counted.
EIGEN_ROUTINES = {
    "scipy.linalg": ("eig", "eigvals", "eigh", "eigvalsh", "eig_banded",
                     "eigvals_banded"),
    "scipy.sparse.linalg": ("eigs", "eigsh"),
    "numpy.linalg": ("eig", "eigvals", "eigh", "eigvalsh"),
}
#: Factorisations a shift-invert eigensolve needs; timed as eigensolve.
FACTOR_ROUTINES = {
    "scipy.linalg": ("lu_factor",),
    "scipy.sparse.linalg": ("splu", "factorized"),
}

#: Spans that carry the resonance box (window, h) for the eigenvalue yield.
_BOX_ARGS = ("window", "h")

#: Solver spans reported separately from ``solver.self_s``.
_SOLVER_STAGES = ("solver.build_hamiltonian", "solver.match_resonances")


class _Open:
    __slots__ = ("id", "name", "parent", "child_s", "box")

    def __init__(self, span_id, name, parent, box):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.box = box


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op: int | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.eig_by_dim: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.expr_calls = 0
        self.expr_points = 0
        self.expr_s = 0.0
        self.levels_found = 0
        self.skipped = 0
        self.eig_calls = 0
        self.eig_s = 0.0
        self.eig_dim_max = 0
        self.eig_bytes = 0
        self.eigs_computed = 0
        self.eigs_in_box = 0
        self._stack: list[_Open] = []
        self._next_id = 0
        self._in_expr = False
        self._in_eig = False
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every target; calling it twice without uninstall is an error."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import scipy.linalg
        import scipy.sparse.linalg

        from predissoc.expressions import AnalyticExpr
        from predissoc.potentials import PotentialSystem

        targets: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"predissoc.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = self._wrapper(fn, f"{layer}.{name}")
        owners = {"scipy.linalg": scipy.linalg,
                  "scipy.sparse.linalg": scipy.sparse.linalg,
                  "numpy.linalg": np.linalg}
        for table, counts in ((EIGEN_ROUTINES, True), (FACTOR_ROUTINES, False)):
            for modname, names in table.items():
                for name in names:
                    fn = getattr(owners[modname], name, None)
                    if fn is not None and id(fn) not in targets:
                        targets[id(fn)] = self._eig_wrapper(fn, f"{modname}.{name}", counts)

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "predissoc" or n.startswith("predissoc."))]
        modules += list(owners.values())
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, value, wrapper)

        build = PotentialSystem.__dict__["from_strings"]
        self._patch(PotentialSystem, "from_strings", build, classmethod(
            self._wrapper(build.__func__, "potentials.PotentialSystem.from_strings")))
        for cls in _subclasses(AnalyticExpr):
            if "__call__" in cls.__dict__:
                orig = cls.__dict__["__call__"]
                self._patch(cls, "__call__", orig, self._expr_wrapper(orig))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    # -- wrappers ----------------------------------------------------------

    def _open(self, name: str, box=None) -> _Open:
        parent = self._stack[-1] if self._stack else None
        if box is None and parent is not None:
            box = parent.box
        entry = _Open(self._next_id, name, parent, box)
        self._next_id += 1
        self._stack.append(entry)
        return entry

    def _close(self, entry: _Open, start: float, end: float) -> None:
        self._stack.pop()
        dur = end - start
        if entry.parent is not None:
            entry.parent.child_s += dur
        self.spans.append((entry.id, entry.parent.id if entry.parent else None,
                           self.op, entry.name, start, end, dur - entry.child_s))
        self.calls[entry.name] += 1
        self.total_s[entry.name] += dur

    def _wrapper(self, fn, name):
        sig = inspect.signature(fn)
        carries_box = all(arg in sig.parameters for arg in _BOX_ARGS)
        tracer = self

        def traced(*args, **kwargs):
            box = None
            if carries_box:
                bound = sig.bind_partial(*args, **kwargs).arguments
                if bound.get("window") is not None and "h" in bound:
                    box = (bound["window"], bound["h"])
            entry = tracer._open(name, box)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(entry, start, perf_counter())
            if name == "spectrum.bohr_sommerfeld_levels":
                tracer.levels_found += len(result)
            elif name == "spectrum.resonance_estimates":
                tracer.skipped += len(result[1])
            return result

        return traced

    def _eig_wrapper(self, fn, name, counts_eigs):
        tracer = self

        def traced(*args, **kwargs):
            caller = tracer._stack[-1].name if tracer._stack else ""
            if tracer._in_eig or not caller.startswith("solver."):
                # called from inside another routine, or not by the solver
                return fn(*args, **kwargs)
            operand = args[0] if args else next(iter(kwargs.values()), None)
            dim = int(getattr(operand, "shape", (0,))[0])
            tracer._in_eig = True
            entry = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._in_eig = False
                tracer._close(entry, start, end)
            tracer.eig_s += end - start
            tracer.eig_dim_max = max(tracer.eig_dim_max, dim)
            tracer.eig_bytes += _operand_bytes(operand)
            by_dim = tracer.eig_by_dim[f"{name}[{dim}]"]
            by_dim[0] += 1
            by_dim[1] += end - start
            if counts_eigs:
                vals = np.asarray(result[0] if isinstance(result, tuple) else result)
                tracer.eig_calls += 1
                tracer.eigs_computed += vals.size
                if entry.box is not None:
                    tracer.eigs_in_box += _count_in_box(vals, *entry.box)
            return result

        return traced

    def _expr_wrapper(self, orig):
        tracer = self

        def __call__(node, x):
            if tracer._in_expr:
                return orig(node, x)
            tracer._in_expr = True
            start = perf_counter()
            try:
                return orig(node, x)
            finally:
                dur = perf_counter() - start
                tracer._in_expr = False
                tracer.expr_calls += 1
                tracer.expr_points += np.size(x)
                tracer.expr_s += dur
                if tracer._stack:
                    tracer._stack[-1].child_s += dur

        return __call__

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer, summed over all spans (eigen spans excluded)."""
        out = dict.fromkeys(LAYERS, 0.0)
        out["expressions"] += self.expr_s
        for _id, _parent, _op, name, _start, _end, self_s in self.spans:
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += self_s
        return out

    def per_layer(self, n_ops: int) -> dict[str, float]:
        """Per-op layer metrics over ``n_ops`` traced ops (see bench/README.md)."""
        per_op = 1.0 / n_ops
        selfs = self.layer_self_s()
        solver_rest = sum(s for _i, _p, _o, name, _b, _e, s in self.spans
                          if name.startswith("solver.") and name not in _SOLVER_STAGES)
        calls, total = defaultdict(int, self.calls), defaultdict(float, self.total_s)
        well = calls["turning_points.find_well_endpoints"]
        return {
            "runner.self_s": selfs["runner"] * per_op,
            "potentials.self_s": selfs["potentials"] * per_op,
            "expressions.eval_calls": self.expr_calls * per_op,
            "expressions.eval_points": self.expr_points * per_op,
            "expressions.eval_s": self.expr_s * per_op,
            "expressions.self_s": selfs["expressions"] * per_op,
            "turning_points.well_calls": well * per_op,
            "turning_points.exit_calls": calls["turning_points.find_exit_point"] * per_op,
            "turning_points.well_calls_per_level": well / self.levels_found if self.levels_found else 0.0,
            "turning_points.self_s": selfs["turning_points"] * per_op,
            "actions.action_calls": calls["actions.action"] * per_op,
            "actions.action_derivative_calls": calls["actions.action_derivative"] * per_op,
            "actions.agmon_calls": calls["actions.agmon_distance"] * per_op,
            "actions.self_s": selfs["actions"] * per_op,
            "spectrum.levels_s": total["spectrum.bohr_sommerfeld_levels"] * per_op,
            "spectrum.estimates_s": total["spectrum.resonance_estimates"] * per_op,
            "spectrum.levels_found": self.levels_found * per_op,
            "spectrum.skipped": self.skipped * per_op,
            "spectrum.self_s": selfs["spectrum"] * per_op,
            "solver.assembly_s": total["solver.build_hamiltonian"] * per_op,
            "solver.assembly_calls": calls["solver.build_hamiltonian"] * per_op,
            "solver.eig_s": self.eig_s * per_op,
            "solver.eig_calls": self.eig_calls * per_op,
            "solver.eig_dim_max": float(self.eig_dim_max),
            "solver.eig_bytes_computed": self.eig_bytes * per_op,
            "solver.eigs_computed": self.eigs_computed * per_op,
            "solver.eigs_in_box": self.eigs_in_box * per_op,
            "solver.box_yield": self.eigs_in_box / self.eigs_computed if self.eigs_computed else 0.0,
            "solver.match_s": total["solver.match_resonances"] * per_op,
            "solver.self_s": solver_rest * per_op,
        }

    def functions(self) -> dict[str, dict]:
        """Calls, inclusive seconds and mean seconds per wrapped function;
        eigen routines are split by operand dimension."""
        out = {name: {"calls": n, "total_s": self.total_s[name],
                      "mean_s": self.total_s[name] / n}
               for name, n in self.calls.items()}
        for key, (n, secs) in self.eig_by_dim.items():
            out[key] = {"calls": n, "total_s": secs, "mean_s": secs / n}
        return dict(sorted(out.items()))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _operand_bytes(operand) -> int:
    """Bytes of the matrix handed to an eigen/factor routine, from its arrays."""
    if isinstance(operand, np.ndarray):
        return operand.nbytes
    parts = ("data", "indices", "indptr", "offsets", "row", "col")
    return sum(getattr(operand, p).nbytes for p in parts
               if isinstance(getattr(operand, p, None), np.ndarray))


def _count_in_box(vals: np.ndarray, window, h) -> int:
    """Eigenvalues inside the solver's resonance box for (window, h)."""
    from predissoc import solver

    return solver._filter_window(vals, window, h).size
