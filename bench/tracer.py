"""Outside-in span recorder for the benchmark's traced runs.

The program has no spans of its own, so the benchmark wraps the public
functions of each module from the outside. Every module attribute that is
bound to a traced function is replaced by one shared wrapper, so a call is
recorded whichever import site it goes through (``gauss_legendre`` is bound in
``numkit``, ``continuous`` and ``approximation``; ``spectrum`` in ``discrete``,
``bounds``, ``cli`` and the package itself). ``uninstall`` puts the originals
back.

Spans are kept in memory as ``(name, start, end, parent)`` and summarised when
the run ends. A span's self time is its duration minus the durations of its
direct child spans; calls are single-threaded, so children never overlap.

This module imports nothing heavy: the fresh child times ``import slepian``
(numpy and scipy included) before the tracer touches any of them.
"""

from __future__ import annotations

import importlib
import inspect
import time

# span name -> (defining module, attribute). The lapack.* spans mark the
# third-party boundary that numkit wraps, so numkit.*.self_s is the cost of
# the contract validation around each solver call.
SPANS = {
    "bounds.verify_all": ("slepian.bounds", "verify_all"),
    "bounds.compare_spectra": ("slepian.bounds", "compare_spectra"),
    "bounds.verify_comparison": ("slepian.bounds", "verify_comparison"),
    "approximation.project_dilated": ("slepian.approximation", "project_dilated"),
    "approximation.project_native": ("slepian.approximation", "project_native"),
    "approximation.sobolev_norm": ("slepian.approximation", "sobolev_norm"),
    "continuous.nystrom_spectrum": ("slepian.continuous", "nystrom_spectrum"),
    "continuous.hs_norm_sq": ("slepian.continuous", "hs_norm_sq"),
    "continuous.kernel_hs_distance": ("slepian.continuous", "kernel_hs_distance"),
    "continuous.projector_distance": ("slepian.continuous", "projector_distance"),
    "discrete.spectrum": ("slepian.discrete", "spectrum"),
    "discrete.prolate_matrix": ("slepian.discrete", "prolate_matrix"),
    "discrete.dpswf_matrix": ("slepian.discrete", "dpswf_matrix"),
    "discrete.symmetry_defect": ("slepian.discrete", "symmetry_defect"),
    "discrete.commutation_defect": ("slepian.discrete", "commutation_defect"),
    "numkit.gauss_legendre": ("slepian.numkit", "gauss_legendre"),
    "numkit.eig_sym": ("slepian.numkit", "eig_sym"),
    "numkit.eig_symtridiag": ("slepian.numkit", "eig_symtridiag"),
    "lapack.leggauss": ("numpy.polynomial.legendre", "leggauss"),
    "lapack.eigh": ("numpy.linalg", "eigh"),
    "lapack.eigh_tridiagonal": ("slepian.numkit", "eigh_tridiagonal"),
}

# The harness opens one span per CLI command around its call to cli.main.
CLI_COMMANDS = ("eigs", "table1", "bounds", "project", "count", "symmetry",
                "projector-distance", "turan")

# Modules whose bindings are scanned for traced functions.
SITES = ("slepian", "slepian.cli", "slepian.bounds", "slepian.approximation",
         "slepian.continuous", "slepian.discrete", "slepian.numkit",
         "numpy.linalg", "numpy.polynomial.legendre", "scipy.linalg")


def _g(x) -> float:
    """Floats compared to 12 significant digits (c = round(pi N W, 12) in
    verify_all and pi N W elsewhere name the same bandwidth)."""
    return float(f"{float(x):.12g}")


def _nystrom_key(a):
    from slepian.continuous import default_order
    M = a["M"] if a["M"] is not None else default_order(a["c"] * a["halfwidth"])
    return _g(a["c"]), int(M), _g(a["halfwidth"]), bool(a["check_convergence"])


# Spans whose repeated arguments a memo would save: the key is the call's
# arguments with defaults resolved.
REPEAT_KEYS = {
    "numkit.gauss_legendre": lambda a: int(a["order"]),
    "continuous.nystrom_spectrum": _nystrom_key,
    "discrete.spectrum": lambda a: (int(a["params"].N), _g(a["params"].W),
                                    a["method"]),
}

# Operation counts computed from argument sizes (not measured).
OP_COUNTS = {
    "numkit.gauss_legendre.order3_sum": ("numkit.gauss_legendre",
                                         lambda a: int(a["order"]) ** 3),
    "numkit.eig_sym.n3_sum": ("numkit.eig_sym", lambda a: len(a["A"]) ** 3),
    "numkit.eig_symtridiag.n_sum": ("numkit.eig_symtridiag",
                                    lambda a: int(a["T"].order)),
}


def span_names() -> list[str]:
    return [f"cli.{c}" for c in CLI_COMMANDS] + list(SPANS)


class Recorder:
    """In-memory spans plus the argument keys and sizes of selected calls."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self._open: list[int] = []
        self.keys: dict[str, list] = {name: [] for name in REPEAT_KEYS}
        self.ops: dict[str, int] = {name: 0 for name in OP_COUNTS}
        self._patched: list[tuple] = []

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        key_fn = REPEAT_KEYS.get(name)
        op_fns = [(op, f) for op, (s, f) in OP_COUNTS.items() if s == name]
        signature = inspect.signature(fn) if key_fn or op_fns else None

        def traced(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if key_fn is not None:
                    self.keys[name].append(key_fn(bound.arguments))
                for op, f in op_fns:
                    self.ops[op] += f(bound.arguments)
            index = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(index)

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function by its wrapper."""
        wrappers = {}
        for name, (module, attr) in SPANS.items():
            fn = getattr(importlib.import_module(module), attr)
            wrappers[id(fn)] = self._wrap(name, fn)
        for module_name in SITES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-span calls, total and self seconds; repeat shares; op counts."""
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in span_names()}
        for name, start, end, parent in self.spans:
            duration = end - start
            stats[name]["calls"] += 1
            stats[name]["total_s"] += duration
            stats[name]["self_s"] += duration
            if parent >= 0:
                stats[self.spans[parent][0]]["self_s"] -= duration
        repeat = {}
        for name, keys in self.keys.items():
            repeat[name] = (len(keys) - len(set(keys))) / len(keys) if keys else 0.0
        return {"spans": stats, "repeat_frac": repeat, "ops": dict(self.ops)}
