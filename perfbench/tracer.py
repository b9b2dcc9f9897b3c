"""Per-layer tracing installed from outside the package.

The tracer replaces every public function of each `pairons` module with a
timing wrapper, at every module attribute the package looks the function
up through (`pairons.collapse.extract_pairons`, `pairons.cli.scan_trajectory`,
`pairons.extract_pairons`, ...), so calls between modules and calls inside
one module are both seen.  A wrapper keeps a call count, the total span and
the self time: the span minus the spans of the wrapped calls made inside it.
Nothing in the package itself changes; `uninstall` puts the originals back.

`sphere.chordal_distance` gets a count-only wrapper: it is called millions
of times and timing it would cost more than its own work.  `numpy.roots`
gets one too; inside the package only the companion-matrix fallback of the
Aberth root finder calls it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy

LAYERS = ("spin", "phasespace", "sphere", "paironmap", "collapse",
          "bosonbcs", "cli")
COUNT_ONLY = frozenset({"sphere.chordal_distance"})
FALLBACK = "phasespace.companion_fallback"

# the verification bounds of acceptance criterion 1
FIDELITY_LOSS_BOUND = 1e-8
RESIDUAL_BOUND = 1e-8
REFUSAL_TYPES = ("ConvergenceError", "DegenerateStateError",
                 "SingularParameterError", "UnpairedZeroError", "ValueError")


class Tracer:
    """Counts, spans and extraction-quality counters for one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.unverified = 0
        self.refused = dict.fromkeys(REFUSAL_TYPES + ("other",), 0)
        self.fidelity_loss_max = 0.0
        self.residual_max = 0.0
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _timed(self, name: str, fn, on_result=None, on_error=None):
        stats = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time spent in wrapped children
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                span = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += span
                stats[0] += 1
                stats[1] += span
                stats[2] += span - frame[0]
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        stats = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- extraction quality ----------------------------------------------

    def _extraction_done(self, result) -> None:
        _, diag = result
        loss = 1.0 - diag.reconstruction_fidelity
        self.fidelity_loss_max = max(self.fidelity_loss_max, loss)
        self.residual_max = max(self.residual_max,
                                diag.reconstruction_residual)
        if loss > FIDELITY_LOSS_BOUND or \
                diag.reconstruction_residual > RESIDUAL_BOUND:
            self.unverified += 1

    def _extraction_refused(self, exc: Exception) -> None:
        name = type(exc).__name__
        self.refused[name if name in self.refused else "other"] += 1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("pairons")
        modules = {layer: importlib.import_module(f"pairons.{layer}")
                   for layer in LAYERS}
        holders = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrapper = self._counted(name, obj)
                elif name == "paironmap.extract_pairons":
                    wrapper = self._timed(name, obj, self._extraction_done,
                                          self._extraction_refused)
                else:
                    wrapper = self._timed(name, obj)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, key, wrapper)
        self._patch(numpy, "roots", self._counted(FALLBACK, numpy.roots))

    def _patch(self, holder, key: str, wrapper) -> None:
        self._patched.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    # -- read-out ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for name, s in self.stats.items()
                   if name.startswith(layer + ".") and name not in COUNT_ONLY
                   and name != FALLBACK)

    def table(self) -> dict:
        """Every wrapped function with its calls, total and self time."""
        return {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                for name, s in sorted(self.stats.items()) if s[0]}
