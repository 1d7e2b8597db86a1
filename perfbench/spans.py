"""Layer spans for the traced run, recorded from outside the program.

``Tracer.install`` wraps the public functions of each speclat module, plus
the CLI's config, cache and emit steps, and rebinds every name that refers
to them in every loaded speclat module: the package binds names with
``from .x import y``, so patching only the defining module would miss most
calls.  Each call records a span (name, start, end, parent); self time is
a span's duration minus the durations of its direct children.  Spans stay
in memory until ``take_pass`` folds them into per-pass totals.

Counters are computed from call arguments and results (matrix rows,
character points, walk sequences, ...).  Ratios that need the program's
internals -- CRT primes used, certified bound bits against actual bits --
wait for spans inside the program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("lattice", "laurent", "specpoly", "moments", "graph", "arith", "analysis")
CLI_STEPS = {
    "main": "cli.main",
    "_cached_record": "cli.cache.load",
    "_store_record": "cli.cache.store",
    "_emit": "cli.emit",
}


def _args(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _cell_updates(steps_arg):
    """Kernel terms x N^n x steps of a folded power, from its arguments."""

    def count(a, result):
        f, N = a["f"], a["N"]
        terms = len({tuple(x % N for x in e) for e in f.terms})
        return {"laurent.cell_updates": terms * N**f.dimension * max(a[steps_arg] - 1, 0)}

    return count


def _charpoly_counts(a, result):
    rows = getattr(a["matrix"], "rows", a["matrix"])
    return {
        "specpoly.charpoly_exact.rows": len(rows),
        "specpoly.coeff_bits": max(abs(c).bit_length() for c in result.coefficients),
    }


def _cache_counts(a, result):
    if not a["cache_dir"]:
        return {}
    return {"cli.cache.hits" if result is not None else "cli.cache.misses": 1}


# span name -> counters computed from its bound arguments and result
COUNTERS = {
    "laurent.folded_power_sweep": _cell_updates("K"),
    "laurent.folded_power_dense": _cell_updates("k"),
    "specpoly.charpoly_exact": _charpoly_counts,
    "specpoly.character_values": lambda a, r: {
        "specpoly.character_values.points": a["N"] ** a["f"].dimension},
    "graph.based_walk_weight_sum": lambda a, r: {
        "graph.sequences": len(a["G"].pair_deltas) ** a["k"]},
    "arith.count_points": lambda a, r: {
        "arith.count_points.tuples": (a["p"] ** a["nu"] - 1) ** a["ps"].dimension},
    "cli.cache.load": _cache_counts,
}
# counters that keep the largest value of a pass instead of the sum
MAX_COUNTERS = {"specpoly.coeff_bits"}
# spans named by their method argument
BY_METHOD = {"analysis.mahler_measure", "analysis.hilbert_transform"}


class Tracer:
    """Span and counter recorder for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, layer]
        self.stack = []
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self._restore = []

    def _wrap(self, name, layer, fn):
        bind = _args(fn) if (name in COUNTERS or name in BY_METHOD) else None
        counter = COUNTERS.get(name)
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = bind(args, kwargs) if bind else None
            label = f"{name}.{a['method']}" if name in BY_METHOD else name
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([label, clock(), 0.0, parent, layer])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                # counted where it leaves the layer, not at each inner frame
                if parent < 0 or spans[parent][4] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if counter:
                for key, value in counter(a, result).items():
                    counts[key] = max(counts[key], value) if key in MAX_COUNTERS else counts[key] + value
            return result

        return wrapper

    def install(self):
        """Wrap the layer functions and rebind them in every speclat module."""
        import speclat.cli as cli

        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"speclat.{layer}"]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    replace[fn] = self._wrap(f"{layer}.{attr}", layer, fn)
        for attr, name in CLI_STEPS.items():
            fn = getattr(cli, attr)
            replace[fn] = self._wrap(name, "cli", fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "speclat" or modname.startswith("speclat.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replace:
                    setattr(mod, attr, replace[value])
                    self._restore.append((mod, attr, value))
        from_file = cli.JobConfig.__dict__["from_file"].__func__
        cli.JobConfig.from_file = staticmethod(self._wrap("cli.config", "cli", from_file))
        self._restore.append((cli.JobConfig, "from_file", staticmethod(from_file)))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def take_pass(self):
        """Self time and call count per span name, plus counters, for the
        spans recorded since the last call; then forget them."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - inner
        out.update(self.counts)
        for layer in (*LAYERS, "cli"):
            out[f"{layer}.errors"] = self.errors[layer]
        self.spans.clear()
        self.counts.clear()
        self.errors.clear()
        return dict(out)
