"""Call spans around every public name of hessk3, from outside the package.

`Tracer.install()` wraps each function in every module's `__all__` (the
public top-level names where a module has no `__all__`), the arithmetic and
public methods of the classes there (`Eisenstein`, `Cyclo12`, `Poly5`), and
each suite in `verify.SUITES`.  Modules import names with
`from .lattice import mat_mul`, so every module attribute that is bound to
a wrapped function is rebound to its wrapper, not only the home module's.

A span is one wrapped call: its name, its start and end, and the span open
when it started (its parent).  Spans are folded into per-name totals as
they close, so memory stays flat over millions of calls: calls, inclusive
time, self time (inclusive minus the time of child spans), raised
exceptions, and call counts per (parent, name) edge.  Spans are recorded
only between `begin_op()` and `end_op()`.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
import types

MODULES = (
    "eisenstein",
    "tower",
    "poly",
    "lattice",
    "domain",
    "hermitian",
    "correspond",
    "cubic",
    "heegner",
    "sampling",
    "verify",
    "cli",
)

# Names whose first argument is recorded per operation, to count how many
# distinct values a call sees (repeated calls on one value are wasted work).
DISTINCT_ARG = ("lattice.is_orthogonal",)

_DUNDER_METHODS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__pow__", "__truediv__", "__rtruediv__",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.stack: list = []  # [name, child_ns] per open span
        self.stats: dict = {}  # name -> [calls, incl_ns, self_ns, raised]
        self.edges: dict = {}  # (parent, name) -> calls
        self.distinct = {name: set() for name in DISTINCT_ARG}
        self.distinct_total = {name: 0 for name in DISTINCT_ARG}
        self.ops = 0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        stack = self.stack
        edges = self.edges
        clock = time.perf_counter_ns
        seen = self.distinct.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if seen is not None:
                seen.add(args[0])
            parent = stack[-1][0] if stack else None
            key = (parent, name)
            edges[key] = edges.get(key, 0) + 1
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every public function and method of hessk3, everywhere it is bound."""
        import hessk3

        modules = {
            info.name: importlib.import_module(f"hessk3.{info.name}")
            for info in pkgutil.iter_modules(hessk3.__path__)
        }
        replaced: dict = {}  # id(original) -> wrapper
        for short in MODULES:
            mod = modules[short]
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                obj = getattr(mod, attr, None)
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
            if short == "verify":
                for suite, fn in list(mod.SUITES.items()):
                    mod.SUITES[suite] = self.wrap(f"verify.{suite}", fn)
        for mod in [hessk3, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDER_METHODS:
                continue
            label = f"{short}.{cls.__name__}.{attr.strip('_')}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(label, raw.__func__)))
            elif isinstance(raw, types.FunctionType):
                setattr(cls, attr, self.wrap(label, raw))

    # -- operations ---------------------------------------------------------

    def begin_op(self) -> None:
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.stack.clear()
        self.ops += 1
        for name, seen in self.distinct.items():
            self.distinct_total[name] += len(seen)
            seen.clear()

    def snapshot(self) -> dict:
        """JSON-ready totals, mergeable across processes with `merge`."""
        return {
            "ops": self.ops,
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "edges": [[p, n, c] for (p, n), c in sorted(self.edges.items(), key=str)],
            "distinct": dict(self.distinct_total),
        }


def merge(total: dict, part: dict) -> dict:
    """Add one snapshot into another (cold workloads trace one process per op)."""
    total.setdefault("ops", 0)
    total["ops"] += part["ops"]
    stats = total.setdefault("stats", {})
    for name, vals in part["stats"].items():
        acc = stats.setdefault(name, [0, 0, 0, 0])
        for i, v in enumerate(vals):
            acc[i] += v
    edges = {(p, n): c for p, n, c in total.get("edges", [])}
    for p, n, c in part["edges"]:
        edges[(p, n)] = edges.get((p, n), 0) + c
    total["edges"] = [[p, n, c] for (p, n), c in sorted(edges.items(), key=str)]
    distinct = total.setdefault("distinct", {})
    for name, v in part["distinct"].items():
        distinct[name] = distinct.get(name, 0) + v
    return total
