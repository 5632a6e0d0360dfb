"""Outside-in spans around the public functions of each mwq module.

The package binds names with `from .x import y`, so a function is reachable
under several module namespaces; `Tracer.install` rebinds every one of them
to a wrapper, and `uninstall` restores the originals.  Each call records a
span (function, start, end, parent span, op id) in flat arrays that stay in
memory until `write_spans`.  A span's self time is its duration minus the
duration of its direct child spans.  A function that calls itself directly
(such as `report.plain` on nested lists) is one span per outermost call.
Methods of the arithmetic classes are not wrapped: their time is self time
of the calling span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from array import array
from fractions import Fraction

LAYERS = ("cli", "parsing", "poly", "surface", "lattice", "mwtable", "quartic", "replay", "report")

# Methods wrapped in addition to module-level functions.  Constructing a
# PreparedQuartic or a Conic also counts the quartics and conics an op holds.
METHODS = {
    "report": {"RunReport": ("add", "render_records", "render_text")},
    "quartic": {"PreparedQuartic": ("__init__",), "Conic": ("__init__",)},
}


def _int_model_bits(p) -> int:
    """Bit length of the constant plus the leading coefficient of the primitive
    integer model of p, after stripping powers of t."""
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if not coeffs:
        return 0
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(Fraction(c) * den) for c in coeffs]
    g = math.gcd(*ints)
    return (abs(ints[0]) // g).bit_length() + (abs(ints[-1]) // g).bit_length()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_time: list[float] = []
        self.counters: dict[str, float] = {}
        self.op = -1
        self.stack: list[list] = []  # [fid, span index, child duration]
        self.span_fid = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}

    # -- aggregates --------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-function totals so far: {name: [calls, self_s]} and counters."""
        return {
            "functions": {n: [self.calls[i], self.self_time[i]] for i, n in enumerate(self.names)},
            "counters": dict(self.counters),
        }

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_time.append(0.0)
        hook = _HOOKS.get(name)
        tracer = self
        stack = self.stack
        perf = time.perf_counter
        s_fid, s_op, s_parent = self.span_fid, self.span_op, self.span_parent
        s_start, s_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == fid:
                return fn(*args, **kwargs)
            idx = len(s_fid)
            s_fid.append(fid)
            s_op.append(tracer.op)
            s_parent.append(stack[-1][1] if stack else -1)
            s_end.append(0.0)
            frame = [fid, idx, 0.0]
            stack.append(frame)
            start = perf()
            s_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                s_end[idx] = end
                dur = end - start
                tracer.calls[fid] += 1
                tracer.self_time[fid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _wrapper(self, name: str, layer: str, fn):
        """The wrapper for `name`, made once so that counts survive reinstalls."""
        if name not in self._wrappers:
            self._wrappers[name] = self._wrap(name, layer, fn)
        return self._wrappers[name]

    def install(self) -> None:
        """Wrap every public function (and METHODS) of the traced modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mwq.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(inspect.unwrap(obj)):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                originals[id(obj)] = (obj, self._wrapper(f"{layer}.{attr}", layer, obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}" + ("" if meth == "__init__" else f".{meth}")
                    self._patches.append((cls, meth, fn))
                    setattr(cls, meth, self._wrapper(name, layer, fn))
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "mwq" or mod_name.startswith("mwq.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write one tab-separated line per span; returns the span count."""
        with open(path, "w") as out:
            out.write("span\top\tname\tlayer\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_fid)):
                fid = self.span_fid[i]
                out.write(f"{i}\t{self.span_op[i]}\t{self.names[fid]}\t{self.layers[fid]}\t"
                          f"{self.span_start[i]!r}\t{self.span_end[i]!r}\t{self.span_parent[i]}\n")
        return len(self.span_fid)


# Counters recorded at the boundary where the work happens.

def _rational_roots(tracer: Tracer, args, result) -> None:
    tracer.count("poly.rational_roots.in_bits", _int_model_bits(args[0]))


def _enumerate_up_to(tracer: Tracer, args, result) -> None:
    tracer.count("lattice.enumerate_up_to.vectors", len(result))
    caller = tracer.stack[-1][0] if tracer.stack else -1
    if caller >= 0 and tracer.names[caller] == "lattice.enumerate_by_norm":
        tracer.count("lattice.enumerate.walked", len(result))


def _enumerate_by_norm(tracer: Tracer, args, result) -> None:
    tracer.count("lattice.enumerate_by_norm.vectors", len(result))


def _solve_integer(tracer: Tracer, args, result) -> None:
    tracer.count("lattice.solve_integer.hits", result is not None)


_HOOKS = {
    "poly.rational_roots": _rational_roots,
    "lattice.enumerate_up_to": _enumerate_up_to,
    "lattice.enumerate_by_norm": _enumerate_by_norm,
    "lattice.solve_integer": _solve_integer,
}
