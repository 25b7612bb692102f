"""Per-layer tracing from outside the package, by wrapping public functions.

Each public function of the seven layer modules (a module-level function
whose name has no leading underscore) is replaced by a wrapper in *every*
package namespace that binds it: `graph`, `basins`, `oracle` and
`schedule` import `apply_fire_set` by name from `core`, so patching
`core` alone would miss every intra-package call.

Two kinds of wrapper:

- a span records calls, inclusive time and self time (its duration minus
  the time of the spans it encloses) into per-function accumulators kept
  in memory; a layer's self time is the sum over its functions;
- the hot `core` helpers (called millions of times per round) get a bare
  call counter.  Their time is then part of the self time of whichever
  span called them, and `core.self_s` covers only core's spanned
  functions.

`graph.proper_successors` additionally records the distinct
(Network object, state) pairs it is asked for, which gives the
recompute ratio.  The caller compares traced and untraced rounds of the
same queries to report the tracing overhead.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("core", "schedule", "graph", "basins", "oracle", "formats", "cli")
COUNTED = {
    "core": {"apply_fire_set", "check_state", "full_mask", "stable_set",
             "unstable_set", "format_bits", "parse_bits"},
}


class Tracer:
    def __init__(self, package: str):
        self.package = importlib.import_module(package)
        self.modules = {name: importlib.import_module(f"{package}.{name}") for name in LAYERS}
        self.records: dict[str, list] = {}  # "layer.func" -> [calls, total_s, self_s, depth]
        self.pairs: set[tuple[int, int]] = set()
        self._nets: dict[int, object] = {}  # keeps traced nets alive so ids stay unique
        self._stack = [0.0]
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._patched: list[tuple[object, str, object]] = []
        for layer, mod in self.modules.items():
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    rec = self.records[f"{layer}.{name}"] = [0, 0.0, 0.0, 0]
                    if name in COUNTED.get(layer, ()):
                        wrapper = self._counter(fn, rec)
                    elif (layer, name) == ("graph", "proper_successors"):
                        wrapper = self._span(fn, rec, self._record_pair)
                    else:
                        wrapper = self._span(fn, rec)
                    self._wrappers[id(fn)] = wrapper

    def reset(self) -> None:
        for rec in self.records.values():
            rec[:3] = [0, 0.0, 0.0]
        self.pairs.clear()
        self._nets.clear()

    def install(self) -> None:
        for ns in (self.package, *self.modules.values()):
            for attr, value in list(vars(ns).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _record_pair(self, args, kwargs) -> None:
        net = args[0] if args else kwargs["net"]
        mu = args[1] if len(args) > 1 else kwargs["mu"]
        self._nets[id(net)] = net
        self.pairs.add((id(net), mu))

    @staticmethod
    def _counter(fn, rec):
        def counted(*args, **kwargs):
            rec[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, rec, hook=None):
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            rec[3] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                rec[0] += 1
                rec[2] += elapsed - children
                rec[3] -= 1
                if rec[3] == 0:  # inclusive time of the outermost call only
                    rec[1] += elapsed
                stack[-1] += elapsed

        return span

    # --- derived figures ----------------------------------------------------

    def calls(self, key: str) -> int:
        return self.records[key][0]

    def total_s(self, *keys: str) -> float:
        return sum(self.records[k][1] for k in keys)

    def self_s(self, layer: str) -> float:
        return sum(rec[2] for key, rec in self.records.items() if key.startswith(layer + "."))

    def keys(self, layer: str, prefixes: tuple[str, ...]) -> list[str]:
        return [k for k in self.records if k.startswith(layer + ".")
                and k.split(".", 1)[1].startswith(prefixes)]
