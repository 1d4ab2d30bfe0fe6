"""Outside-in tracer for hyhlab: it measures the layers without editing them.

``Tracer.install`` wraps every public function of the layer modules and
``ConfirmationOracle.query``, then rebinds every module-level name in
``hyhlab.*`` that is bound to an original. The rebinding matters because
``hyh``, ``attacks`` and ``paramcheck`` import ``scalar_mul``, ``point_add``,
``mod_inverse`` and ``is_prime`` by name; patching ``curve.scalar_mul`` alone
would miss most calls. ``cli.SCENARIOS`` holds the scenario functions in a
dict, so its entries are replaced with wrappers named after the attack and
the mode.

Each wrapped call is one span. Spans are closed straight into per-name
aggregates (calls, inclusive seconds, self seconds), so the hot leaves such
as ``point_add`` (thousands of calls per op) cost no memory. A span's self
time is its duration minus the time spent in wrapped callees.
"""

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("numtheory", "curve", "paramcheck", "hyh", "attacks", "cli", "fixtures")
METHODS = (("attacks", "ConfirmationOracle", "query"),)
MODES = ("paper", "strict")
SEARCH = "curve.find_invalid_curves"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.amounts: Counter = Counter()    # bytes, doublings, curves found
        self._stack: list[list] = []         # open spans: [callee_s, name]
        self._restore: list[tuple] = []      # (owner, key, original)

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.amounts.clear()

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"hyhlab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for key, obj in vars(module).items():
                if (not key.startswith("_") and callable(obj) and not inspect.isclass(obj)
                        and getattr(obj, "__module__", None) == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{key}", obj))
        for module in modules.values():
            for key, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._rebind(module, key, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._rebind(cls, method,
                         self._wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))
        scenarios = modules["cli"].SCENARIOS
        for attack, fn in list(scenarios.items()):
            self._rebind(scenarios, attack, self._by_mode(attack, fn))

    def uninstall(self):
        while self._restore:
            _set(*self._restore.pop())

    def _rebind(self, owner, key, wrapper):
        original = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        self._restore.append((owner, key, original))
        _set(owner, key, wrapper)

    def _by_mode(self, attack, fn):
        by_mode = {mode: self._wrap(f"cli.scenario.{attack}.{mode}", fn) for mode in MODES}

        @functools.wraps(fn)
        def scenario(config, seed):
            return by_mode[config.mode](config, seed)
        return scenario

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        measure = _MEASURES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if measure is not None:
                measure(self, args, result)
            return result
        return wrapper


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


# Amounts beyond calls and time, keyed by the wrapped function. Each hook
# reads the positional arguments the library passes today.

def _doublings(tracer, args, result):
    _, P, Q = args
    if P is not None and P == Q:
        tracer.amounts["curve.point_add.doublings"] += 1


def _candidate_counted(tracer, args, result):
    if any(frame[1] == SEARCH for frame in tracer._stack):
        tracer.amounts[SEARCH + ".candidates"] += 1


def _curves_found(tracer, args, result):
    tracer.amounts[SEARCH + ".hits"] += len(result)


def _keystream_bytes(tracer, args, result):
    tracer.amounts["hyh.keystream.bytes"] += args[2]


def _hashed_bytes(tracer, args, result):
    tracer.amounts["hyh.hash_bytes.bytes"] += len(args[1])


_MEASURES = {
    "curve.point_add": _doublings,
    "curve.count_points": _candidate_counted,
    SEARCH: _curves_found,
    "hyh.keystream": _keystream_bytes,
    "hyh.hash_bytes": _hashed_bytes,
}
