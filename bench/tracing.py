"""Per-layer tracing of ``mfent`` from outside the package.

``install`` replaces every public function of every ``mfent`` module, and
every public method (plus ``__init__``) of its non-dataclass classes, with
a timing wrapper.  A function imported by name into other modules (such
as ``log_mass_array`` or ``perron_triple``) is replaced at every module
attribute that holds the same object, so calls through any binding are
seen.  A layer is the module that defines the function; ``potential``
only builds small matrices and is not wrapped, so its time counts to the
caller's layer.

Each wrapped call adds to calls, total and self time (total minus the
time of wrapped calls made inside it) per (name, parent), where parent
is the innermost wrapped call it was made from.  Nothing is kept per
call, so hot leaves such as ``log_mass`` or ``intersects`` cost one dict
update each.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
from time import perf_counter

# Private, but it is the one root finder behind both critical_exponent and
# the schedule estimators, so roots are counted here.
EXTRA_FUNCTIONS = (("solver", "_critical_exponent_impl"),)

SKIPPED_MODULES = frozenset({"errors", "potential"})


class Stat:
    __slots__ = ("calls", "total", "self_time", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str | None], Stat] = {}
        self.counters: dict[str, float] = {}
        self.cache = None  # the lru_cache object behind log_mass_array
        self._stack: list[list] = []  # [name, child time]

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, after=None):
        stack, stats = self._stack, self.stats
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            failed = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dt
                key = (name, parent[0] if parent is not None else None)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = Stat()
                st.calls += 1
                st.total += dt
                st.self_time += dt - frame[1]
                st.errors += failed
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # -- aggregation ----------------------------------------------------

    def calls(self, names) -> int:
        names = _as_set(names)
        return sum(s.calls for (n, _), s in self.stats.items() if n in names)

    def errors(self, names) -> int:
        names = _as_set(names)
        return sum(s.errors for (n, _), s in self.stats.items() if n in names)

    def self_time(self, names) -> float:
        names = _as_set(names)
        return sum(s.self_time for (n, _), s in self.stats.items() if n in names)

    def inclusive(self, names) -> float:
        """Time inside any of ``names``, each interval counted once."""
        names = _as_set(names)
        return sum(
            s.total for (n, p), s in self.stats.items() if n in names and p not in names
        )

    def calls_under(self, names, parents) -> int:
        names, parents = _as_set(names), _as_set(parents)
        return sum(
            s.calls for (n, p), s in self.stats.items() if n in names and p in parents
        )

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (n, _), s in self.stats.items():
            layer = n.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + s.self_time
        return out


def _as_set(names):
    return {names} if isinstance(names, str) else set(names)


def _tree_nodes(ev) -> int:
    return sum(len(words) for words in ev.level_words)


def _after_build(tracer, args, result):
    tracer.count("tree_nodes", _tree_nodes(args[0]))


def _after_sweep(tracer, args, result):
    tracer.count("swept_nodes", _tree_nodes(args[0]))


def _after_local(tracer, args, result):
    tracer.count("prefixes", len(result.estimates))


def _after_log_mass_array(tracer, args, result):
    misses = tracer.cache.cache_info().misses
    if misses > tracer.counters.get("log_mass_array_misses", 0):
        tracer.counters["log_mass_array_misses"] = misses
        tracer.count("log_mass_array_words", result.size)


AFTER = {
    "premeasure.TreeEvaluator.__init__": _after_build,
    "premeasure.TreeEvaluator.covering_log": _after_sweep,
    "premeasure.TreeEvaluator.packing_log": _after_sweep,
    "premeasure.TreeEvaluator.outer_log": _after_sweep,
    "local.local_entropy": _after_local,
    "measures.log_mass_array": _after_log_mass_array,
}


def _modules(package):
    mods = {"": package}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name not in SKIPPED_MODULES:
            mods[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    return mods


def install(package) -> Tracer:
    """Wrap ``package`` (the imported ``mfent``) in place."""
    tracer = Tracer()
    mods = _modules(package)
    originals: dict[int, object] = {}  # id(original) -> wrapper

    def wrapper_for(layer: str, attr: str, fn):
        if id(fn) not in originals:
            name = f"{layer}.{attr}"
            originals[id(fn)] = tracer.wrap(name, fn, AFTER.get(name))
        return originals[id(fn)]

    for layer, mod in mods.items():
        if not layer:
            continue
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                _wrap_class(tracer, layer, obj)
            elif callable(obj) and not attr.startswith("_"):
                if inspect.isgeneratorfunction(obj):
                    continue  # its work runs in the caller, after the call returns
                if attr == "log_mass_array":
                    tracer.cache = obj
                wrapper_for(layer, attr, obj)
    for layer, attr in EXTRA_FUNCTIONS:
        wrapper_for(layer, attr, getattr(mods[layer], attr))

    # rebind every module attribute that is one of the wrapped objects
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            wrapped = originals.get(id(obj))
            if wrapped is not None:
                setattr(mod, attr, wrapped)
    return tracer


def _wrap_class(tracer: Tracer, layer: str, cls) -> None:
    if dataclasses.is_dataclass(cls):
        return
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, member.__func__)))
        elif inspect.isfunction(member) and not inspect.isgeneratorfunction(member):
            setattr(cls, attr, tracer.wrap(name, member, AFTER.get(name)))
