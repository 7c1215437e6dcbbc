"""Exclusive-time layer profiler, applied to the program from outside.

:func:`install` wraps the public functions and methods of each layer's
modules at runtime (module-level functions at every import site under
``repro``), so no source file changes. Every wrapper keeps one stack of
layer tags: entering a different layer charges the elapsed wall time to
the layer on top and pushes the new one, so a parent's clock pauses
while a child layer runs and each layer ends up with its *self* time.
A call into the layer already on top is passed straight through.

Callbacks handed to the simulator or to a socket run later, from the
event loop; :func:`install` also wraps them at registration, tagged
with the layer of the module that defined them, so a delivery closure
counts as fabric and a reply handler as transport, not as the
simulator that dispatched them.

Garbage-collector pauses move to the ``gc`` layer through
:data:`gc.callbacks`. Time outside every wrapped call is charged to the
root layer (``simulator``: event dispatch plus unwrapped code).
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from types import FunctionType
from typing import Callable, Dict, List, Optional, Tuple

#: Module-name prefix -> layer. The longest matching prefix wins;
#: modules matching none stay unwrapped, so their time is charged to
#: whichever layer called them (``repro.netsim.address``,
#: ``repro.dns.name`` and ``repro.util`` are shared helpers).
LAYER_MODULES: Dict[str, str] = {
    "repro.netsim.simulator": "simulator",
    "repro.netsim.internet": "fabric",
    "repro.netsim.host": "fabric",
    "repro.netsim.socket": "fabric",
    "repro.netsim.link": "fabric",
    "repro.netsim.topology": "fabric",
    "repro.netsim.transport": "transport",
    "repro.dns.message": "codec",
    "repro.dns.wire": "codec",
    "repro.doh.http": "codec",
    "repro.doh.encoding": "codec",
    "repro.ntp.packet": "codec",
    "repro.dns.resolver": "resolver",
    "repro.dns.cache": "resolver",
    "repro.dns.server": "resolver",
    "repro.dns.client": "resolver",
    "repro.dns.zone": "resolver",
    "repro.dns.hierarchy": "resolver",
    "repro.doh.tls": "tls",
    "repro.doh.client": "doh",
    "repro.doh.server": "doh",
    "repro.doh.providers": "doh",
    "repro.core": "combine",
    "repro.population": "population",
    "repro.ntp.client": "ntp",
    "repro.ntp.server": "ntp",
    "repro.ntp.pool": "ntp",
    "repro.ntp.clock": "ntp",
    "repro.chaos": "capacity",
    "repro.telemetry": "telemetry",
    "repro.scenarios": "scenarios",
    "repro.campaign": "campaign",
}

#: Every layer a profile reports, root first.
LAYERS: Tuple[str, ...] = (
    "simulator", "fabric", "transport", "codec", "resolver", "tls", "doh",
    "combine", "population", "ntp", "capacity", "telemetry", "gc",
    "scenarios", "campaign")

ROOT_LAYER = "simulator"

#: Registration points whose callback argument is wrapped, as
#: (module, class, method, positional index of the callback counting
#: ``self`` as 0, keyword name).
CALLBACK_SITES = (
    ("repro.netsim.simulator", "Simulator", "schedule_at", 2, "callback"),
    ("repro.netsim.simulator", "Timer", "__init__", 2, "callback"),
    ("repro.netsim.socket", "UdpSocket", "__init__", 4, "handler"),
    ("repro.netsim.socket", "UdpSocket", "on_datagram", 1, "handler"),
)


@functools.lru_cache(maxsize=None)
def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer ``module`` belongs to, or None when it is unlisted."""
    best = None
    for prefix, layer in LAYER_MODULES.items():
        if module == prefix or (module or "").startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


class LayerProfiler:
    """The exclusive-time stack. ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.stack: List[str] = [ROOT_LAYER]
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: Times each layer was entered from a different layer.
        self.entries: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: Boundary entries per wrapped function (``module.qualname``).
        self.calls: Dict[str, int] = {}
        self.gen2_collections = 0
        #: Simulator events executed inside wrapped ``Simulator.run``s.
        self.events = 0
        self._last = 0.0

    def start(self) -> None:
        self._last = self._clock()

    def stop(self) -> None:
        """Charge the time since the last transition to the top layer."""
        now = self._clock()
        self.self_s[self.stack[-1]] += now - self._last
        self._last = now

    def enter(self, layer: str) -> None:
        now = self._clock()
        self.self_s[self.stack[-1]] += now - self._last
        self._last = now
        self.stack.append(layer)
        self.entries[layer] += 1

    def exit(self) -> None:
        now = self._clock()
        self.self_s[self.stack.pop()] += now - self._last
        self._last = now

    def gc_callback(self, phase: str, info: Dict[str, int]) -> None:
        """A :data:`gc.callbacks` hook: collections run in ``gc``."""
        if phase == "start":
            if info.get("generation") == 2:
                self.gen2_collections += 1
            self.enter("gc")
        else:
            self.exit()

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` charged to ``layer`` (a pass-through when ``layer`` is
        already on top)."""
        return functools.wraps(fn)(self._charged(
            fn, layer, f"{fn.__module__}.{fn.__qualname__}"))

    def _charged(self, fn: Callable, layer: str, name: str) -> Callable:
        stack = self.stack
        enter = self.enter
        exit_ = self.exit
        calls = self.calls

        def wrapper(*args, **kwargs):
            if stack[-1] == layer:
                return fn(*args, **kwargs)
            enter(layer)
            calls[name] = calls.get(name, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def wrap_callback(self, fn):
        """A registered callback, charged to its defining module's
        layer (unchanged when that module is unlisted)."""
        if fn is None:
            return fn
        target = getattr(fn, "__func__", fn)
        while isinstance(target, functools.partial):
            target = target.func
        module = (target.__module__ if isinstance(target, FunctionType)
                  else type(target).__module__)
        layer = layer_of_module(module)
        if layer is None:
            return fn
        # Callbacks are registered once per event: skip functools.wraps.
        return self._charged(fn, layer, "callback")

    def shares(self) -> Dict[str, float]:
        """Self time of each layer as a fraction of the profiled wall."""
        total = sum(self.self_s.values())
        return {layer: (seconds / total if total else 0.0)
                for layer, seconds in self.self_s.items()}


def _callback_site(profiler: LayerProfiler, method: Callable, index: int,
                   keyword: str) -> Callable:
    wrap_callback = profiler.wrap_callback

    @functools.wraps(method)
    def register(*args, **kwargs):
        if len(args) > index:
            args = (args[:index] + (wrap_callback(args[index]),)
                    + args[index + 1:])
        elif keyword in kwargs:
            kwargs[keyword] = wrap_callback(kwargs[keyword])
        return method(*args, **kwargs)

    return register


def install(profiler: LayerProfiler) -> Callable[[], None]:
    """Wrap every layer's public functions and methods, the callback
    registration points and the collector hook. Returns a function
    that restores everything it changed."""
    patched: List[Tuple[object, str, object]] = []
    replaced: Dict[FunctionType, Callable] = {}

    def patch(owner: object, name: str, value: object) -> None:
        patched.append((owner, name, owner.__dict__[name]
                        if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, value)

    for module_name in list(_layer_module_names()):
        module = importlib.import_module(module_name)
        layer = layer_of_module(module_name)
        for name, value in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if (isinstance(value, FunctionType)
                    and value.__module__ == module_name):
                replaced[value] = profiler.wrap(value, layer)
            elif (isinstance(value, type)
                  and value.__module__ == module_name):
                for attr, member in list(vars(value).items()):
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, FunctionType):
                        patch(value, attr, profiler.wrap(member, layer))
                    elif isinstance(member, (staticmethod, classmethod)):
                        patch(value, attr, type(member)(
                            profiler.wrap(member.__func__, layer)))
    # Module-level functions are bound by name wherever they were
    # imported, so rebind them at every import site.
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if isinstance(value, FunctionType) and value in replaced:
                patch(module, name, replaced[value])

    for module_name, class_name, method, index, keyword in CALLBACK_SITES:
        cls = getattr(importlib.import_module(module_name), class_name)
        patch(cls, method, _callback_site(profiler, cls.__dict__[method],
                                          index, keyword))

    # Event counts come from each simulator's own counter, read around
    # every run() so worlds built inside campaign trials count too.
    simulator_cls = importlib.import_module("repro.netsim.simulator").Simulator
    timed_run = simulator_cls.__dict__["run"]

    @functools.wraps(timed_run)
    def run(self, *args, **kwargs):
        before = self.executed_events
        try:
            return timed_run(self, *args, **kwargs)
        finally:
            profiler.events += self.executed_events - before

    patch(simulator_cls, "run", run)
    gc.callbacks.append(profiler.gc_callback)

    def uninstall() -> None:
        gc.callbacks.remove(profiler.gc_callback)
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)

    return uninstall


def _layer_module_names():
    """Every importable ``repro`` module some layer prefix covers."""
    import pkgutil

    import repro

    yield from (info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")
        if layer_of_module(info.name) is not None)
