"""Per-layer timing by wrapping the public functions of the mtjsc modules.

Nothing inside the package is instrumented: `Tracer.install` replaces a
module attribute with a timing wrapper in every mtjsc module that holds the
same function object, because callers look names up in their own namespace
(`mtjsc.sng` imports the device functions, `mtjsc.network` imports
`write_probability` and `fsm_tanh`).  `Tracer.uninstall` puts the originals
back, so untraced phases run the unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class CallStats:
    """Aggregate over every call of one wrapped function."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0          # total minus time in wrapped callees
    # (top-level span index, duration) per call, kept only where asked for
    durations: list | None = None


@dataclass
class Tracer:
    """Span recorder for calls into mtjsc, installed by attribute patching.

    `targets` are "module.function" names relative to the package, such as
    "network.neuron_forward_isc".  A target whose function no longer exists
    is skipped, so its metrics read as absent rather than as zero.
    `keep_durations` lists the targets whose per-call durations are kept.
    """

    modules: dict                 # short name -> imported mtjsc module
    targets: tuple
    keep_durations: frozenset = frozenset()
    stats: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _roots: int = 0
    _patched: list = field(default_factory=list)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            mod_name, fn_name = target.split(".")
            original = getattr(self.modules[mod_name], fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(target, original)
            for module in self.modules.values():
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    self._patched.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self, on: bool = True):
        """Install for the duration of a with-block (no-op if not `on`)."""
        if on:
            self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def take(self) -> dict:
        """Return the stats gathered since the last call and start afresh."""
        stats, self.stats = self.stats, {}
        self._roots = 0
        return stats

    def _wrap(self, target: str, fn):
        keep = target in self.keep_durations
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                self._roots += 1
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st = self.stats.get(target)
                if st is None:
                    st = self.stats[target] = CallStats(
                        durations=[] if keep else None)
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - child[0]
                if keep:
                    st.durations.append((self._roots, dt))

        return wrapper
