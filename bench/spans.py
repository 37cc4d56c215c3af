"""In-memory span tracer for the benchmark's traced run.

The tracer replaces every public function of a minktrig layer module with a
wrapper, in each module that binds it (the defining module included, so calls
inside a layer are seen too).  A wrapper on a timed layer records a span: its
duration, and its self time, which is the duration minus the time covered by
child spans.  A span's layer time is the time spent in its own layer while it
was open: its self time plus the self time of same-layer spans beneath it.

`mink` functions run in well under a microsecond, so a span around each would
cost more than the call; they are counted, not timed, and their time stays in
the self time of whichever span called them.

Two results are read as well: each `trig_report`'s law family, which splits
that function's stats and keeps the worst residual per family, and the length
of each list `sample_triangle` returns, the triangles it sampled.

Aggregates are updated as spans close.  Raw spans are kept in memory up to a
cap and written out by the harness when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("mink", "surfaces", "triangles", "polar", "trig", "samplers", "cli")
COUNTED_LAYERS = frozenset({"mink"})
TRIG_REPORT = "trig.trig_report"
SAMPLER = "samplers.sample_triangle"
SPAN_CAP = 20_000


class FnStats:
    """Aggregates for one function, over every site that binds it."""

    __slots__ = ("calls", "errors", "incl_ns", "layer_ns", "items", "active")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.incl_ns = 0    # outermost calls only, so recursion is not double counted
        self.layer_ns = 0   # outermost calls only
        self.items = 0      # triangles returned by outermost SAMPLER calls
        self.active = 0


class Tracer:
    """Wraps minktrig's public functions while installed."""

    def __init__(self):
        self.stats = {}
        self.residuals = {}  # law family -> worst trig_report residual
        self.counts = {}
        self.site_calls = {}
        self.layer_self_ns = {layer: 0 for layer in LAYERS}
        self.spans = []
        self.trace_id = 0
        self._stack = []
        self._next_span = 0
        self._installed = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        package = sys.modules["minktrig"]
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"minktrig.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    originals[fn] = (layer, name)
        binders = [package] + [m for n, m in sorted(sys.modules.items())
                               if n.startswith("minktrig.") and m is not None]
        for mod in binders:
            for name, value in list(vars(mod).items()):
                try:
                    owner = originals.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if owner is None:
                    continue
                layer, fn_name = owner
                site = f"{mod.__name__}:{fn_name}"
                wrapper = self._wrap(layer, fn_name, value, site)
                setattr(mod, name, wrapper)
                self._installed.append((mod, name, value))

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._installed):
            setattr(mod, name, value)
        self._installed.clear()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, layer, name, fn, site):
        key = f"{layer}.{name}"
        site_calls = self.site_calls
        site_calls.setdefault(site, 0)
        if layer in COUNTED_LAYERS:
            counts = self.counts
            counts.setdefault(key, 0)

            def counted(*args, **kwargs):
                counts[key] += 1
                site_calls[site] += 1
                return fn(*args, **kwargs)

            return counted

        st = self.stats.setdefault(key, FnStats())
        stats = self.stats
        by_family = key == TRIG_REPORT
        count_items = key == SAMPLER
        residuals = self.residuals
        layer_self = self.layer_self_ns
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def timed(*args, **kwargs):
            t0 = clock()
            site_calls[site] += 1
            tracer._next_span += 1
            span_id = tracer._next_span
            frame = [0, span_id]  # child time, span id
            parent = stack[-1][1] if stack else 0
            outermost = st.active == 0
            st.active += 1
            layer_before = layer_self[layer]
            stack.append(frame)
            result = None
            failed = False
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                st.active -= 1
                dur = t1 - t0
                layer_self[layer] += dur - frame[0]
                targets = [st]
                if by_family and not failed:
                    family = result.family.value
                    targets.append(stats.setdefault(f"{key}.{family}", FnStats()))
                    residuals[family] = max(residuals.get(family, 0.0),
                                            result.max_residual())
                for s in targets:
                    s.calls += 1
                    s.errors += failed
                    if outermost:
                        s.incl_ns += dur
                        s.layer_ns += layer_self[layer] - layer_before
                        if count_items and not failed:
                            s.items += len(result)
                if len(spans) < SPAN_CAP:
                    spans.append((tracer.trace_id, span_id, parent, key, t0, t1))
                if stack:
                    # the caller's self time excludes this wrapper's bookkeeping
                    stack[-1][0] += clock() - t0

        return timed

    # -- reading ---------------------------------------------------------

    def fn(self, key: str) -> FnStats:
        return self.stats.get(key) or FnStats()

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)
