"""Per-layer spans and counts, installed from outside the echcap package.

Each traced public function is replaced, in every `echcap.*` module that
binds it, by a wrapper that records a span: name, start, end, the span that
caused it and the benchmark op it belongs to.  A span's self time is its
duration minus the time its child spans cover.  `CapacityValue` methods are
only counted, since they run millions of times.  Spans stay in memory until
`write_spans`; `uninstall` puts every patched name back.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Tuple

# span name -> (defining module, function names)
SPANS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "cli.main": ("echcap.cli", ("main",)),
    "cli.parse": ("echcap.cli", ("parse_domain_spec",)),
    "cli.format": ("echcap.cli", ("format_value",)),
    "capacities.kernel": ("echcap.capacities", (
        "ball_capacities", "ellipsoid_capacities", "ellipsoid_full_capacities",
        "polydisk_capacities", "nk_sequence", "nk_via_triangle")),
    "capacities.maxplus": ("echcap.capacities", (
        "maxplus_convolve", "disjoint_union_capacities")),
    "capacities.dominates": ("echcap.capacities", ("dominates",)),
    "capacities.dispatch": ("echcap.capacities", ("capacities",)),
    "lattice.toric": ("echcap.lattice", ("toric_capacity",)),
    "obstructions.embed": ("echcap.obstructions", ("embedding_obstruction",)),
    "obstructions.fbound": ("echcap.obstructions", ("f_lower_bound",)),
    "obstructions.gbound": ("echcap.obstructions", ("g_lower_bound",)),
    "obstructions.packing": ("echcap.obstructions", ("packing_obstructions",)),
    "obstructions.biran": ("echcap.obstructions", ("biran_sufficiency",)),
    "asymptotics.trace": ("echcap.asymptotics", ("volume_ratio_trace",)),
    "asymptotics.qw": ("echcap.asymptotics", ("qw_check",)),
}

# counter name -> CapacityValue methods
VALUE_COUNTS: Dict[str, Tuple[str, ...]] = {
    "values.exact": ("exact",),
    "values.approx": ("approx",),
    "values.sqrt": ("sqrt_rational",),
    "values.add": ("__add__",),
    "values.scaled": ("scaled",),
    "values.compare": ("compare",),
    "values.definite": ("definitely_le", "definitely_lt"),
}

LAYERS = ("cli", "capacities", "lattice", "obstructions", "asymptotics", "values")


def _echcap_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "echcap" or name.startswith("echcap."))]


class Tracer:
    """Install with `with Tracer(spans=...) as t:`; read the totals after."""

    def __init__(self, spans: bool = True):
        self.with_spans = spans
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.errors: Dict[str, int] = defaultdict(int)
        self.op_index = -1
        self._names: List[str] = list(SPANS)
        self._name = array("i")
        self._parent = array("l")
        self._op = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack = [[0.0, -1]]      # [time covered by children, span id]
        self._patches = []             # (owner, attribute, original)

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        from echcap.values import CapacityValue

        if self.with_spans:
            modules = _echcap_modules()
            for idx, (name, (home, funcs)) in enumerate(SPANS.items()):
                for func in funcs:
                    original = getattr(sys.modules[home], func)
                    wrapper = self._span(idx, name, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, attr, wrapper)
        for name, methods in VALUE_COUNTS.items():
            for method in methods:
                raw = CapacityValue.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._counter(name, raw.__func__))
                else:
                    wrapped = self._counter(name, raw)
                self._patch(CapacityValue, method, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)
                              if not isinstance(owner, type) else owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- wrappers --------------------------------------------------------------

    def _span(self, idx: int, name: str, fn):
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = len(tracer._start)
            tracer._name.append(idx)
            tracer._parent.append(stack[-1][1])
            tracer._op.append(tracer.op_index)
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            frame = [0.0, sid]
            stack.append(frame)
            tracer.calls[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[0]
                stack[-1][0] += duration
                tracer._start[sid] = start
                tracer._end[sid] = end

        return wrapper

    def _counter(self, name: str, fn):
        calls, errors = self.calls, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors["values"] += 1
                raise

        return wrapper

    # -- results ---------------------------------------------------------------

    def value_counts(self) -> Dict[str, int]:
        return {name: self.calls[name] for name in VALUE_COUNTS}

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: id, parent, op, name, start, end
        (seconds from the first span)."""
        origin = self._start[0] if self._start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for sid in range(len(self._start)):
                fh.write(f"{sid}\t{self._parent[sid]}\t{self._op[sid]}\t"
                         f"{self._names[self._name[sid]]}\t"
                         f"{self._start[sid] - origin:.9f}\t{self._end[sid] - origin:.9f}\n")
