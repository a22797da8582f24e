"""Per-layer spans for the traced benchmark run.

Wraps the public functions of each planecones layer.  A function imported by
name into another module (``cone`` imports ``find_interval`` and
``delta_curve``) is replaced on every module attribute bound to it, so calls
through the alias are seen too.  Spans are aggregated in memory: calls and
self time (span time minus the time of wrapped child spans) per function.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

LAYERS = {
    "cone": ("classify", "orthogonal_invariants", "resolution_multiplicities",
             "kronecker_data", "secondary_edge", "cone_report"),
    "exceptional": ("find_interval", "from_slope_value", "interval_contains",
                    "from_dyadic", "epsilon", "delta_curve"),
    "qarith": ("squarefree_decompose", "sqrt_exact"),
    "chern": ("euler_pairing", "character_from_json"),
    "cfrac": ("lr_to_slope", "even_expansion", "period_structure"),
    "cli": ("report_to_dict",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
# a true return from interval_contains is a probe that found the interval
USEFUL_RESULT = "exceptional.interval_contains"


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.useful = 0
        self.constructions = 0
        self._children: list[int] = []
        self._delta_curve = None

    def _wrap(self, name: str, fn):
        calls, self_ns, children = self.calls, self.self_ns, self._children
        count_useful = name == USEFUL_RESULT

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self_ns[name] += elapsed - children.pop()
                calls[name] += 1
                if children:
                    children[-1] += elapsed
            if count_useful and result:
                self.useful += 1
            return result

        return span

    def install(self) -> None:
        """Wrap every traced function on every planecones module that binds it."""
        from planecones import qarith

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "planecones"]
        self._delta_curve = sys.modules["planecones.exceptional"].delta_curve
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"planecones.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        init = qarith.QuadraticNumber.__init__

        def counted_init(qn, *args, **kwargs):
            self.constructions += 1
            init(qn, *args, **kwargs)

        qarith.QuadraticNumber.__init__ = counted_init
        # wrapper frames double the depth of the recursive epsilon walk
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 5_000))

    def summary(self, ops: int) -> dict:
        """Per-op counts and self times, plus the three ratio metrics."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls_per_op"] = self.calls[name] / ops
            out[f"{name}.self_ms_per_op"] = self.self_ns[name] / 1e6 / ops
        out["qarith.QuadraticNumber.constructions_per_op"] = self.constructions / ops
        probes = self.calls[USEFUL_RESULT]
        out["exceptional.interval_contains.hit_ratio"] = self.useful / probes if probes else 0.0
        info = self._delta_curve.cache_info()
        looked_up = info.hits + info.misses
        out["exceptional.delta_curve.cache_hit_ratio"] = info.hits / looked_up if looked_up else 0.0
        return out
