"""Per-layer tracing from outside the program.

The layers are the modules of the ``starroute`` package.  A ``Tracer`` wraps
named functions by rebinding every module-level name bound to the original
function object, so calls through ``from .x import f`` aliases (such as
``routing._set_counts`` for ``classify._counts``) are caught too.  Names are
looked up at run time: a function that a later version removed or renamed is
recorded as absent instead of failing the run.

Self time is a call's own wall time minus the time of wrapped calls made
inside it; the tracer's own bookkeeping lands in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from types import ModuleType

import numpy as np

# (module, function) pairs wrapped in a traced run
TRACED = (
    ("perm", "parity"),
    ("perm", "apply_generator"),
    ("perm", "relative_cycles"),
    ("topology", "arc_direction"),
    ("classify", "_counts"),
    ("routing", "oriented_route"),
    ("routing", "_oriented_pick"),
    ("routing", "_build_trace"),
    ("routing", "validate_trace"),
    ("routing", "check_phase_invariants"),
    ("routing", "hop_bound"),
    ("routing", "classic_distance"),
    ("routing", "classic_distance_sets"),
    ("oracle", "rank"),
    ("oracle", "bfs"),
    ("oracle", "diameter"),
    ("oracle", "move_table"),
    ("harness", "verify"),
    ("harness", "_burn_count"),
    ("cli", "main"),
)
# functions whose per-call wall times are kept for percentiles
SAMPLED = (("routing", "oriented_route"), ("oracle", "bfs"))

UNREACHABLE = 0xFF  # distance-field byte for a vertex BFS never reached


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    samples: list[float] | None = None


@dataclass
class BfsWork:
    """Vertices newly reached against candidate vertices gathered.

    Every reached vertex is expanded once, gathering one candidate per
    outgoing arc, so the candidates of a field are the sum over its levels
    of level size times the out-degree of that level's parity class.
    """

    reached: int = 0
    gathered: int = 0
    unreadable: bool = False

    def add(self, dist_field) -> None:
        try:
            n = dist_field.n
            source = tuple(dist_field.source)
            levels = np.bincount(np.asarray(dist_field.dist), minlength=UNREACHABLE + 1)[:UNREACHABLE]
            degrees = _out_degrees(n, dist_field.directed, getattr(dist_field.scheme, "value", None))
        except (AttributeError, TypeError, ValueError):
            self.unreadable = True
            return
        odd_source = _parity(source)
        self.reached += int(levels.sum()) - 1
        for d, size in enumerate(levels.tolist()):
            self.gathered += size * degrees[odd_source ^ (d & 1)]

    def ratio(self) -> float:
        return self.reached / self.gathered if self.gathered and not self.unreadable else 0.0


def _parity(p: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[j] < p[i]) & 1


def _out_degrees(n: int, directed: bool, scheme: str | None) -> tuple[int, int]:
    """(even-vertex, odd-vertex) out-degree, from the orientation rules."""
    if not directed:
        return n - 1, n - 1
    if scheme == "fujita":
        k = n // 2 + 1  # the half boundary ceil((n-1)/2) + 1
        return k - 1, n - k
    if scheme == "day-tripathi":
        return n // 2, (n - 1) // 2
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    bfs_work: BfsWork = field(default_factory=BfsWork)
    _patches: list[tuple[ModuleType, str, object, object]] = field(default_factory=list)
    _stack: list[float] = field(default_factory=lambda: [0.0])

    @classmethod
    def for_package(cls, package: str = "starroute") -> "Tracer":
        tracer = cls()
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for module_name, func_name in TRACED:
            key = f"{module_name}.{func_name}"
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                tracer.absent.append(key)
                continue
            stat = tracer.stats[key] = Stat(samples=[] if (module_name, func_name) in SAMPLED else None)
            on_return = tracer.bfs_work.add if key == "oracle.bfs" else None
            wrapper = tracer._wrap(original, stat, on_return)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        tracer._patches.append((m, attr, original, wrapper))
        return tracer

    def _wrap(self, fn, stat: Stat, on_return):
        stack = self._stack
        clock = time.perf_counter
        samples = stat.samples

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if samples is not None:
                    samples.append(elapsed)
                stack[-1] += elapsed
            if on_return is not None:
                begin = clock()
                on_return(result)
                stack[-1] += clock() - begin  # keep the bookkeeping out of the caller's self time
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def calls(self, key: str) -> int:
        stat = self.stats.get(key)
        return stat.calls if stat else 0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, route_pairs: int, distance_pairs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: ``name -> (value, unit)``.

    ``route_pairs`` and ``distance_pairs`` are the pairs the traced pass
    routed and looked up, the bases of the per-pair ratios.  ``trace.absent``
    counts the wrapped functions that do not exist, plus one if BFS results
    could not be read for ``oracle.bfs.useful_ratio``.
    """
    out: dict[str, tuple[float, str]] = {}
    for module_name, func_name in TRACED:
        key = f"{module_name}.{func_name}"
        stat = tracer.stats.get(key, Stat())
        out[f"{key}.calls"] = (stat.calls, "count")
        out[f"{key}.self_s"] = (stat.self_s, "s")
    for module_name, func_name in SAMPLED:
        key = f"{module_name}.{func_name}"
        stat = tracer.stats.get(key)
        samples = np.asarray(stat.samples if stat and stat.samples else [0.0]) * 1e6
        out[f"{key}.p50_us"] = (float(np.percentile(samples, 50)), "us")
        out[f"{key}.p99_us"] = (float(np.percentile(samples, 99)), "us")
    routes = tracer.calls("routing.oriented_route")
    hops = tracer.calls("routing._oriented_pick")
    out["routing.hops_per_route"] = (_ratio(hops, routes), "ratio")
    out["routing.routes_per_pair"] = (_ratio(routes, route_pairs), "ratio")
    out["classify.counts_per_route"] = (_ratio(tracer.calls("classify._counts"), routes), "ratio")
    out["topology.arc_direction_per_hop"] = (_ratio(tracer.calls("topology.arc_direction"), hops), "ratio")
    out["oracle.rank_per_pair"] = (_ratio(tracer.calls("oracle.rank"), distance_pairs), "ratio")
    out["oracle.bfs.useful_ratio"] = (tracer.bfs_work.ratio(), "ratio")
    out["trace.absent"] = (len(tracer.absent) + tracer.bfs_work.unreadable, "count")
    return out
