"""Out-of-program tracing of the simplexwidth modules.

`install` replaces public functions of the imported `simplexwidth`
modules with timing wrappers. A function imported elsewhere with
`from .x import y` is replaced in every module that holds it, so the call
is timed whichever namespace it goes through.

Coarse entry points record a span each: its name, start, end and the
enclosing span. Hot leaf functions record only an aggregate call count and
time. A frame's self time is its duration minus the time of the wrapped
frames it encloses; time in unwrapped helpers counts toward the caller.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable

# (module, attribute, metric key, records a span). Attributes with a dot
# are methods patched on their class.
HOOKS: tuple[tuple[str, str, str, bool], ...] = (
    ("cli", "main", "cli.main", True),
    ("cli", "cmd_table", "cli.cmd_table", True),
    ("cli", "cmd_width", "cli.cmd_width", True),
    ("cli", "cmd_optimize", "cli.cmd_optimize", True),
    ("cli", "cmd_directions", "cli.cmd_directions", True),
    ("cli", "cmd_verify", "cli.cmd_verify", True),
    ("cli", "format_decimal", "cli.format_decimal", False),
    ("cli", "format_rational", "cli.format_rational", False),
    ("verification", "run_all_checks", "verification.run_all_checks", True),
    ("verification", "check_exact_identities", "verification.check_exact_identities", True),
    ("verification", "check_radii_distances", "verification.check_radii_distances", True),
    ("verification", "check_enumeration_oracle", "verification.check_enumeration_oracle", True),
    ("verification", "check_direction_families", "verification.check_direction_families", True),
    ("verification", "check_energy_fuzz", "verification.check_energy_fuzz", True),
    ("verification", "check_optimizer_agreement", "verification.check_optimizer_agreement", True),
    ("optimizer", "minimize_width", "optimizer.minimize_width", True),
    ("optimizer", "two_value_enumeration_width", "optimizer.two_value_enumeration_width", True),
    ("directions", "enumerate_optimal_directions", "directions.enumerate_optimal_directions", True),
    ("directions", "is_optimal_direction", "directions.is_optimal_direction", True),
    ("geometry", "standard_simplex_vertices", "geometry.vertices", True),
    ("geometry", "regular_simplex_vertices", "geometry.vertices", True),
    ("geometry", "projection_width", "geometry.projection_width", False),
    ("geometry", "distance", "geometry.distance", False),
    ("geometry", "Direction.__post_init__", "geometry.direction_check", False),
    ("energy", "energy_push", "energy.energy_push", False),
    ("closed_form", "width_squared", "closed_form", False),
    ("closed_form", "width", "closed_form", False),
    ("closed_form", "center", "closed_form", False),
    ("closed_form", "circumdistance_squared", "closed_form", False),
    ("closed_form", "indistance_squared", "closed_form", False),
    ("closed_form", "inradius_squared", "closed_form", False),
    ("closed_form", "circumradius_squared", "closed_form", False),
    ("closed_form", "width_for_t", "closed_form", False),
    ("closed_form", "alpha_beta_squared", "closed_form", False),
    ("closed_form", "alpha_beta", "closed_form", False),
)

MODULES = ("cli", "verification", "optimizer", "directions", "geometry", "closed_form", "energy")

COUNTERS = (
    "optimizer.iterations",
    "optimizer.restart_iterations",
    "optimizer.projection_flops",
    "optimizer.converged",
    "optimizer.family_hits",
    "optimizer.family_checked",
    "geometry.vertex_floats",
    "directions.enumerated",
)


class Tracer:
    """Spans, per-key aggregates and counters of one traced process."""

    def __init__(self) -> None:
        # key -> [calls, inclusive seconds (outermost calls only), self seconds]
        self.stats: dict[str, list[float]] = {}
        # (id, parent id or None, key, start, end, self seconds)
        self.spans: list[tuple[int, int | None, str, float, float, float] | None] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self.originals: dict[str, Callable] = {}
        # Open frames as [seconds spent in wrapped children, enclosing span id].
        self._stack: list[list] = [[0.0, None]]
        self._depth: dict[str, list[int]] = {}

    def wrap(
        self,
        key: str,
        fn: Callable,
        span: bool,
        observe: Callable[[tuple, dict, object], None] | None = None,
    ) -> Callable:
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        depth = self._depth.setdefault(key, [0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if span:
                frame = [0.0, len(spans)]
                spans.append(None)
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[0] -= 1
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stats[0] += 1
                stats[2] += elapsed - frame[0]
                if depth[0] == 0:
                    stats[1] += elapsed
                if span:
                    spans[frame[1]] = (frame[1], parent[1], key, start, end, elapsed - frame[0])
            if observe is not None:
                try:
                    observe(args, kwargs, result)
                except Exception as exc:
                    # A changed result type must not fail the traced command;
                    # the broken observer is reported as a missing hook.
                    self._observer_failed(key, exc)
            return result

        return traced

    def _observer_failed(self, key: str, exc: Exception) -> None:
        entry = f"{key} observer"
        if entry not in self.missing:
            self.missing.append(entry)
            print(f"trace: {entry} failed: {exc!r}", file=sys.stderr)

    # Observers read results after the wrapped call returns, outside its timing.

    def _observe_minimize(self, args: tuple, kwargs: dict, result) -> None:
        points = args[0] if args else kwargs["points"]
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        iterations = int(result.iterations)
        restarts = int(cfg.restarts)
        dim, count = points.dim, len(points)
        c = self.counters
        c["optimizer.iterations"] += iterations
        c["optimizer.restart_iterations"] += iterations * restarts
        # Computed, not measured: one (restarts x dim) @ (dim x points)
        # product before the loop and one per iteration.
        c["optimizer.projection_flops"] += 2 * restarts * dim * count * (iterations + 1)
        c["optimizer.converged"] += bool(result.converged)
        is_optimal = self.originals.get("directions.is_optimal_direction")
        if is_optimal is not None and count == dim:
            c["optimizer.family_checked"] += 1
            try:
                c["optimizer.family_hits"] += bool(is_optimal(dim - 1, result.direction))
            except ValueError:
                pass  # the family test refuses the direction: not a hit

    def _observe_vertices(self, args: tuple, kwargs: dict, result) -> None:
        n = args[0] if args else kwargs["n"]
        self.counters["geometry.vertex_floats"] += (n + 1) ** 2

    def _observe_enumerate(self, args: tuple, kwargs: dict, result) -> None:
        self.counters["directions.enumerated"] += len(result)

    def summary(self) -> dict[str, object]:
        """Per-key aggregates, per-module self time, counters and spans."""
        self_s = dict.fromkeys(MODULES, 0.0)
        for key, (_, _, own) in self.stats.items():
            self_s[key.split(".")[0]] += own
        return {
            "stats": self.stats,
            "module_self_s": self_s,
            "counters": self.counters,
            "spans": [s for s in self.spans if s is not None],
            "missing": self.missing,
        }


def install(tracer: Tracer) -> None:
    """Wrap every hook found in the already imported simplexwidth modules.

    Hooks whose function no longer exists, or whose observer cannot read
    the result, are listed in ``tracer.missing``; their metrics report zero.
    """
    package = [
        module
        for name, module in sorted(sys.modules.items())
        if name == "simplexwidth" or name.startswith("simplexwidth.")
    ]
    observers = {
        "optimizer.minimize_width": tracer._observe_minimize,
        "geometry.vertices": tracer._observe_vertices,
        "directions.enumerate_optimal_directions": tracer._observe_enumerate,
    }
    for module_name, attr, key, span in HOOKS:
        owner = sys.modules.get(f"simplexwidth.{module_name}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, name, None)
        if fn is None:
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        tracer.originals[f"{module_name}.{attr}"] = fn
        wrapped = tracer.wrap(key, fn, span, observers.get(key))
        if path:
            setattr(owner, name, wrapped)
            continue
        for module in package:
            for alias, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, alias, wrapped)
