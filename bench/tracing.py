"""Per-layer tracing of defeq, installed from outside the package.

Tracer.install() replaces each traced public function with a wrapper
wherever a loaded defeq module holds it, including names other modules
imported with ``from ... import``, and uninstall() puts the originals back.
The untraced benchmark never imports this module.

Every call into a traced function records a span: its name, its start and
end, the traced span that was open when it began (its parent) and the
command it ran under.  A span's self time is its duration minus the time
covered by its child spans; the tracer computes it as each span ends.  A
generator is traced one resumption at a time, so the time spent producing
each item is charged to the generator and not to the loop that consumes it.
A call that a traced function makes to itself belongs to the outer span.

A traced command makes millions of calls (beth scans about four million
formulas), so spans with the same command, name and parent are kept as one
aggregate: count, total seconds and self seconds.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Callable, Iterator

# module -> public functions traced in it
TRACED = {
    "folang": ("eval_formula", "enumerate_formulas", "formula_depth", "parse_formula"),
    "models": ("enumerate_models", "canonical_key", "find_isomorphisms", "is_isomorphism"),
    "groups": ("automorphism_group", "canonical_form"),
    "spectra": ("aut_spec", "build_concrete_iso", "verify_concrete_iso"),
    "ultra": ("ultraproduct", "los_check"),
    "definability": ("beth_search", "unique_expansion_check"),
    "cli": ("load_theory", "model_to_text"),
}
GENERATORS = frozenset({"folang.enumerate_formulas"})
ROOT = "cli.dispatch"
_ENUMERATE = "models.enumerate_models"

# Per-layer metrics, in the order BENCHMARK.json lists them.
METRICS = (
    ("folang.eval_formula.calls", "count"),
    ("folang.eval_formula.self_s", "s"),
    ("folang.enumerate_formulas.emitted", "count"),
    ("folang.enumerate_formulas.self_s", "s"),
    ("folang.enumerate_formulas.kept_ratio", "ratio"),
    ("folang.formula_depth.calls", "count"),
    ("folang.parse_formula.self_s", "s"),
    ("cli.load_theory.self_s", "s"),
    ("models.enumerate_models.calls", "count"),
    ("models.enumerate_models.self_s", "s"),
    ("models.enumerate_models.candidates", "count"),
    ("models.enumerate_models.accept_ratio", "ratio"),
    ("models.enumerate_models.repeats", "count"),
    ("models.canonical_key.calls", "count"),
    ("models.canonical_key.self_s", "s"),
    ("models.find_isomorphisms.calls", "count"),
    ("models.find_isomorphisms.self_s", "s"),
    ("models.is_isomorphism.calls", "count"),
    ("models.is_isomorphism.self_s", "s"),
    ("groups.automorphism_group.calls", "count"),
    ("groups.automorphism_group.self_s", "s"),
    ("groups.canonical_form.calls", "count"),
    ("groups.canonical_form.self_s", "s"),
    ("spectra.aut_spec.self_s", "s"),
    ("spectra.build_concrete_iso.self_s", "s"),
    ("spectra.verify_concrete_iso.self_s", "s"),
    ("ultra.ultraproduct.calls", "count"),
    ("ultra.ultraproduct.self_s", "s"),
    ("ultra.los_check.calls", "count"),
    ("definability.beth_search.self_s", "s"),
    ("definability.unique_expansion_check.self_s", "s"),
    ("cli.model_to_text.calls", "count"),
    ("cli.model_to_text.self_s", "s"),
    ("trace.wall_s", "s"),  # measured by the benchmark, not the tracer
)


class Tracer:
    """Span aggregates and layer counters for one traced run."""

    def __init__(self) -> None:
        self.command = -1
        # open spans, innermost last: [name, seconds covered by child spans]
        self.stack: list[list] = []
        # (command, name, parent) -> [count, total seconds, self seconds]
        self.spans: dict[tuple[int, str, str], list] = {}
        # (command, name) -> items yielded by a traced generator
        self.emitted: dict[tuple[int, str], int] = {}
        self.candidates = 0
        self.models = 0
        self.repeats = 0
        self._enumerated: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording ----

    def _record(self, name: str, elapsed: float, child: float) -> None:
        stack = self.stack
        parent = stack[-1][0] if stack else ""
        if stack:
            stack[-1][1] += elapsed
        key = (self.command, name, parent)
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += elapsed - child

    def run_command(self, command: int, fn: Callable[[], object]):
        """Run fn as the root span of one command; returns its result."""
        if self.stack:
            raise RuntimeError("a traced command is already running")
        self.command = command
        self._enumerated = set()
        frame = [ROOT, 0.0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            return fn()
        finally:
            elapsed = perf_counter() - start
            self.stack.clear()
            self._record(ROOT, elapsed, frame[1])

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack, record = self.stack, self._record
        after = self._after_enumerate if name == _ENUMERATE else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                record(name, elapsed, frame[1])
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        stack, record, emitted = self.stack, self._record, self.emitted

        def resumptions(inner: Iterator) -> Iterator:
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    record(name, elapsed, frame[1])
                key = (self.command, name)
                emitted[key] = emitted.get(key, 0) + 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return resumptions(fn(*args, **kwargs))
        return traced

    def _after_enumerate(self, args, kwargs, result) -> None:
        theory = args[0] if args else kwargs["t"]
        size = args[1] if len(args) > 1 else kwargs["size"]
        self.models += len(result)
        key = (theory, size)
        if key in self._enumerated:
            self.repeats += 1
        self._enumerated.add(key)

    # ---- installation ----

    def install(self) -> None:
        """Wrap every traced function in every loaded defeq module."""
        import defeq.cli  # noqa: F401  (loads every module the CLI uses)
        from defeq.budget import NodeCounter

        wrappers: dict[int, Callable] = {}  # id of an original -> its wrapper
        for module, names in TRACED.items():
            mod = sys.modules[f"defeq.{module}"]
            for fname in names:
                original = getattr(mod, fname)
                full = f"{module}.{fname}"
                make = self._wrap_generator if full in GENERATORS else self._wrap
                wrappers[id(original)] = make(full, original)
        for modname, mod in list(sys.modules.items()):
            if modname != "defeq" and not modname.startswith("defeq."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

        tick = NodeCounter.tick
        stack = self.stack

        def counted_tick(counter, k: int = 1) -> None:
            if stack and stack[-1][0] == _ENUMERATE:
                self.candidates += 1
            tick(counter, k)

        self._patches.append((NodeCounter, "tick", tick))
        NodeCounter.tick = counted_tick

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- results ----

    def totals(self, name: str, scale: list[float]) -> tuple[int, float]:
        """Calls and self seconds of one traced name; scale[c] multiplies the
        times of command c."""
        calls, self_s = 0, 0.0
        for (c, n, _), (count, _, own) in self.spans.items():
            if n == name:
                calls += count
                self_s += own * scale[c]
        return calls, self_s

    def metrics(self, rounds: int, scale: list[float]) -> dict[str, float]:
        """Every per-layer metric but trace.wall_s, per round of the workload.

        scale[c] converts the raw times of command c to the benchmark's
        reference speed.
        """
        values: dict[str, float] = {}
        for module, names in TRACED.items():
            for fname in names:
                full = f"{module}.{fname}"
                calls, self_s = self.totals(full, scale)
                values[f"{full}.calls"] = calls / rounds
                values[f"{full}.self_s"] = self_s / rounds
        emitted = sum(v for (_, n), v in self.emitted.items()
                      if n == "folang.enumerate_formulas")
        values["folang.enumerate_formulas.emitted"] = emitted / rounds
        # Share of the formula stream that reaches a Los check, over the
        # commands that ran Los checks (beth's stream has no Los checks).
        los_commands = {c for (c, n, _) in self.spans if n == "ultra.los_check"}
        los_emitted = sum(v for (c, n), v in self.emitted.items() if c in los_commands)
        los_calls = self.totals("ultra.los_check", scale)[0]
        values["folang.enumerate_formulas.kept_ratio"] = (
            los_calls / los_emitted if los_emitted else 0.0)
        values["models.enumerate_models.candidates"] = self.candidates / rounds
        values["models.enumerate_models.accept_ratio"] = (
            self.models / self.candidates if self.candidates else 0.0)
        values["models.enumerate_models.repeats"] = self.repeats / rounds
        return values

    def span_table(self, argvs: list[list[str]]) -> list[dict]:
        """Aggregated spans, for the trace file."""
        return [{"command": c, "argv": argvs[c], "name": n, "parent": p, "count": count,
                 "total_s": total, "self_s": own}
                for (c, n, p), (count, total, own) in sorted(self.spans.items())]
