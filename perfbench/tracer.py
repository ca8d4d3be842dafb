"""Outside-in tracing of the ``mmg`` layers.

The tracer replaces every public function of each layer module with a
wrapper that records a span (function, start, end, parent span). Modules
import each other's functions by name -- ``mmg.cli`` binds ``engine.run``
as ``run_game``, ``mmg.experiments`` binds ``run``, ``init_game``, ``step``
and the metrics functions -- so every ``mmg`` module attribute that is
one of the originals is rebound, and all of them are restored afterwards.
Spans stay in memory until the traced section ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Layer -> module. ``config`` has no public functions (its parsing lives in
# ``io.parse_config``), so configuration work is counted in ``cli``.
LAYERS = {
    "engine": "mmg.engine",
    "strategies": "mmg.strategies",
    "rng": "mmg.rng",
    "metrics": "mmg.metrics",
    "experiments": "mmg.experiments",
    "io": "mmg.io",
    "cli": "mmg.cli",
}

# Public functions left unwrapped: format_number runs once per output cell
# and parse_config is the config layer, both part of cli.self_s.
UNWRAPPED = {"mmg.io.format_number", "mmg.io.parse_config", "mmg.cli.main"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span name by id, "layer.function"
        self.spans: list[tuple[int, float, float, int]] = []  # (name id, t0, t1, parent)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.tied_agents = 0
        self.ticks_seen = 0
        self.agent_ticks = 0
        self.balanced_markets = 0
        self.ticks_recorded = 0
        self.state_bytes = 0
        self.render_bytes = 0
        self.games_failed = 0

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, modname in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and f"{modname}.{attr}" not in UNWRAPPED:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "mmg" and not modname.startswith("mmg."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        hook = name.replace(".", "_")
        before = self._hook_span(f"trace.before_{hook}", getattr(self, f"_before_{hook}", None))
        after = self._hook_span(f"trace.after_{hook}", getattr(self, f"_after_{hook}", None))
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _hook_span(self, name: str, hook):
        """Run a counter hook inside its own ``trace.*`` span, so the time
        it takes is not counted as the enclosing layer's self time."""
        if hook is None:
            return None
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            hook(*args, **kwargs)
            spans.append((name_id, t0, clock(), stack[-1] if stack else -1))

        return timed

    # --- counters read from public state, outside the spans ---------------

    def _before_engine_step(self, state, *args, **kwargs) -> None:
        n = state.utilities.shape[0]
        util = np.where(state.choice_mask, state.utilities.reshape(n, -1), -np.inf)
        self.tied_agents += int(((util == util.max(axis=1)[:, None]).sum(axis=1) > 1).sum())
        self.ticks_seen += 1
        self.agent_ticks += n

    def _after_engine_init_game(self, state) -> None:
        nbytes = state.tables.nbytes + state.utilities.nbytes + state.choice_mask.nbytes
        self.state_bytes = max(self.state_bytes, nbytes)

    def _after_engine_run(self, records) -> None:
        if records is not None:
            self.balanced_markets += int((records.demand == 0).sum())
            self.ticks_recorded += records.n_ticks

    def _after_io_render_records(self, text) -> None:
        self.render_bytes += len(text.encode("utf-8"))

    def _after_experiments_ensemble_run(self, summaries) -> None:
        self.games_failed += sum(1 for s in summaries if s.failed)

    # --- reduction ---------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            for i, (name_id, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{self.names[name_id]},{t0:.9f},{t1:.9f},{parent}\n")

    def layer_metrics(self, reps: int, overhead_frac: float, scale: float) -> dict[str, float]:
        """Per-layer metrics, per timed repetition; span times are multiplied
        by ``scale``, the calibration factor of the traced section."""
        names = [self.names[s[0]] for s in self.spans]
        layer = [n.split(".", 1)[0] for n in names]
        dur = np.array([t1 - t0 for _, t0, t1, _ in self.spans]) * scale
        parent = [s[3] for s in self.spans]
        child_time = np.zeros(len(dur))
        for i, p in enumerate(parent):
            if p >= 0:
                child_time[p] += dur[i]
        self_time = dur - child_time

        def outermost(i: int) -> bool:  # no ancestor in the same layer
            p = parent[i]
            while p >= 0:
                if layer[p] == layer[i]:
                    return False
                p = parent[p]
            return True

        busy = defaultdict(float)  # layer -> union of its spans
        total = defaultdict(float)  # function -> summed duration
        calls = defaultdict(int)
        self_sum = defaultdict(float)
        for i, name in enumerate(names):
            total[name] += dur[i]
            calls[name] += 1
            self_sum[name] += self_time[i]
            if outermost(i):
                busy[layer[i]] += dur[i]
        step_us = dur[[n == "engine.step" for n in names]] * 1e6
        render_s = total["io.render_records"]
        orchestration = sum(v for n, v in self_sum.items()
                            if n.startswith("experiments.") and n != "experiments.summarize_run")
        metric_calls = sum(v for n, v in calls.items() if n.startswith("metrics."))
        experiment_games = sum(1 for i, n in enumerate(names)
                               if n == "engine.run" and parent[i] >= 0
                               and layer[parent[i]] == "experiments")
        return {
            "engine.step.calls": calls["engine.step"] / reps,
            "engine.agent_ticks": self.agent_ticks / reps,
            "engine.step.busy_s": total["engine.step"] / reps,
            "engine.step.us_p50": float(np.percentile(step_us, 50)) if len(step_us) else 0.0,
            "engine.step.us_p99": float(np.percentile(step_us, 99)) if len(step_us) else 0.0,
            "engine.run.self_s": self_sum["engine.run"] / reps,
            "engine.init_game.busy_s": total["engine.init_game"] / reps,
            "strategies.draw_strategies.busy_s": total["strategies.draw_strategies"] / reps,
            "rng.busy_s": busy["rng"] / reps,
            "engine.tied_agents_per_tick": self.tied_agents / max(self.ticks_seen, 1),
            "engine.balanced_markets_per_tick": self.balanced_markets / max(self.ticks_recorded, 1),
            "engine.state_bytes": float(self.state_bytes),
            "metrics.busy_s": busy["metrics"] / reps,
            "metrics.calls": metric_calls / reps,
            "experiments.summarize_run.busy_s": total["experiments.summarize_run"] / reps,
            "experiments.self_s": orchestration / reps,
            "experiments.games": experiment_games / reps,
            "experiments.games_failed": self.games_failed / reps,
            "io.render_records.busy_s": render_s / reps,
            "io.render_records.mb_per_s": self.render_bytes / 1e6 / render_s if render_s else 0.0,
            "io.content_hash.busy_s": total["io.content_hash"] / reps,
            "io.render_table.busy_s": total["io.render_table"] / reps,
            "cli.self_s": self_sum["cli.cli_main"] / reps,
            "trace.overhead_frac": overhead_frac,
        }

    def count(self, name: str) -> int:
        name_id = self.names.index(name)
        return sum(1 for s in self.spans if s[0] == name_id)
