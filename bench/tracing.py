"""Outside-in tracing: timing wrappers put on emt_lab module attributes.

Each wrapper replaces an attribute where its caller looks it up at call time,
records a span (name, parent span, start, end) and bumps counters computed
from the call's arguments and result. Spans are kept in memory and written
out once at the end. Nothing is installed unless a Tracer is, and restore()
puts every original attribute back.
"""

from __future__ import annotations

import importlib
import os
from collections import defaultdict
from time import perf_counter_ns


def _count_input(counts, args, result):
    counts["config.input_kb"] += os.path.getsize(args[0]) / 1024


def _count_output(counts, args, result):
    counts["runner.bytes_out"] += os.path.getsize(args[1])


def _count_pool(counts, args, result):
    pool, output = args[0], args[1]
    counts["epistemic.pool_step_calls"] += 1
    counts["epistemic.problems_scanned"] += len(pool.problems)
    # step_problem_pool requires one solve probability per open problem.
    counts["epistemic.problems_open"] += len(output.solve_probs)


def _count_vi(counts, args, result):
    counts["dynprog.vi_calls"] += 1
    counts["dynprog.vi_iterations"] += result.iterations


def _count_eval(counts, args, result):
    counts["dynprog.eval_calls"] += 1


def _count_steps(counts, args, result):
    counts["feedback.steps"] += args[0].horizon


def _count_draws(counts, args, result):
    counts["recombinant.draws"] += args[1].k_draws * args[1].replicates


def _count_is_spne(counts, args, result):
    counts["game.is_spne_calls"] += 1


# (module, attribute, span name or None for a counter only, counter)
PATCHES = (
    ("cli", "load_config", "config.load", _count_input),
    ("runner", "run_scenario", "runner", None),
    ("runner", "_write_artifact", "runner.write", _count_output),
    ("epistemic", "step_problem_pool", "epistemic.pool_step", _count_pool),
    ("epistemic", "research_output", "epistemic.research_output", None),
    ("epistemic", "step_knowledge", "epistemic.step_knowledge", None),
    ("dynprog", "value_iteration", "dynprog.vi", _count_vi),
    ("dynprog", "evaluate_policy", "dynprog.eval", _count_eval),
    ("feedback", "simulate_loop", "feedback.simulate", _count_steps),
    ("feedback", "loop_diagnostics", "feedback.diagnostics", None),
    ("recombinant", "draw_max_statistic", "recombinant.draw", _count_draws),
    ("recombinant", "evt_diagnostics", "recombinant.diagnostics", None),
    ("game", "spne_search", "game.spne", None),
    ("game", "is_spne", None, _count_is_spne),
    ("gravity", "flywheel_compare", "gravity.flywheel", None),
    ("growth", "ladder_step", "growth.ladder_step", None),
    ("policy", "optimize_subsidies", "policy.optimize", None),
)


class Tracer:
    """Spans and counters for one process; ops are numbered by the caller."""

    def __init__(self):
        self.op = 0
        self.spans = []  # (op, span id, parent id, name, start_ns, end_ns), by end time
        self._next_id = 0
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(float)
        self._open = []  # [span id, ns covered by child spans], innermost last
        self._saved = []

    def wrap(self, name, fn, count=None):
        """fn with a span named `name` around it, or only the counter if name is None."""
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                count(self.counts, args, result)
                return result
            parent = self._open[-1] if self._open else None
            frame = [self._next_id, 0]
            self._next_id += 1
            self._open.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._open.pop()
                # A tuple of atomic values drops out of garbage collection.
                self.spans.append((self.op, frame[0], parent[0] if parent else -1, name, start, end))
                self.self_ns[name] += end - start - frame[1]
                if parent is not None:
                    parent[1] += end - start
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Replace every attribute in PATCHES on its emt_lab module."""
        for module, attr, name, count in PATCHES:
            owner = importlib.import_module(f"emt_lab.{module}")
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for record in sorted(self.spans, key=lambda r: r[1]):
                fh.write("\t".join(map(str, record)) + "\n")
