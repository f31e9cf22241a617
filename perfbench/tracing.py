"""Per-layer spans for the traced run, taken from outside the program.

The tracer replaces the public entry point of each layer with a timing
wrapper for the length of a traced pass, and puts a `DiagramManager`
subclass whose public operations are wrapped into `xormpe.executor`'s
namespace (the only place a solve or count constructs its manager).
`uninstall` restores every original, so untraced passes run the program
unmodified.

Spans nest: a span's self time is its duration minus the durations of the
spans opened inside it. Diagram operations are numerous (hundreds of
thousands per pass on thin-chain), so every span is folded into per-name
totals as it closes; the coarse spans (cli, parse, plan, solve, count) are
also kept as records with their parent, one list per pass.
"""

from __future__ import annotations

from time import perf_counter

# (module, attribute, span name) of each layer's public entry point
ENTRY_POINTS = (
    ("cli", "main", "cli.main"),
    ("formula", "parse_formula", "formula.parse"),
    ("cli", "parse_formula", "formula.parse"),   # the CLI imported it by name
    ("planner", "heuristic_order", "planner.order"),
    ("planner", "plan", "planner.plan"),
    ("executor", "solve", "executor.solve"),
    ("executor", "count", "executor.count"),
)

# DiagramManager method -> span name
DIAGRAM_OPS = {
    "join": "diagram.join",
    "derivative_sign": "diagram.sign",
    "exists_project": "diagram.max_project",
    "add_project": "diagram.sum_project",
    "size": "diagram.size",
    "evaluate": "diagram.evaluate",
    "from_clause": "diagram.leaf",
    "literal_weight": "diagram.weight",
}

COARSE = {name for _, _, name in ENTRY_POINTS}


class Tracer:
    def __init__(self, xm):
        self.xm = xm
        self.saved = []
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.managers: list = []
        # open spans, outermost first: [seconds of child spans, span record index]
        self.stack: list[list] = []
        self.reset()
        base = xm.executor.DiagramManager
        managers = self.managers

        class TimedManager(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                managers.append(self)

        for method, name in DIAGRAM_OPS.items():
            setattr(TimedManager, method, self.wrap(name, getattr(base, method)))
        self.manager_class = TimedManager

    def reset(self) -> None:
        """Start a pass: empty every total; the pass is the outermost span."""
        for table in (self.self_s, self.total_s, self.calls, self.counts,
                      self.spans, self.managers):
            table.clear()
        self.stack[:] = [[0.0, -1]]

    def top_level_s(self) -> float:
        """Seconds of the pass covered by spans; the rest is the harness's."""
        return self.stack[0][0]

    def wrap(self, name: str, fn):
        stack, spans = self.stack, self.spans
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        coarse = name in COARSE
        after = self.after

        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if coarse:
                frame[1] = len(spans)
                spans.append((name, 0.0, 0.0, stack[-1][1]))
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                self_s[name] = self_s.get(name, 0.0) + duration - frame[0]
                total_s[name] = total_s.get(name, 0.0) + duration
                calls[name] = calls.get(name, 0) + 1
                if coarse:
                    spans[frame[1]] = (name, start, end, spans[frame[1]][3])
            if coarse:
                after(name, result)
            return result

        return traced

    def after(self, name: str, result) -> None:
        """Counts read at a layer boundary, outside the span's own time."""
        add = self.add_count
        if name == "planner.plan":
            add("planner.tree_nodes", len(result.nodes))
        elif name in ("executor.solve", "executor.count"):
            if name == "executor.solve":
                add("executor.peak_nodes", result.stats.peak_nodes)
                add("executor.solve_allocated_nodes",
                    sum(manager.node_count() for manager in self.managers))
                self.counts["planner.width"] = max(self.counts.get("planner.width", 0),
                                                   result.stats.width)
            for manager in self.managers:
                add("diagram.allocated_nodes", manager.node_count())
                add("diagram.op_cache_entries", len(manager._cache))
                add("diagram.terminals", len(manager._terminals))
            self.managers.clear()

    def add_count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def install(self) -> None:
        xm = self.xm
        self.saved = [(getattr(xm, module), attr, getattr(getattr(xm, module), attr))
                      for module, attr, _ in ENTRY_POINTS]
        self.saved.append((xm.executor, "DiagramManager", xm.executor.DiagramManager))
        for module, attr, name in ENTRY_POINTS:
            owner = getattr(xm, module)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        xm.executor.DiagramManager = self.manager_class

    def uninstall(self) -> None:
        for owner, attr, original in self.saved:
            setattr(owner, attr, original)
        self.saved = []
