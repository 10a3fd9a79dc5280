"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of the bnskit modules with
wrappers, in every bnskit module that holds a reference to them, so calls
between modules are seen too.  Functions that run at most a few times per
operation record a span (name, size tag, start, end, parent); functions and
constructors that run thousands of times per operation only count calls, so
tracing stays cheap and the spans fit in memory.  Spans are kept in memory
and written out as JSON lines when the run ends.  Span times are the
process's CPU time, like the operation latencies they break down.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# module -> functions that record spans
TIMED = {
    "cli": ["run", "parse_graph_file", "parse_character_file", "parse_words_file", "parse_vector_file"],
    "braid": ["sigma_membership", "witness_pair", "dead_subspaces", "nf_obstruction_demo", "project_word", "pb3_reduce"],
    "loop": ["sigma_membership", "witness_pair", "dead_subspaces", "nf_obstruction_demo", "project_word", "plb2_reduce"],
    "characters": ["saturate", "kill_character", "generic_point_avoiding"],
    "obstruction": ["run_obstruction"],
    "raag": ["sigma_membership", "sigma_complement_supports", "kill_and_test", "virtual_split_report",
             "commensurability_compare"],
    "graphs": ["min_separating_clique_witness", "out_finiteness_predicates"],
    "words": ["raag_normal_form", "raag_commute"],
}

# module -> functions and classes whose calls or constructions are counted
COUNTED = {
    "braid": ["project_character", "PureBraidBasis"],
    "loop": ["project_character", "LoopBraidBasis"],
    "characters": ["hermite_form", "Character"],
    "graphs": ["is_separating", "induced_subgraph", "is_connected"],
    "words": ["Word"],
}

_VERTICES = lambda args: f"v{len(args[0].vertices)}"
SIZE_TAG = {
    "braid.sigma_membership": lambda args: f"n{args[0]}",
    "loop.sigma_membership": lambda args: f"n{args[0]}",
    "raag.sigma_complement_supports": _VERTICES,
    "graphs.min_separating_clique_witness": _VERTICES,
    "words.raag_normal_form": lambda args: f"L{len(args[1])}",
}

PARSERS = {f"cli.{name}" for name in TIMED["cli"] if name.startswith("parse_")}

# (metric name, unit, how to compute it); "time" is the mean span length of
# a name (and size tag), "self" subtracts the time of direct child spans,
# "calls" is calls per round
PER_LAYER = [
    ("cli.run.self_ms", "ms", ("self", "cli.run", None)),
    ("cli.parse_ms", "ms", ("parse",)),
    ("cli.run_calls", "calls/round", ("spans", "cli.run")),
    *[(f"braid.sigma_membership.n{n}_ms", "ms", ("time", "braid.sigma_membership", f"n{n}")) for n in (4, 8, 12)],
    ("braid.witness_pair_ms", "ms", ("time", "braid.witness_pair", None)),
    ("braid.dead_subspaces_ms", "ms", ("time", "braid.dead_subspaces", None)),
    ("braid.project_character_calls", "calls/round", ("calls", "braid.project_character")),
    ("braid.PureBraidBasis_calls", "calls/round", ("calls", "braid.PureBraidBasis")),
    *[(f"loop.sigma_membership.n{n}_ms", "ms", ("time", "loop.sigma_membership", f"n{n}")) for n in (3, 6, 10)],
    ("loop.witness_pair_ms", "ms", ("time", "loop.witness_pair", None)),
    ("loop.dead_subspaces_ms", "ms", ("time", "loop.dead_subspaces", None)),
    ("loop.project_character_calls", "calls/round", ("calls", "loop.project_character")),
    ("loop.LoopBraidBasis_calls", "calls/round", ("calls", "loop.LoopBraidBasis")),
    ("characters.saturate_ms", "ms", ("time", "characters.saturate", None)),
    ("characters.kill_character_ms", "ms", ("time", "characters.kill_character", None)),
    ("characters.generic_point_avoiding_ms", "ms", ("time", "characters.generic_point_avoiding", None)),
    ("characters.generic_point_avoiding.self_ms", "ms", ("self", "characters.generic_point_avoiding", None)),
    ("characters.hermite_form_calls", "calls/round", ("calls", "characters.hermite_form")),
    ("characters.Character_calls", "calls/round", ("calls", "characters.Character")),
    ("obstruction.run_obstruction.self_ms", "ms", ("self", "obstruction.run_obstruction", None)),
    ("raag.sigma_membership_ms", "ms", ("time", "raag.sigma_membership", None)),
    *[(f"raag.sigma_complement_supports.v{n}_ms", "ms", ("time", "raag.sigma_complement_supports", f"v{n}"))
      for n in (6, 8, 10)],
    ("raag.kill_and_test_ms", "ms", ("time", "raag.kill_and_test", None)),
    ("raag.virtual_split_report_ms", "ms", ("time", "raag.virtual_split_report", None)),
    *[(f"graphs.min_separating_clique_witness.v{n}_ms", "ms", ("time", "graphs.min_separating_clique_witness", f"v{n}"))
      for n in (8, 12, 16)],
    ("graphs.out_finiteness_predicates_ms", "ms", ("time", "graphs.out_finiteness_predicates", None)),
    ("graphs.is_separating_calls", "calls/round", ("calls", "graphs.is_separating")),
    ("graphs.induced_subgraph_calls", "calls/round", ("calls", "graphs.induced_subgraph")),
    ("graphs.is_connected_calls", "calls/round", ("calls", "graphs.is_connected")),
    *[(f"words.raag_normal_form.L{n}_ms", "ms", ("time", "words.raag_normal_form", f"L{n}")) for n in (50, 200, 800)],
    ("words.raag_commute_ms", "ms", ("time", "words.raag_commute", None)),
    ("words.Word_calls", "calls/round", ("calls", "words.Word")),
]
OVERHEAD = ("trace.overhead_pct", "%")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name index, tag, start ns, end ns, parent span index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._wrappers: list = []  # (original, wrapper)
        self._undo: list = []  # (owner, attribute, original) to put back

    def install(self) -> None:
        """Put the wrappers in place; they are built once and reused."""
        if not self._wrappers:
            for module_name, functions in TIMED.items():
                module = sys.modules[f"bnskit.{module_name}"]
                for fn in functions:
                    original = getattr(module, fn)
                    self._wrappers.append((original, self._timed(f"{module_name}.{fn}", original)))
            for module_name, functions in COUNTED.items():
                module = sys.modules[f"bnskit.{module_name}"]
                for fn in functions:
                    original = getattr(module, fn)
                    if isinstance(original, type):
                        original = original.__init__
                    self._wrappers.append((original, self._counted(f"{module_name}.{fn}", original)))
        owners = [m for name, m in sys.modules.items() if name == "bnskit" or name.startswith("bnskit.")]
        owners += [v for m in owners for v in vars(m).values() if isinstance(v, type) and v.__module__.startswith("bnskit")]
        for original, wrapper in self._wrappers:
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._undo.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _timed(self, key, fn):
        name_index = len(self.names)
        self.names.append(key)
        tag_of = SIZE_TAG.get(key)
        spans, stack, clock = self.spans, self._stack, time.process_time_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_index, tag_of(args) if tag_of else None, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def per_layer(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, 0 where this workload never reaches it."""
        durations = defaultdict(list)
        self_times = defaultdict(list)
        child = defaultdict(int)
        for name, tag, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        parse_ns = 0
        for k, (name, tag, start, end, parent) in enumerate(self.spans):
            key = self.names[name]
            durations[key, None].append(end - start)
            if tag is not None:
                durations[key, tag].append(end - start)
            self_times[key].append(end - start - child[k])
            if key in PARSERS and parent >= 0 and self.names[self.spans[parent][0]] == "cli.run":
                parse_ns += end - start
        mean_ms = lambda xs: sum(xs) / len(xs) / 1e6 if xs else 0.0
        runs = len(durations["cli.run", None])
        out = {}
        for metric, unit, (how, *spec) in PER_LAYER:
            if how == "time":
                value = mean_ms(durations[spec[0], spec[1]])
            elif how == "self":
                value = mean_ms(self_times[spec[0]])
            elif how == "parse":
                value = parse_ns / runs / 1e6 if runs else 0.0
            elif how == "spans":
                value = len(durations[spec[0], None]) / rounds
            else:
                value = self.counts[spec[0]] / rounds
            out[metric] = (value, unit)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for name, tag, start, end, parent in self.spans:
                handle.write(json.dumps(
                    {"name": self.names[name], "tag": tag, "start_ns": start, "end_ns": end, "parent": parent}
                ) + "\n")
