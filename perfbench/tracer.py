"""In-memory spans and counters recorded around the benchmark's calls into
the library.

A span records its name, wall start and end, process CPU at both ends, the
index of its parent span, the pass it belongs to and whether it ended by an
exception.  Spans are only opened from the benchmark's own code: one per
pass, one per job inside it and one per call into a library layer inside
that.  The untraced run uses `NULL`, whose spans and counters do nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

LAYERS = ("core", "logic", "states", "metric", "semiclassical")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self.pass_id = -1

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "error": False,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["cpu0"] = time.process_time()
        rec["t0"] = time.perf_counter()
        try:
            yield
        except BaseException:
            rec["error"] = True
            raise
        finally:
            rec["t1"] = time.perf_counter()
            rec["cpu1"] = time.process_time()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[self.pass_id][name] += value

    def dump(self, path) -> None:
        """Write the spans as JSON lines, then one line of counters per pass."""
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **rec}) + "\n")
            for pass_id, counts in sorted(self.counts.items()):
                fh.write(json.dumps({"pass": pass_id, "counts": dict(counts)}) + "\n")


class _NullTracer:
    pass_id = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass


NULL = _NullTracer()


def pass_profile(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Per-pass totals from the spans and counters of one traced pass.

    Keys are `<span name>.s` (summed wall seconds), `<span name>.fail`
    (calls that raised), `<layer>.self_s` and `<layer>.cpu_s` per layer,
    `pass.s`, and every counter.
    """
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s["pass"] == pass_id]
    child_time: dict[int, float] = defaultdict(float)
    for _i, s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["t1"] - s["t0"]
    out: dict[str, float] = defaultdict(float)
    for i, s in spans:
        dur = s["t1"] - s["t0"]
        name = s["name"]
        out[name + ".s"] += dur
        out[name + ".fail"] += s["error"]
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[layer + ".self_s"] += dur - child_time[i]
            out[layer + ".cpu_s"] += s["cpu1"] - s["cpu0"]
    for name, value in tracer.counts.get(pass_id, {}).items():
        out[name] += value
    return out
