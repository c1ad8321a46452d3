"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: the tracer replaces a
public callable at the module or class attribute where its caller looks it
up, and restores it afterwards.  Nothing under src/ is edited.

Each span is (name, start_ns, end_ns, parent index, run id, attr), where
attr is an optional integer the wrapper computes from the call's arguments
(the defect count of a syndrome, the shot-op count of a sampling call).
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time

NAME, START, END, PARENT, RUN, ATTR = range(6)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, attr=None):
        """Return fn wrapped so every call records one span called name."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        run_id = self.run_id

        def traced(*args, **kwargs):
            span = [
                name,
                0,
                0,
                stack[-1] if stack else -1,
                run_id,
                attr(*args, **kwargs) if attr is not None else None,
            ]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attribute: str, name: str, attr=None) -> None:
        """Replace owner.attribute by its traced wrapper until restore()."""
        original = owner.__dict__[attribute]
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name, attr))

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "start_ns", "end_ns", "parent", "run_id", "attr"],
                    "rows": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
