"""In-memory spans around the public functions of each `operadic` layer.

The tracer replaces a function object by a wrapper under every name that
binds it in the loaded `operadic` modules, so calls made from inside the
program are caught as well as the benchmark's own calls.  Spans stay in
memory and are written out once, after the run.
"""

from __future__ import annotations

import sys
import time

# layer -> public functions wrapped in the traced run
TARGETS = {
    "trees": ("validate_labeling", "canonicalize", "encode", "enumerate_trees", "psi_category"),
    "exactgeom": ("validate_config", "common_box", "rects_overlap", "rect_compose",
                  "glue_shared", "epsilon_glue"),
    "algebra": ("glued_mu_s", "glued_mu_direct", "glued_circ", "compose_at", "fiber_compose_at"),
    "freeconstr": ("free_graft_ib", "free_graft_b", "evaluate_ib", "evaluate_b"),
    "bv": ("bv_act", "bv_eta", "bv_normalize", "bv_tau"),
}

SPAN_NAMES = tuple("%s.%s" % (layer, fn) for layer, fns in TARGETS.items() for fn in fns)


class Tracer:
    """Spans are tuples (op id, span id, parent span id, name index, start ns,
    end ns); self time is accumulated as spans close."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.spans = []
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.op_id = -1
        self._stack = []  # [span id, child ns] of the open spans
        self._next_id = 0

    def _wrap(self, fn, idx):
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_ns = self.self_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[idx] += 1
                self_ns[idx] += dur - frame[1]
                spans.append((self.op_id, span_id, parent, idx, start, end))

        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        """Wrap every target under every name bound to it in `operadic`."""
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "operadic" or name.startswith("operadic."))]
        for idx, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            original = getattr(sys.modules["operadic." + layer], fn_name)
            wrapper = self._wrap(original, idx)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def count_within(self, name: str, ancestor: str) -> int:
        """Calls of `name` inside timed operations (op id >= 0) that have a
        span of `ancestor` above them."""
        idx, anc = self.names.index(name), self.names.index(ancestor)
        by_id = {s[1]: s for s in self.spans}
        total = 0
        for s in self.spans:
            if s[3] != idx or s[0] < 0:
                continue
            parent = s[2]
            while parent != -1:
                p = by_id[parent]
                if p[3] == anc:
                    total += 1
                    break
                parent = p[2]
        return total

    def write(self, path):
        """One line per span: op, span, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for op, sid, parent, idx, start, end in self.spans:
                fh.write("%d\t%d\t%d\t%s\t%d\t%d\n" % (op, sid, parent, self.names[idx], start, end))
