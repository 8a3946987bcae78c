"""In-memory spans around otalign's module boundaries.

Each hook replaces one function in the namespace of the module that calls
it (``otalign.losses.sinkhorn``, not ``otalign.solver.sinkhorn``), so the
program runs unchanged apart from the wrapper.  A span is
``[name, start, end, parent, work]``; a span's self time is its duration
minus the durations of its direct children.  The benchmark opens one root
span per timed operation (``unit.step``, ``unit.train``, ``unit.solve``),
and per-layer metrics are taken over the spans under the roots of one kind.
Nothing is written out until the run ends.
"""

import importlib
import os
import time
from statistics import median

from units import LOSS_IDS

# (span name, module whose global is replaced, attribute, per-call work).
# ``work`` maps (args, kwargs, result) to a count the span also records:
# scaling iterations for the loops, bytes written for the CSV writer.
HOOKS = [
    ("kernel.cosine_cost", "otalign.losses", "cosine_cost", None),
    ("kernel.gibbs_kernel", "otalign.losses", "gibbs_kernel", None),
    ("kernel.gibbs_kernel", "otalign.cli", "gibbs_kernel", None),
    ("solver.sinkhorn", "otalign.losses", "sinkhorn", None),
    ("solver.sinkhorn", "otalign.cli", "sinkhorn", None),
    ("solver.scaling_loop", "otalign._backends", "sinkhorn_core", lambda a, k, r: r[-1]),
    ("solver.dual_objective", "otalign.cli", "dual_objective", None),
    ("uot.solve_scalings", "otalign.losses", "_solve_scalings", None),
    ("uot.scaling_loop", "otalign._backends", "uot_core", lambda a, k, r: r[-1]),
    ("losses.kl_plan_divergence", "otalign.losses", "kl_plan_divergence", None),
    ("plans.identity_plan", "otalign.losses", "identity_plan", None),
    ("plans.block_domain_plan", "otalign.train", "block_domain_plan", None),
    ("train.augment", "otalign.train", "augment", None),
    ("train.encoder_forward", "otalign.train", "encoder_forward", None),
    ("train.encoder_backward", "otalign.train", "encoder_backward", None),
    ("train.train_encoder", "otalign.train", "train_encoder", None),
    ("train.epoch_metrics", "otalign.train", "_epoch_metrics", None),
    ("metrics.alignment_loss", "otalign.train", "alignment_loss", None),
    ("metrics.uniformity_loss", "otalign.train", "uniformity_loss", None),
    ("matio.write_matrix_csv", "otalign.cli", "write_matrix_csv",
     lambda a, k, r: os.path.getsize(a[1] if len(a) > 1 else k["path"])),
    ("matio.read_matrix_bin", "otalign.cli", "read_matrix_bin", None),
    ("cli.main", "otalign.cli", "main", None),
    ("cli.cmd_solve", "otalign.cli", "cmd_solve", None),
]

# every span name a report carries, in report order; a name whose hook
# found nothing to wrap reports zero calls
SPAN_NAMES = list(dict.fromkeys(h[0] for h in HOOKS)) + [f"losses.{k}" for k in LOSS_IDS]
WORK_SPANS = {"solver.scaling_loop": "ms_per_iteration",
              "uot.scaling_loop": "ms_per_iteration",
              "matio.write_matrix_csv": "bytes"}


class Tracer:
    """Span recorder for one thread; spans nest by call order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, i):
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, work=None):
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if work is not None:
                try:
                    self.spans[i][4] = work(args, kwargs, result)
                except (IndexError, KeyError, TypeError, OSError):
                    pass  # the callee changed shape; its span still counts
            return result
        return traced

    def self_times(self):
        """Self time of every span, in seconds, indexed like ``spans``."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def roots(self):
        """Index of the outermost span enclosing each span."""
        out = []
        for i, s in enumerate(self.spans):
            out.append(i if s[3] is None else out[s[3]])
        return out

    def layer_metrics(self, root):
        """Median self time per call, and calls per ``root`` span, of every
        span name inside spans named ``root``."""
        roots = self.roots()
        n_ops = sum(1 for s in self.spans if s[3] is None and s[0] == root)
        by_name = {}
        for s, st, r in zip(self.spans, self.self_times(), roots):
            if self.spans[r][0] == root:
                by_name.setdefault(s[0], []).append((st, s[4]))
        out = {}
        for name in SPAN_NAMES:
            calls = by_name.get(name, [])
            out[f"{name}.self_ms"] = (median(c[0] for c in calls) * 1e3 if calls else 0.0, "ms")
            out[f"{name}.calls"] = (len(calls) / max(n_ops, 1), "count/op")
            kind = WORK_SPANS.get(name)
            if kind == "ms_per_iteration":
                per = [st * 1e3 / w for st, w in calls if w]
                out[f"{name}.{kind}"] = (median(per) if per else 0.0, "ms")
            elif kind == "bytes":
                sizes = [w for _, w in calls if w is not None]
                out[f"{name}.{kind}"] = (median(sizes) if sizes else 0.0, "bytes")
        return out


class Hooks:
    """Installs a tracer's wrappers and puts the originals back."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        for name, modname, attr, work in HOOKS:
            mod = importlib.import_module(modname)
            if hasattr(mod, attr):
                self._saved.append((mod.__dict__, attr, getattr(mod, attr)))
                setattr(mod, attr, self.tracer.wrap(name, getattr(mod, attr), work))
        table = importlib.import_module("otalign.losses").LOSS_FUNCTIONS
        for loss_id in LOSS_IDS:
            if loss_id in table:
                self._saved.append((table, loss_id, table[loss_id]))
                table[loss_id] = self.tracer.wrap(f"losses.{loss_id}", table[loss_id])
        return self

    def __exit__(self, *exc):
        for namespace, key, original in reversed(self._saved):
            namespace[key] = original
        self._saved.clear()
        return False
