"""Span tracer that wraps valiron's layers from outside the package.

Installing a ``Tracer`` replaces, for the duration of a traced pass:

* ``SiegelPoint.__init__`` and ``BallPoint.__init__`` on the classes;
* ``ValironResult.sigma_at`` on the class;
* every public function of the eight layer modules, at every module binding
  that holds it (``classify_sequence`` is bound in ``dynamics``, ``renorm``,
  ``cli`` and the package itself, and all four are patched);
* the evaluator of each map, through ``wrap_map`` for maps the benchmark
  builds and through the patched ``cli.build_map`` for maps the CLI builds.

Each call records a span (id, parent id, name, op id, start, end).  Spans
are kept in memory, up to ``SPAN_CAP`` of them, and written out by
``save``.  Counts and times are also aggregated as calls close, so the
layer metrics cover every call even past the cap.  Self time is a span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import sys
import time
from array import array

LAYERS = ("geometry", "maps", "dynamics", "renorm", "limits", "config", "cli", "reports")
SPAN_CAP = 400_000


def _point_key(q) -> tuple:
    return q.z, q.w.tobytes()


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list = []
        self._ids: dict = {}
        self.count: list = []
        self.total: list = []
        self.self_time: list = []
        self.errors: list = []
        # (parent name id, child name id) -> [count, seconds]; parent -1 is the harness
        self.edges: dict = {}
        self.stack: list = []
        self.next_span = 0
        self.op = -1
        self.ops = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("H")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        # hook counters, summed over traced ops
        self.sequences = 0
        self.report_files = 0
        self.report_bytes = 0
        self.distinct_evals = 0
        self.distinct_classify = 0
        self._eval_keys: set = set()
        self._classify_keys: set = set()
        self._patches: list = []
        self._wrapped_fns: dict = {}  # id(original) -> (original, wrapper)
        self._class_wrappers: list = []  # (class, attribute, wrapper)

    # -- op boundaries -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._eval_keys.clear()
        self._classify_keys.clear()

    def end_op(self) -> None:
        self.ops += 1
        self.distinct_evals += len(self._eval_keys)
        self.distinct_classify += len(self._classify_keys)
        self.op = -1

    # -- span recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            for agg in (self.count, self.errors):
                agg.append(0)
            for agg in (self.total, self.self_time):
                agg.append(0.0)
        return nid

    def _traced(self, name: str, fn):
        nid = self._id(name)
        stack = self.stack
        perf = time.perf_counter
        count, total, self_time, errors, edges = (
            self.count, self.total, self.self_time, self.errors, self.edges)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.next_span
            tracer.next_span = sid + 1
            frame = [nid, sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                count[nid] += 1
                total[nid] += dur
                self_time[nid] += dur - frame[2]
                if stack:
                    parent = stack[-1]
                    parent[2] += dur
                    pnid, psid = parent[0], parent[1]
                else:
                    pnid, psid = -1, -1
                edge = edges.get((pnid, nid))
                if edge is None:
                    edges[(pnid, nid)] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur
                if len(tracer.span_start) < SPAN_CAP:
                    tracer.span_id.append(sid)
                    tracer.span_parent.append(psid)
                    tracer.span_name.append(nid)
                    tracer.span_op.append(tracer.op)
                    tracer.span_start.append(t0)
                    tracer.span_end.append(t1)
                else:
                    tracer.spans_dropped += 1

        return traced

    # -- wrappers with per-layer hooks -----------------------------------------

    def wrap_map(self, m):
        """Copy of ``m`` whose evaluator records ``maps.eval`` spans."""
        traced = self._traced("maps.eval", m.evaluator)
        keys = self._eval_keys

        def evaluator(q):
            keys.add(_point_key(q))
            return traced(q)

        return dataclasses.replace(m, evaluator=evaluator)

    def _wrap_function(self, layer: str, name: str, fn):
        traced = self._traced(f"{layer}.{name}", fn)
        if (layer, name) == ("dynamics", "classify_sequence"):
            keys = self._classify_keys

            def classify(points, *args, **kwargs):
                points = tuple(points)
                keys.add(tuple(_point_key(p) for p in points))
                return traced(points, *args, **kwargs)

            return classify
        if (layer, name) == ("limits", "generate_sequences"):
            def generate(*args, **kwargs):
                seqs = traced(*args, **kwargs)
                self.sequences += len(seqs)
                return seqs

            return generate
        if layer == "reports" and name.startswith("write_"):
            def write(path, *args, **kwargs):
                traced(path, *args, **kwargs)
                self.report_files += 1
                self.report_bytes += os.path.getsize(path)

            return write
        if (layer, name) == ("cli", "build_map"):
            def build_map(*args, **kwargs):
                return self.wrap_map(traced(*args, **kwargs))

            return build_map
        return traced

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = self.package
        mods = {layer: sys.modules[f"{pkg.__name__}.{layer}"] for layer in LAYERS}
        geometry, renorm = mods["geometry"], mods["renorm"]
        if not self._wrapped_fns:
            for layer, mod in mods.items():
                for name, obj in vars(mod).items():
                    if (not name.startswith("_") and inspect.isfunction(obj)
                            and obj.__module__ == mod.__name__):
                        self._wrapped_fns[id(obj)] = (
                            obj, self._wrap_function(layer, name, obj))
            self._class_wrappers = [
                (geometry.SiegelPoint, "__init__",
                 self._traced("geometry.SiegelPoint", geometry.SiegelPoint.__init__)),
                (geometry.BallPoint, "__init__",
                 self._traced("geometry.BallPoint", geometry.BallPoint.__init__)),
                (renorm.ValironResult, "sigma_at",
                 self._traced("renorm.sigma_at", renorm.ValironResult.sigma_at)),
            ]
        for cls, attr, wrapper in self._class_wrappers:
            self._patch(cls, attr, wrapper)
        bindings = [m for name, m in sys.modules.items()
                    if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")]
        for mod in bindings:
            for attr, obj in list(vars(mod).items()):
                hit = self._wrapped_fns.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def _sum(self, agg: list, *names: str) -> float:
        return sum(agg[self._ids[n]] for n in names if n in self._ids)

    def _edge(self, parent: str, child_prefix: str, field: int) -> float:
        pid = self._ids.get(parent)
        return sum(v[field] for (p, c), v in self.edges.items()
                   if p == pid and self.names[c].startswith(child_prefix))

    def layer_metrics(self) -> dict:
        """Per-op layer metrics over every traced op (see bench/README.md)."""
        n = max(self.ops, 1)
        c = lambda *names: self._sum(self.count, *names) / n  # noqa: E731
        t = lambda *names: self._sum(self.total, *names) / n  # noqa: E731

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        points = ("geometry.SiegelPoint", "geometry.BallPoint")
        out = {
            "geometry.points_new": (c(*points), "count"),
            "geometry.points_new_s": (t(*points), "s"),
            "geometry.point_new_us": (ratio(t(*points), c(*points), 1e6), "us"),
            "geometry.norm_sq_calls": (c("geometry.norm_sq"), "count"),
            "geometry.kobayashi_calls": (c("geometry.kobayashi_distance"), "count"),
            "geometry.kobayashi_s": (t("geometry.kobayashi_distance"), "s"),
            "geometry.koranyi_margin_calls": (c("geometry.koranyi_margin"), "count"),
            "maps.evals": (c("maps.eval"), "count"),
            "maps.eval_s": (t("maps.eval"), "s"),
            "maps.eval_us": (ratio(t("maps.eval"), c("maps.eval"), 1e6), "us"),
            "maps.distinct_eval_frac": (
                ratio(self.distinct_evals / n, c("maps.eval")), "ratio"),
            "dynamics.classify_calls": (c("dynamics.classify_sequence"), "count"),
            "dynamics.classify_s": (t("dynamics.classify_sequence"), "s"),
            "dynamics.classify_ms": (ratio(t("dynamics.classify_sequence"),
                                           c("dynamics.classify_sequence"), 1e3), "ms"),
            "dynamics.orbit_calls": (c("dynamics.compute_orbit"), "count"),
            "dynamics.orbit_s": (t("dynamics.compute_orbit"), "s"),
            "dynamics.distinct_classify_frac": (
                ratio(self.distinct_classify / n, c("dynamics.classify_sequence")), "ratio"),
            "dynamics.errors": (sum(e for name, e in zip(self.names, self.errors)
                                    if name.startswith("dynamics.")) / n, "count"),
            "renorm.steps": (c("renorm.advance"), "count"),
            "renorm.advance_s": (t("renorm.advance"), "s"),
            "renorm.advance_self_s": (
                t("renorm.advance") - self._edge("renorm.advance", "maps.eval", 1) / n, "s"),
            "renorm.step_ms": (ratio(t("renorm.advance"), c("renorm.advance"), 1e3), "ms"),
            "renorm.probe_s": (self._edge("renorm.run_valiron", "dynamics.", 1) / n, "s"),
            "renorm.sigma_at_s": (t("renorm.sigma_at"), "s"),
            "renorm.sigma_at_evals": (self._edge("renorm.sigma_at", "maps.eval", 0) / n, "count"),
            "limits.sequences": (self.sequences / n, "count"),
            "limits.generate_s": (t("limits.generate_sequences"), "s"),
            "limits.probe_s": (t("limits.probe_family"), "s"),
            "limits.verdict_calls": (c("limits.verdict_from_traces"), "count"),
            "limits.verdict_s": (t("limits.verdict_from_traces"), "s"),
            "limits.verdict_ms": (ratio(t("limits.verdict_from_traces"),
                                        c("limits.verdict_from_traces"), 1e3), "ms"),
            "limits.check_s": (t("limits.jwc_check", "limits.left_inverse_ratio_check"), "s"),
            "config.parse_s": (t("config.parse_config"), "s"),
            "reports.write_s": (t(*[nm for nm in self.names
                                    if nm.startswith("reports.write_")]), "s"),
            "reports.files": (self.report_files / n, "count"),
            "reports.bytes": (self.report_bytes / n, "B"),
        }
        for layer in LAYERS:
            self_s = sum(s for name, s in zip(self.names, self.self_time)
                         if name.startswith(layer + "."))
            out[f"{layer}.self_s"] = (self_s / n, "s")
        return out

    def save(self, path) -> None:
        """Write the kept spans as a NumPy archive."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent_id=np.frombuffer(self.span_parent, dtype=np.int64),
            name_id=np.frombuffer(self.span_name, dtype=np.uint16),
            op_id=np.frombuffer(self.span_op, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            dropped=np.array(self.spans_dropped),
        )
