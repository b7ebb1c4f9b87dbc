"""Outside-in tracer for the convexiq benchmark.

The tracer wraps public library functions from the benchmark's own files:
every ``convexiq.*`` module attribute that holds a listed function is
replaced by a timing wrapper, because the library imports by name
(``inequalities.vm``, ``coordops.convex_hull`` and so on).  Nothing under
``src/`` changes.

Each call becomes a span (name, start, end, parent, op).  Spans are kept
in memory and written once, as JSON lines, when the run ends.  Self time
is a span's duration minus the time its child spans cover.  Layer
counters (points hulled, quadrature nodes, repeat shares, ...) are
recorded at the same boundaries; the time they take is booked to
``trace.hook_s``, not to any layer's self time.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs wrapped at every convexiq.* binding.
TRACED = (
    ("bodies", "convex_hull"),
    ("bodies", "support_many"),
    ("symmetry", "apply_symmetry"),
    ("quadrature", "integrate_sphere_with_error"),
    ("measures", "vm"),
    ("measures", "vm_zonotope"),
    ("measures", "v1_polytope_exact"),
    ("measures", "v1_quadrature"),
    ("measures", "volume"),
    ("measures", "surface_area"),
    ("coordops", "project_drop"),
    ("coordops", "section"),
    ("coordops", "section_drop"),
    ("coordops", "g_symmetral"),
    ("inequalities", "evaluate"),
    ("inequalities", "body_fingerprint"),
    ("explorer", "mean_width_ratio"),
    ("explorer", "support_ratio_profile"),
    ("explorer", "run_repro"),
    ("explorer", "search"),
    ("io", "read_body"),
    ("io", "dumps_body"),
    ("io", "canonical_json"),
    ("io", "write_report"),
    ("io", "write_report_csv"),
    ("io", "write_finding"),
    ("cli", "main"),
)

# Calls of these are split by the ambient dimension of their input.
SPLIT_BY_N = ("bodies.convex_hull", "measures.vm")

RATIOS = ("bodies.convex_hull.repeat_share", "inequalities.hulls_per_eval",
          "quadrature.calls_per_op", "measures.vm.repeat_share",
          "coordops.section.yield", "trace.overhead_ratio")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in RATIOS else "count"


def _digest_array(a) -> bytes:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    h = hashlib.blake2b(digest_size=16)
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.digest()


def _body_key(body) -> bytes:
    """Content key of a body dataclass (arrays by bytes, the rest by repr)."""
    h = hashlib.blake2b(type(body).__name__.encode(), digest_size=16)
    if dataclasses.is_dataclass(body):
        for f in dataclasses.fields(body):
            v = getattr(body, f.name)
            h.update(_digest_array(v) if isinstance(v, np.ndarray)
                     else repr(v).encode())
    else:
        h.update(repr(body).encode())
    return h.digest()


def _grid_nodes(n: int, res: int) -> int:
    return res if n == 2 else res ** (n - 1)


class Tracer:
    """Span recorder with per-layer counters; one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []           # (name_id, start_ns, end_ns, parent, op)
        self._stack: list[int] = []
        self._child_ns: list[int] = []
        self.op_id = -1
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.raised = defaultdict(int)
        self.counts = defaultdict(float)
        self._seen_hulls: set = set()
        self._seen_vm: set = set()
        self._patched: list = []
        self.bindings = 0
        self.hook_ns = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace every convexiq.* binding of each traced function."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "convexiq"
                                         or name.startswith("convexiq."))]
        for mod_name, fn_name in TRACED:
            owner = sys.modules[f"convexiq.{mod_name}"]
            orig = getattr(owner, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        self.bindings = len(self._patched)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _parent_name(self) -> str | None:
        if not self._stack:
            return None
        return self.names[self.spans[self._stack[-1]][0]]

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (a wrapped library
        function, or one of the benchmark's own op spans)."""
        nid = self._name_id(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([nid, time.perf_counter_ns(), 0, parent, self.op_id])
        self._stack.append(idx)
        self._child_ns.append(0)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.raised[name] += 1
            raise
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            child = self._child_ns.pop()
            rec = self.spans[idx]
            rec[2] = end
            dur = end - rec[1]
            if self._child_ns:
                self._child_ns[-1] += dur
            self.calls[name] += 1
            self.self_ns[name] += dur - child

    def _wrap(self, name: str, orig):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        split = name in SPLIT_BY_N

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            after = hook(args, kwargs) if hook is not None else None
            span_name = (f"{name}.n{self._ambient_n(name, args, kwargs)}"
                         if split else name)
            self._tracer_time(t0)
            result = self.span(span_name, orig, *args, **kwargs)
            if after is not None:
                t0 = time.perf_counter_ns()
                after(result)
                self._tracer_time(t0)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        return wrapper

    def _tracer_time(self, t0: int) -> None:
        """Book the counter hooks' time since ``t0`` to the tracer, not
        to the self time of the enclosing span."""
        dt = time.perf_counter_ns() - t0
        self.hook_ns += dt
        if self._child_ns:
            self._child_ns[-1] += dt

    @staticmethod
    def _ambient_n(name, args, kwargs) -> int:
        if name == "bodies.convex_hull":
            pts = np.asarray(args[0] if args else kwargs["points"], dtype=float)
            return int(pts.shape[1]) if pts.ndim == 2 else 1
        body = args[0] if args else kwargs["body"]
        return int(body.n)

    # -- layer counters ---------------------------------------------------

    def _hook_bodies_convex_hull(self, args, kwargs):
        pts = np.asarray(args[0] if args else kwargs["points"], dtype=float)
        self.counts["bodies.convex_hull.points_in"] += pts.shape[0]
        key = _digest_array(pts)
        if key in self._seen_hulls:
            self.counts["bodies.convex_hull.repeats"] += 1
        else:
            self._seen_hulls.add(key)
        if self._parent_name() != "coordops.section":
            return None
        self.counts["coordops.section.cloud_points"] += pts.shape[0]

        def after(hull):
            self.counts["coordops.section.vertices_out"] += hull.vertex_count
        return after

    def _hook_bodies_support_many(self, args, kwargs):
        dirs = args[1] if len(args) > 1 else kwargs["directions"]
        self.counts["bodies.support_many.directions"] += np.shape(dirs)[0]

    def _hook_quadrature_integrate_sphere_with_error(self, args, kwargs):
        from convexiq.quadrature import effective_resolution
        n = args[1] if len(args) > 1 else kwargs["n"]
        spec = args[2] if len(args) > 2 else kwargs["spec"]
        eff = effective_resolution(n, spec.resolution)
        if spec.target_error is None:
            nodes = _grid_nodes(n, max(6, eff // 2)) + _grid_nodes(n, eff)
        else:  # the doubling ladder up to the cap; an upper bound
            nodes, res = _grid_nodes(n, eff), eff
            while True:
                nxt = effective_resolution(n, min(2 * res, spec.max_resolution))
                if nxt <= res:
                    break
                nodes += _grid_nodes(n, nxt)
                res = nxt
        self.counts["quadrature.integrate_sphere_with_error.nodes"] += nodes

    def _hook_measures_vm(self, args, kwargs):
        body = args[0] if args else kwargs["body"]
        m = args[1] if len(args) > 1 else kwargs["m"]
        key = (_body_key(body), m)
        if key in self._seen_vm:
            self.counts["measures.vm.repeats"] += 1
        else:
            self._seen_vm.add(key)

    def _hook_measures_vm_zonotope(self, args, kwargs):
        z = args[0] if args else kwargs["z"]
        m = args[1] if len(args) > 1 else kwargs["m"]
        k = z.generators.shape[0]
        self.counts["measures.vm_zonotope.subsets"] += math.comb(k, m) if k >= m else 0

    # -- results ----------------------------------------------------------

    def layer_table(self, ops: int) -> dict:
        """Every recorded per-layer number, keyed by metric name."""
        for base in SPLIT_BY_N:     # aggregate the per-dimension spans
            parts = [k for k in list(self.calls) if k.startswith(base + ".n")]
            self.calls[base] = sum(self.calls[k] for k in parts)
            self.self_ns[base] = sum(self.self_ns[k] for k in parts)
            self.raised[base] = sum(self.raised[k] for k in parts)
        out: dict = {}
        for name in sorted(set(self.calls) | set(self.raised)):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
            out[f"{name}.raised"] = self.raised[name]
        c = self.counts
        hulls = self.calls["bodies.convex_hull"]
        vms = self.calls["measures.vm"]
        evals = self.calls["inequalities.evaluate"]
        cloud = c["coordops.section.cloud_points"]
        out.update({
            "bodies.convex_hull.points_in": c["bodies.convex_hull.points_in"],
            "bodies.convex_hull.repeat_share":
                c["bodies.convex_hull.repeats"] / hulls if hulls else 0.0,
            "inequalities.hulls_per_eval": hulls / evals if evals else 0.0,
            "bodies.support_many.directions": c["bodies.support_many.directions"],
            "quadrature.integrate_sphere_with_error.nodes":
                c["quadrature.integrate_sphere_with_error.nodes"],
            "quadrature.calls_per_op":
                self.calls["quadrature.integrate_sphere_with_error"] / ops
                if ops else 0.0,
            "measures.vm.repeat_share":
                c["measures.vm.repeats"] / vms if vms else 0.0,
            "measures.vm_zonotope.subsets": c["measures.vm_zonotope.subsets"],
            "coordops.section.cloud_points": cloud,
            "coordops.section.yield":
                c["coordops.section.vertices_out"] / cloud if cloud else 0.0,
            "trace.hook_s": self.hook_ns / 1e9,
        })
        return out

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (nid, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": self.names[nid],
                                     "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
