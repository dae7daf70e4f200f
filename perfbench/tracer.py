"""Per-layer tracing of magsurf from outside the package.

``Tracer.install`` builds wrappers for the public functions of each layer
module, and ``enable`` / ``disable`` swap them in and out.  A name bound elsewhere by ``from .x import y`` is replaced in
every module that holds it, so ``orbits.poincare_return`` and
``cli.shoot_periodic`` are traced where they are called.

Two kinds of wrapper:

* spans, around calls that happen at most thousands of times per run:
  (id, name, start, end, parent id, job id), kept in memory and written
  out at the end;
* leaves, around the hot calls (the closure returned by ``flow.make_rhs``,
  ``Surface.conformal`` and ``MagneticField.eval`` on each class, and the
  per-iteration helpers of ``orbits`` and ``regions``): a call counter and
  cumulative time only.

Every wrapper pushes a frame on a per-thread stack, so self time (duration
minus the time of the calls made inside it) is attributed to the layer
that spent it.  Spans started on a worker thread take the main thread's
innermost span as parent.
"""
from __future__ import annotations

import collections
import itertools
import json
import threading
import time

LAYERS = ("cli", "flow", "orbits", "regions", "critical", "bundle", "fields",
          "surfaces")
SURFACE_KINDS = ("flat_torus", "sphere", "hyperbolic", "conformal_torus")
FIELD_CLASSES = ("ConstantField", "TorusField")
# the (surface, field class) pairs the workloads run: TorusField only on
# the flat torus
RHS_PAIRS = tuple((kind, "ConstantField") for kind in SURFACE_KINDS) \
    + (("flat_torus", "TorusField"),)

clock = time.perf_counter


class _Frame:
    __slots__ = ("child", "sid", "rhs")

    def __init__(self, sid):
        self.child = 0.0
        self.sid = sid
        self.rhs = None


class Tracer:
    def __init__(self):
        self.job = None
        self.spans = []        # (id, name, start, end, parent, job, key)
        self.span_info = {}    # id -> result facts recorded by hooks
        self.leaves = collections.defaultdict(lambda: [0, 0.0])
        self.self_time = collections.defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()
        self._patches = []

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if stack is not self._main and self._main:
            return self._main[-1]
        return None

    # -- wrappers ----------------------------------------------------------

    def span(self, name, layer, fn, key=None, hook=None):
        tracer = self

        def wrapped(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            frame = _Frame(next(tracer._ids))
            stack.append(frame)
            t0 = clock()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                info = {"ok": ok}
                if frame.rhs is not None:
                    info["rhs"] = sum(st[0] for st in frame.rhs)
                if ok and hook is not None:
                    hook(info, args, kwargs, out)
                with tracer._lock:
                    tracer.spans.append(
                        (frame.sid, name, t0, t1,
                         parent.sid if parent else None, tracer.job,
                         key(args) if key else None))
                    tracer.span_info[frame.sid] = info
                    # a span running beside its parent on another thread
                    # cannot have negative self time
                    tracer.self_time[layer] += max(dur - frame.child, 0.0)
                    if parent is not None:
                        parent.child += dur

        wrapped.__wrapped__ = fn
        return wrapped

    def leaf(self, name, layer, fn, per_span=None):
        tracer = self
        stat = self.leaves[name]

        def wrapped(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame(0)
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                with tracer._lock:
                    stat[0] += 1
                    stat[1] += dur
                    tracer.self_time[layer] += dur - frame.child
                    if per_span is not None:
                        per_span[0] += 1
                if stack:
                    stack[-1].child += dur

        wrapped.__wrapped__ = fn
        return wrapped

    def _counted_make_rhs(self, make_rhs):
        tracer = self

        def wrapped(system):
            # each closure belongs to the integrate / poincare_return call
            # that built it, so its calls are also counted on that span
            per_span = [0]
            stack = tracer._stack()
            if stack:
                frame = stack[-1]
                if frame.rhs is None:
                    frame.rhs = []
                frame.rhs.append(per_span)
            name = (f"flow.rhs/{system.surface.kind}/"
                    f"{type(system.field).__name__}")
            return tracer.leaf(name, "flow", make_rhs(system), per_span)

        wrapped.__wrapped__ = make_rhs
        return wrapped

    @staticmethod
    def leaf_overhead_us(calls=100000):
        """Time a leaf wrapper adds to one call, measured on a no-op.

        Traced per-call times of the RHS include this three times: its own
        wrapper and those of the conformal factor and field it calls.
        """
        def noop(*args):
            return None

        wrapped = Tracer().leaf("noop", "noop", noop)
        args = (0, 0.1, 0.2, 0.3, 0.4)
        t0 = clock()
        for _ in range(calls):
            noop(*args)
        bare = clock() - t0
        t0 = clock()
        for _ in range(calls):
            wrapped(*args)
        return 1e6 * (clock() - t0 - bare) / calls

    # -- installation ------------------------------------------------------

    def enable(self):
        for obj, attr, _, new in self._patches:
            setattr(obj, attr, new)

    def disable(self):
        for obj, attr, old, _ in self._patches:
            setattr(obj, attr, old)

    def install(self):
        """Build the wrappers and record where they go; then ``enable``
        puts them in place and ``disable`` restores the originals."""
        import magsurf
        from magsurf import (bundle, cli, critical, fields, flow, orbits,
                             regions, surfaces)
        modules = (cli, flow, orbits, regions, critical, bundle, fields,
                   surfaces)
        patches = self._patches = []

        def rebind(old, new):
            for mod in modules + (magsurf,):
                for attr, val in vars(mod).items():
                    if val is old:
                        patches.append((mod, attr, old, new))

        def kind_of(args):
            return args[0].surface.kind

        def evolve_hook(info, args, kwargs, out):
            info["iterations"] = out.iterations
            info["outcome"] = out.outcome

        def contact_hook(info, args, kwargs, out):
            nb, _, nf = out.grid
            info["points"] = nb * nb * nf

        spans = [
            (flow, "integrate", "flow", kind_of, None),
            (flow, "poincare_return", "flow", kind_of, None),
            (flow, "trajectory_curvature", "flow", None, None),
            (flow, "trajectory_energies", "flow", None, None),
            (orbits, "shoot_periodic", "orbits", kind_of, None),
            (orbits, "descend_to_critical", "orbits", None, None),
            (orbits, "orbit_radius", "orbits", None, None),
            (regions, "tau_estimate", "regions", None, None),
            (regions, "evolve_minimize", "regions", None, evolve_hook),
            (critical, "c0_upper_bound", "critical", None, None),
            (critical, "c_h_value", "critical", None, None),
            (bundle, "contact_candidate_min", "bundle", None, contact_hook),
            (bundle, "homogeneous_candidate", "bundle", None, None),
            (bundle, "torus_exact_candidate", "bundle", None, None),
            (fields, "local_primitive", "fields", None, None),
            (fields, "flux_total", "fields", None, None),
            (cli, "main", "cli", None, None),
        ]
        for mod, attr, layer, key, hook in spans:
            old = getattr(mod, attr)
            rebind(old, self.span(f"{mod.__name__[8:]}.{attr}", layer, old,
                                  key, hook))
        commands = dict(cli._COMMANDS)
        for command, fn in cli._COMMANDS.items():
            commands[command] = self.span(f"cli.{fn.__name__}", "cli", fn)
        patches.append((cli, "_COMMANDS", cli._COMMANDS, commands))
        leaves = [
            (orbits, "discrete_action_gradient", "orbits"),
            (orbits, "discrete_action", "orbits"),
            (regions, "resample_curve", "regions"),
            (regions, "curve_is_simple", "regions"),
            (regions, "curve_geometry", "regions"),
        ]
        for mod, attr, layer in leaves:
            old = getattr(mod, attr)
            rebind(old, self.leaf(f"{mod.__name__[8:]}.{attr}", layer, old))
        rebind(flow.make_rhs, self._counted_make_rhs(flow.make_rhs))
        for cls in (surfaces.FlatTorus, surfaces.RoundSphere,
                    surfaces.HyperbolicPlane, surfaces.ConformalTorus):
            old = vars(cls)["conformal"]
            patches.append((cls, "conformal", old, self.leaf(
                f"surfaces.conformal/{cls.kind}", "surfaces", old)))
        for cls in (fields.ConstantField, fields.TorusField):
            old = vars(cls)["eval"]
            patches.append((cls, "eval", old, self.leaf(
                f"fields.eval/{cls.__name__}", "fields", old)))

    # -- results -----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, job, key in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "job": job, "key": key,
                    **self.span_info.get(sid, {})}) + "\n")

    def metrics(self):
        """Per-layer metrics over everything traced so far."""
        by_name = collections.defaultdict(list)
        for rec in self.spans:
            by_name[rec[1]].append(rec)
        parents = {rec[0]: rec for rec in self.spans}
        info = self.span_info

        def total(name, key=None):
            return sum(r[3] - r[2] for r in by_name[name]
                       if key is None or r[6] == key)

        def calls(name):
            return len(by_name[name])

        def leaf_sum(prefix, idx):
            return sum(st[idx] for n, st in self.leaves.items()
                       if n == prefix or n.startswith(prefix + "/"))

        def per_call_us(prefix):
            n = leaf_sum(prefix, 0)
            return 1e6 * leaf_sum(prefix, 1) / n if n else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        def under(rec, ancestor):
            parent = rec[4]
            while parent is not None:
                prec = parents.get(parent)
                if prec is None:
                    return False
                if prec[1] == ancestor:
                    return True
                parent = prec[4]
            return False

        m = {}
        # flow
        returns = by_name["flow.poincare_return"]
        rhs_in_returns = sum(info[r[0]].get("rhs", 0) for r in returns)
        m["flow.rhs_calls"] = leaf_sum("flow.rhs", 0)
        for kind in SURFACE_KINDS:
            m[f"flow.rhs_us.{kind}"] = per_call_us(f"flow.rhs/{kind}")
        for kind, fcls in RHS_PAIRS:
            m[f"flow.rhs_us.{kind}.{fcls}"] = per_call_us(
                f"flow.rhs/{kind}/{fcls}")
        m["flow.return_calls"] = len(returns)
        m["flow.return_ms"] = 1e3 * ratio(total("flow.poincare_return"),
                                          len(returns))
        m["flow.rhs_per_return"] = ratio(rhs_in_returns, len(returns))
        m["flow.integrate_calls"] = calls("flow.integrate")
        for kind in SURFACE_KINDS:
            recs = [r for name in ("flow.integrate", "flow.poincare_return")
                    for r in by_name[name] if r[6] == kind]
            steps = sum(info[r[0]].get("rhs", 0) for r in recs) / 4.0
            busy = sum(r[3] - r[2] for r in recs)
            m[f"flow.steps_per_s.{kind}"] = ratio(steps, busy)
        m["flow.curvature_s"] = total("flow.trajectory_curvature")
        # surfaces and fields
        m["surfaces.conformal_calls"] = leaf_sum("surfaces.conformal", 0)
        for kind in SURFACE_KINDS:
            m[f"surfaces.conformal_us.{kind}"] = per_call_us(
                f"surfaces.conformal/{kind}")
        m["fields.eval_calls"] = leaf_sum("fields.eval", 0)
        for fcls in FIELD_CLASSES:
            m[f"fields.eval_us.{fcls}"] = per_call_us(f"fields.eval/{fcls}")
        m["fields.primitive_builds"] = calls("fields.local_primitive")
        m["fields.primitive_build_s"] = total("fields.local_primitive")
        m["fields.flux_total_s"] = total("fields.flux_total")
        # orbits
        shoots = by_name["orbits.shoot_periodic"]
        m["orbits.shoot_calls"] = len(shoots)
        m["orbits.shoot_s"] = total("orbits.shoot_periodic")
        m["orbits.returns_per_shoot"] = ratio(
            sum(1 for r in returns if under(r, "orbits.shoot_periodic")),
            len(shoots))
        m["orbits.shoot_converged_ratio"] = ratio(
            sum(1 for r in shoots if info[r[0]]["ok"]), len(shoots))
        m["orbits.descend_calls"] = calls("orbits.descend_to_critical")
        m["orbits.descend_s"] = total("orbits.descend_to_critical")
        m["orbits.gradient_calls"] = leaf_sum(
            "orbits.discrete_action_gradient", 0)
        m["orbits.gradient_us"] = per_call_us(
            "orbits.discrete_action_gradient")
        m["orbits.action_calls"] = leaf_sum("orbits.discrete_action", 0)
        # regions
        evolves = by_name["regions.evolve_minimize"]
        taus = by_name["regions.tau_estimate"]
        iters = sum(info[r[0]].get("iterations", 0) for r in evolves)
        m["regions.tau_s"] = total("regions.tau_estimate")
        m["regions.evolves_per_tau"] = ratio(
            sum(1 for r in evolves if under(r, "regions.tau_estimate")),
            len(taus))
        m["regions.evolve_calls"] = len(evolves)
        m["regions.evolve_iters"] = iters
        m["regions.evolve_iter_us"] = 1e6 * ratio(
            total("regions.evolve_minimize"), iters)
        m["regions.evolve_useful_ratio"] = ratio(
            sum(1 for r in evolves if info[r[0]].get("outcome")
                in ("stationary", "vanished")), len(evolves))
        m["regions.simple_checks"] = leaf_sum("regions.curve_is_simple", 0)
        m["regions.simple_check_ms"] = 1e-3 * per_call_us(
            "regions.curve_is_simple")
        m["regions.resample_calls"] = leaf_sum("regions.resample_curve", 0)
        # critical and bundle
        m["critical.c0_calls"] = calls("critical.c0_upper_bound")
        m["critical.c0_s"] = total("critical.c0_upper_bound")
        contacts = by_name["bundle.contact_candidate_min"]
        m["bundle.contact_calls"] = len(contacts)
        m["bundle.contact_s"] = total("bundle.contact_candidate_min")
        m["bundle.points_per_s"] = ratio(
            sum(info[r[0]].get("points", 0) for r in contacts),
            m["bundle.contact_s"])
        # cli
        m["cli.command_s"] = total("cli.main")
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_time.get(layer, 0.0)
        return m
