"""Spans around the public functions of mulcalc's modules, recorded from
outside the library.

install() wraps every public function defined in a layer module and puts
the wrapper wherever mulcalc holds the function: in its own module and in
every module that imported it by name.  Nothing under src/ is edited.
A span is (function, start ns, end ns, parent span, operation id); spans
stay in memory until write().  Model closures (ln f, ln f*) and
expression callables are not functions of a module, so their time counts
towards the layer that calls them.
"""

import functools
import sys
import time
import types

LAYERS = ("cli", "functions", "quadrature", "core", "identities", "bounds", "means")

# functions-layer entry points that build a model
BUILDERS = ("make_model", "random_star_convex", "star_model")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.names = []   # function id -> (layer, name)
        self.op = -1
        self.evals = 0
        self.unconverged = 0
        self.mean_keys = set()
        self.mean_models = []  # keeps ids in mean_keys unique within an op
        self.mean_distinct = 0
        self._restore = []

    def begin_op(self):
        self.mean_distinct += len(self.mean_keys)
        self.mean_keys, self.mean_models = set(), []
        self.op += 1

    def _after_integrate(self, args, kwargs, result):
        self.evals += int(getattr(result, "evaluations", 0))
        if not getattr(result, "converged", True):
            self.unconverged += 1

    def _after_mean_log(self, args, kwargs, result):
        model = args[0] if args else kwargs.get("model")
        iv = args[1] if len(args) > 1 else kwargs.get("iv")
        self.mean_keys.add((id(model), getattr(iv, "a", None), getattr(iv, "b", None)))
        self.mean_models.append(model)

    def _wrap(self, fn, fid, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, self.op)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self):
        after = {("quadrature", "integrate"): self._after_integrate,
                 ("core", "mean_log"): self._after_mean_log}
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["mulcalc." + layer]
            for name, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    fid = len(self.names)
                    self.names.append((layer, name))
                    wrappers[id(obj)] = (obj, self._wrap(obj, fid, after.get((layer, name))))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "mulcalc" and not mod_name.startswith("mulcalc."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in self._restore:
            setattr(mod, attr, val)
        self._restore = []

    def metrics(self, ops):
        """Per-layer figures per operation from the recorded spans."""
        self.begin_op()
        spans = self.spans
        layer_of = [layer for layer, _ in self.names]
        child = [0] * len(spans)
        for fid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns = dict.fromkeys(LAYERS, 0)
        entries = dict.fromkeys(LAYERS, 0)
        calls = {}
        build_ns = hypothesis_ns = 0
        for i, (fid, t0, t1, parent, _) in enumerate(spans):
            layer, name = self.names[fid]
            self_ns[layer] += (t1 - t0) - child[i]
            calls[name] = calls.get(name, 0) + 1
            outermost = parent < 0 or layer_of[spans[parent][0]] != layer
            entries[layer] += outermost
            if layer == "functions" and outermost and name in BUILDERS:
                build_ns += t1 - t0
            if name == "is_mul_convex_sampled":
                hypothesis_ns += t1 - t0
        ops = float(ops)
        mean_calls = calls.get("mean_log", 0)
        ms = 1e-6 / ops

        def per_op(x):
            return x / ops

        return {
            "quadrature.calls_per_op": (per_op(entries["quadrature"]), "calls/op"),
            "quadrature.evals_per_op": (per_op(self.evals), "evals/op"),
            "quadrature.self_ms_per_op": (self_ns["quadrature"] * ms, "ms/op"),
            "quadrature.unconverged_calls_per_op": (per_op(self.unconverged), "calls/op"),
            "core.mean_log_calls_per_op": (per_op(mean_calls), "calls/op"),
            "core.mean_log_distinct_ratio": (self.mean_distinct / mean_calls if mean_calls else 0.0,
                                             "ratio"),
            "core.star_values_calls_per_op": (per_op(calls.get("star_values", 0)), "calls/op"),
            "core.self_ms_per_op": (self_ns["core"] * ms, "ms/op"),
            "identities.calls_per_op": (per_op(entries["identities"]), "calls/op"),
            "identities.self_ms_per_op": (self_ns["identities"] * ms, "ms/op"),
            "bounds.calls_per_op": (per_op(entries["bounds"]), "calls/op"),
            "bounds.self_ms_per_op": (self_ns["bounds"] * ms, "ms/op"),
            "functions.build_ms_per_op": (build_ns * ms, "ms/op"),
            "functions.hypothesis_ms_per_op": (hypothesis_ns * ms, "ms/op"),
            "means.self_ms_per_op": (self_ns["means"] * ms, "ms/op"),
            "cli.self_ms_per_op": (self_ns["cli"] * ms, "ms/op"),
        }

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("op,span,parent,function,start_ns,end_ns\n")
            for i, (fid, t0, t1, parent, op) in enumerate(self.spans):
                layer, name = self.names[fid]
                fh.write("%d,%d,%d,%s.%s,%d,%d\n" % (op, i, parent, layer, name, t0, t1))
