"""Run one mdg CLI command in this interpreter with span tracing.

    python3 trace_child.py SPANS_JSON ARG...

The public functions of mdg's library modules are replaced, on the
module objects, by wrappers that record a span (name, start, end,
parent); calls between functions of one module go through the module's
globals, so they are caught as well.  Per-element helpers are left
alone, and the three hottest f2 helpers only count their calls.  The
command runs through mdg.cli.main(..., standalone_mode=False); the spans
and counters are kept in memory and written to SPANS_JSON at the end.
"""

import collections
import functools
import json
import sys
import time
import types

import workloads

# Called once per group element or per permutation product: a span each
# would cost more than the work it measures.
PER_ELEMENT = {"groups.commutator", "permgroups.identity_perm", "permgroups.as_perm",
               "permgroups.compose", "permgroups.inverse", "permgroups.is_identity",
               "permgroups.perm_key"}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start_ns, end_ns, parent index or -1]
        self.stack = [-1]
        self.counts = collections.Counter()

    def span(self, name, fn, hook=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _hooks(graph_cls):
    """Counters updated from a traced function's result, by span name,
    plus the hook that counts every Graph a graphs function returns."""
    def size(counter):
        def hook(counts, result):
            counts[counter] += len(result)
        return hook

    def nodes(counts, result):
        counts["autsearch.automorphism_group.nodes"] += result.nodes

    def built(counts, result):
        for g in result if isinstance(result, tuple) else (result,):
            if isinstance(g, graph_cls):
                counts["graphs.vertices_built"] += g.n
                counts["graphs.edges_built"] += g.edge_count()

    return {
        "groups.closure": size("groups.closure.elements"),
        "permgroups.perm_closure": size("permgroups.perm_closure.elements"),
        "autsearch.refine": size("autsearch.refine.cells_out"),
        "autsearch.automorphism_group": nodes,
        "graphs.to_graph6": size("graphs.to_graph6.bytes"),
        "graphs.to_edgelist": size("graphs.to_edgelist.bytes"),
    }, built


def install(tracer, modules, f2, graph_cls):
    """Wrap the public functions of each module in place, and rebind any
    other mdg module global that still names an original function."""
    hooks, built = _hooks(graph_cls)
    replaced = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, fn in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if (not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__
                    or attr.startswith("_") or name in PER_ELEMENT):
                continue
            hook = hooks.get(name, built if short == "graphs" else None)
            replaced[fn] = tracer.span(name, fn, hook)
    for attr in workloads.F2_COUNTED:
        fn = getattr(f2, attr)
        replaced[fn] = tracer.counter(f"f2.{attr}.calls", fn)
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "mdg"]:
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in replaced:
                setattr(mod, attr, replaced[value])


def main():
    spans_path, args = sys.argv[1], sys.argv[2:]
    from mdg import autsearch, cli, f2, graphs, groups, permgroups

    tracer = Tracer()
    install(tracer, (groups, graphs, permgroups, autsearch), f2, graphs.Graph)
    start = time.perf_counter_ns()
    try:
        cli.main(args, standalone_mode=False)
    finally:
        end = time.perf_counter_ns()
        sys.stdout.flush()
        with open(spans_path, "w") as f:
            json.dump({"start_ns": start, "end_ns": end, "spans": tracer.spans,
                       "counts": tracer.counts}, f)


if __name__ == "__main__":
    main()
