"""Span recorder that times dtvertex functions from outside the package.

Each traced function is replaced by a wrapper in every loaded dtvertex
module that bound the original object, so a name imported with
`from .forms import compute_weight` into series, omega, orientation,
cache and cli reaches the same wrapper as calls inside forms itself.
Spans are kept in memory as [name, start, end, parent index, run id];
a span's self time is its duration minus that of its direct children.
"""

import functools
import sys
import time

# (module, attribute, span name or None for "<module>.<attribute>",
#  (count name, function of (result, args) giving the count) or None)
TRACED = [
    ("forms", "euler_class", None, ("factors", lambda r, a: len(r.factors))),
    ("forms", "sqrt_form_product", None, None),
    ("forms", "taut_factor", None, None),
    ("forms", "specialize", None, None),
    ("forms", "omega_from_specialized", None, None),
    ("forms", "compute_weight", None, None),
    ("forms", "vertex_fingerprint", None, None),
    ("ratpoly", "poly_gcd", None, None),
    ("kclass", "vertex", None, ("terms", lambda r, a: len(r.terms))),
    ("kclass", "cy_reduce", None, None),
    ("kclass", "cy_fixed_part", None, None),
    ("kclass", "check_key_conjecture", None, None),
    ("partitions", "enumerate_partitions", None, ("items", lambda r, a: len(r))),
    ("partitions", "canonical_representatives", None, None),
    ("partitions", "canonicalize_axes", None, None),
    ("omega", "omega_c", None, None),
    ("omega", "check_exp_identity", None, None),
    ("cache", "WeightCache.__init__", "cache.load",
     ("records_loaded", lambda r, a: len(a[0].records))),
    ("cache", "WeightCache.get_weight", "cache.get_weight", None),
    ("cache", "WeightCache.append", "cache.append", None),
    ("cache", "weight_from_record", None, None),
    ("series", "build_z_4k", None, None),
    ("series", "target_4k", None, None),
    ("cli", "_prepare_weights", None, None),
    ("cli", "_render", None, None),
]


class Tracer:
    """In-memory spans and counts for one CLI invocation (one run id)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = {}
        self._stack = []

    def wrap(self, fn, name, counter=None):
        spans, stack, counts, run_id = self.spans, self._stack, self.counts, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                key = name + "." + counter[0]
                counts[key] = counts.get(key, 0) + counter[1](result, args)
            return result

        return traced

    def install(self, package="dtvertex"):
        """Wrap every TRACED function and rebind it at each import site."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for mod_name, attr, span_name, counter in TRACED:
            owner = sys.modules[package + "." + mod_name]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self.wrap(original, span_name or mod_name + "." + attr, counter)
            setattr(owner, path[-1], wrapper)
            if len(path) == 1:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def summary(self):
        """Per span name: calls, total_s, self_s; plus counts and parent edges.

        `edges` maps "parent>child" span names to the number of child
        spans directly under such a parent.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        edges = {}
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
                edge = spans[parent][0] + ">" + name
                edges[edge] = edges.get(edge, 0) + 1
        stats = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_s[i]
        return {"run_id": self.run_id, "spans": stats, "counts": self.counts, "edges": edges}
