"""Spans and counts at linarr's module boundaries, recorded from outside.

Every public function listed in LAYERS is wrapped in each linarr module
that imports it, never in the module that defines it, so a span is exactly
a call that crosses a module boundary.  Field operators are counted, not
timed: a span around a 5-30 us operation would swamp it.  Each operator
call is counted once, by its outermost operator: ``a / b`` is one inv, not
also the multiply inside it, and ``a ** e`` is one pow.  Spans stay in
memory and are written out as JSON lines when the rep ends.
"""

import contextlib
import json
import sys
import time

import linarr

# (defining module, function) -> span name
LAYERS = {
    ("linalg", "nullity"): "linalg.nullity",
    ("linalg", "kernel_vector"): "linalg.kernel_vector",
    ("linalg", "fp_kernel_vector"): "linalg.fp_kernel_vector",
    ("linalg", "flatten_rows"): "linalg.flatten_rows",
    ("linalg", "good_prime"): "linalg.good_prime",
    ("linalg", "lift_flat_vector"): "linalg.lift_flat_vector",
    ("algebra", "multi_exponents"): "algebra.multi_exponents",
    ("algebra", "ziegler_restriction"): "algebra.ziegler_restriction",
    ("algebra", "mdr"): "algebra.mdr",
    ("algebra", "verify_mdr"): "algebra.verify_mdr",
    ("algebra", "supersolvable_exponents"): "algebra.supersolvable_exponents",
    ("projgeo", "build_lattice"): "projgeo.build_lattice",
    ("projgeo", "lattice_isomorphic"): "projgeo.lattice_isomorphic",
    ("projgeo", "apply_transform"): "projgeo.apply_transform",
    ("classify", "modular_points"): "classify.modular_points",
    ("classify", "check_identities"): "classify.check_identities",
    ("wclass", "recover_class"): "wclass.recover_class",
    **{
        ("families", f): "families.generators"
        for f in (
            "full_monomial", "a_of_w", "pencil", "near_pencil",
            "generic_arrangement", "generic_vertex", "adversarial_vertex", "cone",
        )
    },
}

MODULES = ("field", "linalg", "projgeo", "classify", "families", "wclass",
           "algebra", "campaigns", "cli")

# Exact kernel_vector calls wider than this many columns are the fallback
# after the modular certificate gave up (algebra's exact-size threshold).
EXACT_COLS = 40

# Spans that report calls and time; those in SELF also report self time.
TIMED = sorted(set(LAYERS.values()))
SELF = ("algebra.multi_exponents", "algebra.ziegler_restriction", "algebra.mdr",
        "algebra.verify_mdr", "algebra.supersolvable_exponents")
CELLS = ("linalg.nullity", "linalg.kernel_vector", "linalg.fp_kernel_vector")
CAMPAIGNS = sorted(linarr.CAMPAIGNS)

# Field operators counted, by counter name.
FIELD_OPS = {
    "__mul__": "mul", "__rmul__": "mul",
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__truediv__": "inv", "__rtruediv__": "inv",
    "__pow__": "pow",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, attrs)
        self.stack = []
        self.open = {}  # span name -> number of open spans with that name
        self.ops = {"mul": 0, "add": 0, "inv": 0, "pow": 0}
        self._in_op = False  # inside a counted operator
        self._saved = []
        self._cache0 = self._cache1 = None

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        outer = not self.open.get(name)
        self.open[name] = self.open.get(name, 0) + 1
        self.spans.append(None)
        self.stack.append(sid)
        return sid, parent, outer

    def _exit(self, sid, parent, outer, name, start, attrs):
        end = time.perf_counter()
        self.stack.pop()
        self.open[name] -= 1
        attrs["outer"] = outer
        self.spans[sid] = (sid, parent, name, start, end, attrs)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a call into linarr."""
        ids = self._enter(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(*ids, name, start, {})

    def wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            ids = tracer._enter(name)
            attrs = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ArithmeticError:
                attrs["failed"] = True
                raise
            else:
                if name == "linalg.lift_flat_vector":
                    attrs["ok"] = result is not None
                return result
            finally:
                if name in CELLS:
                    rows, ncols = args[0], args[1]
                    attrs["cells"] = len(rows) * ncols
                    if name == "linalg.kernel_vector" and ncols > EXACT_COLS:
                        attrs["wide"] = True
                tracer._exit(*ids, name, start, attrs)

        return wrapper

    def _count(self, counter, fn):
        ops = self.ops
        tracer = self

        def op(a, b):
            if tracer._in_op:
                return fn(a, b)
            ops[counter] += 1
            tracer._in_op = True
            try:
                return fn(a, b)
            finally:
                tracer._in_op = False

        return op

    def install(self):
        for mod_name in MODULES:
            mod = sys.modules[f"linarr.{mod_name}"]
            for attr, value in list(vars(mod).items()):
                home = getattr(value, "__module__", "") or ""
                key = (home.rpartition(".")[2], attr)
                if home.startswith("linarr.") and home != mod.__name__ and key in LAYERS:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, self.wrap(LAYERS[key], value))
        cls = linarr.CycNumber
        for attr, counter in FIELD_OPS.items():
            fn = cls.__dict__[attr]
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, self._count(counter, fn))
        self._cache0 = self._cache_info()

    def uninstall(self):
        self._cache1 = self._cache_info()
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    @staticmethod
    def _cache_info():
        info = getattr(getattr(linarr.field, "_inverse", None), "cache_info", None)
        return info() if info else None

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        calls = {n: 0 for n in TIMED}
        total = {n: 0.0 for n in TIMED}
        self_s = {n: 0.0 for n in SELF}
        cells = {n: 0 for n in CELLS}
        camp = {f"campaigns.{c}": 0.0 for c in CAMPAIGNS}
        child_time = [0.0] * len(self.spans)
        good_prime_failures = wide = lifts_ok = 0
        cli_s = 0.0
        for sid, parent, name, start, end, attrs in self.spans:
            dur = end - start
            if parent is not None:
                child_time[parent] += dur
            if name in calls:
                calls[name] += 1
                if attrs["outer"]:
                    total[name] += dur
            elif name in camp:
                camp[name] += dur
            elif name == "cli.analyze":
                cli_s += dur
            cells_n = attrs.get("cells")
            if cells_n is not None:
                cells[name] += cells_n
            if name == "linalg.good_prime" and attrs.get("failed"):
                good_prime_failures += 1
            wide += bool(attrs.get("wide"))
            lifts_ok += bool(attrs.get("ok"))
        for sid, parent, name, start, end, attrs in self.spans:
            if name in self_s:
                self_s[name] += (end - start) - child_time[sid]

        out["field.mul.count"] = self.ops["mul"]
        out["field.add.count"] = self.ops["add"]
        out["field.inv.count"] = self.ops["inv"]
        out["field.pow.count"] = self.ops["pow"]
        hit_ratio = 0.0
        if self._cache0 is not None:
            hits = self._cache1.hits - self._cache0.hits
            misses = self._cache1.misses - self._cache0.misses
            hit_ratio = hits / (hits + misses) if hits + misses else 0.0
        out["field.inv.hit_ratio"] = hit_ratio
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
        for name in SELF:
            out[f"{name}.self_s"] = self_s[name]
        for name in CELLS:
            out[f"{name}.cells"] = cells[name]
        out["linalg.good_prime.failures"] = good_prime_failures
        lifts = calls["linalg.lift_flat_vector"]
        out["linalg.lift_flat_vector.ok_ratio"] = lifts_ok / lifts if lifts else 0.0
        out["algebra.exact_fallback.count"] = wide
        for name, s in camp.items():
            out[f"{name}.s"] = s
        out["cli.analyze.s"] = cli_s
        return out

    def dump(self, path, stamp):
        """Write the stamp, then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"stamp": stamp}) + "\n")
            for sid, parent, name, start, end, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                rec.update((k, v) for k, v in attrs.items() if k != "outer")
                fh.write(json.dumps(rec) + "\n")
