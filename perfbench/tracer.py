"""Span tracer for bistrata, installed from outside the program.

``Tracer.install()`` replaces the public functions and methods of the eight
modules of ``bistrata`` by wrappers, in every namespace that binds them
(``from .x import y`` copies a name into the importing module, and the
module-level dicts ``cli.COMMANDS`` and ``verify.SUITES`` hold references
too).  ``uninstall()`` puts every original object back.

Two kinds of wrapper:

* coarse calls (every public function of cli, verify, degrees, strata,
  divisors and collide, and ``product_of``, ``CohClass.divide_exact``,
  ``CohClass.__pow__`` and ``CohClass.from_json``) record a span: name,
  layer, start, end, parent span and job;
* fine ops (``CohClass.__mul__``/``__add__``/``__init__`` and
  ``ParamPoly.__mul__``/``__add__``/``__init__``, about a million per
  strata-heavy pass) are not stored one by one.  Each adds its count and
  self time to the nearest enclosing span, so memory stays bounded.

Self time is a frame's duration minus the durations of its direct
children, so self times partition a job's wall time.  Time spent in code
that is not wrapped (private helpers, ``VarSpec`` methods,
``ParamPoly.__neg__``) counts as self time of the innermost wrapped frame.

Work counters (term pairs, coefficient products, sizes) are exact and
depend only on the calls made, so two traced passes over the same jobs give
identical counters.  Nothing is recorded outside a ``job()`` block.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time

LAYERS = ("cli", "verify", "degrees", "strata", "divisors", "collide", "cohring", "coeffring")
SPAN_MODULES = ("cli", "verify", "degrees", "strata", "divisors", "collide")
COHRING_SPANS = ("divide_exact", "__pow__", "from_json")
OP_NAMES = {"__pow__": "pow", "__mul__": "mul", "__rmul__": "mul", "__add__": "add",
            "__radd__": "add", "__init__": "init"}
MARK = "__perfbench_wrapped__"

# Counters summed over a traced section; the max_* entries take the maximum.
MAX_KEYS = ("cohring.max_terms", "coeffring.max_bits", "coeffring.max_degree")


def _no_counter(args, kwargs, result):
    pass


class Frame:
    """One open call: a span (``span`` set) or a fine op aggregated into ``owner``."""

    __slots__ = ("key", "start", "child", "span", "owner")

    def __init__(self, key, start, span, owner):
        self.key = key
        self.start = start
        self.child = 0.0
        self.span = span
        self.owner = owner


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[Frame] = []
        self.counters: dict[str, float] = {}
        self.patches: list[tuple[object, str, object, bool]] = []
        self.job_id: str | None = None

    # -- recording ---------------------------------------------------------

    def _count(self, key: str, n: float = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _max(self, key: str, value: int):
        if value > self.counters.get(key, -1):
            self.counters[key] = value

    def _open_span(self, name: str, layer: str) -> Frame:
        parent = self.stack[-1].owner["id"] if self.stack else None
        span = {"id": len(self.spans), "name": name, "layer": layer, "parent": parent,
                "job": self.job_id, "ops": {}}
        self.spans.append(span)
        frame = Frame(None, time.perf_counter(), span, span)
        self.stack.append(frame)
        return frame

    def _close(self, frame: Frame):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame.start
        own = duration - frame.child
        if self.stack:
            self.stack[-1].child += duration
        if frame.span is not None:
            frame.span["start"] = frame.start
            frame.span["end"] = end
            frame.span["self"] = own
        else:
            ops = frame.owner["ops"]
            entry = ops.get(frame.key)
            if entry is None:
                ops[frame.key] = [1, own]
            else:
                entry[0] += 1
                entry[1] += own

    @contextlib.contextmanager
    def job(self, job_id: str):
        """Record everything called inside the block under one root span."""
        if self.stack:
            raise RuntimeError("jobs do not nest")
        self.job_id = job_id
        frame = self._open_span("job", "bench")
        try:
            yield
        finally:
            self._close(frame)
            self.job_id = None

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, layer: str, on_call=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            frame = tracer._open_span(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return wrapper

    def _op_wrapper(self, fn, key: str, after):
        """Fine op: aggregated into the enclosing span; ``after`` counts work."""
        tracer = self
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = Frame(key, time.perf_counter(), None, stack[-1].owner)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            after(args, kwargs, result)
            return result

        return wrapper

    # counters of the fine ops -------------------------------------------------

    def _after_coh_mul(self, args, kwargs, result):
        a, b = args
        self._count("cohring.mul.term_pairs", len(a.terms) * len(b.terms))
        self._count("cohring.mul.terms_out", len(result.terms))
        if result.terms:
            self._count("cohring.mul.nonzero")

    def _after_coh_init(self, args, kwargs, result):
        terms = args[3] if len(args) > 3 else kwargs.get("terms", ())
        self._count("cohring.init.terms", len(terms))
        self._max("cohring.max_terms", len(args[0].terms))

    def _after_poly_mul(self, args, kwargs, result):
        a, b = args
        width = len(b.coeffs) if hasattr(b, "coeffs") else (1 if b else 0)
        self._count("coeffring.mul.coeff_products", len(a.coeffs) * width)

    def _after_poly_init(self, args, kwargs, result):
        coeffs = args[0].coeffs
        if coeffs:
            self._max("coeffring.max_degree", len(coeffs) - 1)
            self._max("coeffring.max_bits", max(abs(c).bit_length() for c in coeffs))

    # -- installation --------------------------------------------------------

    def _set(self, target, name: str, value, is_dict: bool):
        original = target[name] if is_dict else (
            target.__dict__[name] if isinstance(target, type) else getattr(target, name))
        self.patches.append((target, name, original, is_dict))
        if is_dict:
            target[name] = value
        else:
            setattr(target, name, value)

    def install(self):
        if self.patches:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"bistrata.{name}") for name in LAYERS}
        package = importlib.import_module("bistrata")
        replace: dict[int, object] = {}  # id(original function) -> wrapper

        for layer in SPAN_MODULES:
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not inspect.isgeneratorfunction(obj):
                        replace[id(obj)] = self._marked(
                            self._span_wrapper(obj, f"{layer}.{name}", layer))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    self._wrap_class_methods(obj, layer)
        coh = mods["cohring"]
        replace[id(coh.product_of)] = self._marked(self._span_wrapper(
            coh.product_of, "cohring.product_of", "cohring",
            lambda args: self._count("cohring.product_of.factors", len(args[0]))))
        self._wrap_coh_class(coh.CohClass)
        self._wrap_param_poly(mods["coeffring"].ParamPoly)

        # every module namespace that binds a wrapped function, and the
        # module-level dicts that hold one
        for mod in [package, *mods.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replace:
                    self._set(mod, name, replace[id(obj)], False)
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and id(value) in replace:
                            self._set(obj, key, replace[id(value)], True)

    def _wrap_class_methods(self, cls, layer: str):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                fn = attr.__func__
                wrapped = type(attr)(self._marked(self._span_wrapper(fn, label, layer)))
            elif inspect.isfunction(attr) and not inspect.isgeneratorfunction(attr):
                wrapped = self._marked(self._span_wrapper(attr, label, layer))
            else:
                continue  # properties and data stay as they are
            self._set(cls, name, wrapped, False)

    def _wrap_coh_class(self, cls):
        for name in COHRING_SPANS:
            attr = vars(cls)[name]
            label = f"cohring.{OP_NAMES.get(name, name)}"
            if isinstance(attr, classmethod):
                wrapped = classmethod(self._marked(self._span_wrapper(attr.__func__, label, "cohring")))
            else:
                wrapped = self._marked(self._span_wrapper(attr, label, "cohring"))
            self._set(cls, name, wrapped, False)
        after = {"__mul__": self._after_coh_mul, "__add__": _no_counter,
                 "__init__": self._after_coh_init}
        for name, hook in after.items():
            op = self._op_wrapper(vars(cls)[name], f"cohring.{OP_NAMES[name]}", hook)
            self._set(cls, name, self._marked(op), False)

    def _wrap_param_poly(self, cls):
        hooks = {"mul": self._after_poly_mul, "add": _no_counter,
                 "init": self._after_poly_init}
        made: dict[int, object] = {}
        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__init__"):
            attr = vars(cls)[name]
            op = OP_NAMES[name]
            if id(attr) not in made:  # __rmul__ is __mul__: one wrapper for both
                made[id(attr)] = self._marked(
                    self._op_wrapper(attr, f"coeffring.{op}", hooks[op]))
            self._set(cls, name, made[id(attr)], False)

    @staticmethod
    def _marked(fn):
        setattr(fn, MARK, True)
        return fn

    def uninstall(self):
        for target, name, original, is_dict in reversed(self.patches):
            if is_dict:
                target[name] = original
            else:
                setattr(target, name, original)
        self.patches.clear()

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Raw sums over everything recorded; combine with ``merge_totals``."""
        out = dict(self.counters)

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for span in self.spans:
            layer, name = span["layer"], span["name"]
            add(f"{layer}.calls", 1)
            add(f"{layer}.self_s", span["self"])
            add("trace.spans", 1)
            if name == "job":
                add("trace.job_s", span["end"] - span["start"])
            elif layer == "cohring":
                op = name.split(".", 1)[1]
                add(f"cohring.{op}.calls", 1)
                add(f"cohring.{op}.self_s", span["self"])
            elif name == "cli.build_parser":
                add("cli.build_parser_s", span["end"] - span["start"])
            elif name == "degrees.gysin_degree":
                add("degrees.gysin_degree.calls", 1)
            for key, (count, own) in span["ops"].items():
                op_layer = key.split(".", 1)[0]
                add(f"{key}.calls", count)
                add(f"{key}.self_s", own)
                add(f"{op_layer}.calls", count)
                add(f"{op_layer}.self_s", own)
        return out


def merge_totals(parts) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key in MAX_KEYS:
                out[key] = max(out.get(key, value), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def exact_counters(totals: dict[str, float]) -> dict[str, float]:
    """The work counters that must repeat exactly: everything but times."""
    return {k: v for k, v in totals.items() if not k.endswith("_s")}


def patched_names() -> list[str]:
    """Names in the bistrata namespaces that still hold a tracer wrapper."""
    found = []
    for name in ("bistrata",) + tuple(f"bistrata.{m}" for m in LAYERS):
        mod = importlib.import_module(name)
        for attr, obj in vars(mod).items():
            if getattr(obj, MARK, False):
                found.append(f"{name}.{attr}")
            elif inspect.isclass(obj):
                for meth, value in vars(obj).items():
                    fn = getattr(value, "__func__", value)
                    if getattr(fn, MARK, False):
                        found.append(f"{name}.{attr}.{meth}")
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in obj.items():
                    if getattr(value, MARK, False):
                        found.append(f"{name}.{attr}[{key!r}]")
    return found


# Hand-derived counts for two_omp_stratum(6, 3): the product has 2 incidences,
# the omp conditions and (q+1)(q+2)/2 = 10 linear factors, so 13 factors and
# 12 products; (F + (d-6)X)^28 by binary powering takes 8 products; each of
# the 10 linear factors is built as ``linear - exceptional.scaled(..)``, one
# addition each.
SELF_TEST_EXPECTED = {
    "cohring.mul.calls": 20,
    "cohring.mul.nonzero": 20,
    "cohring.add.calls": 10,
    "cohring.pow.calls": 1,
    "cohring.product_of.calls": 1,
    "cohring.product_of.factors": 13,
    "strata.calls": 1,
    "divisors.calls": 4,
    "cli.calls": 0,
    "degrees.calls": 0,
}


def self_test() -> list[str]:
    """Trace ``two_omp_stratum(6, 3)`` and compare with known exact counts.

    Returns a list of problems; empty when the tracer is sound.
    """
    strata = importlib.import_module("bistrata.strata")
    problems = []
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.job("self-test"):
            strata.two_omp_stratum(6, 3)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    for key, want in SELF_TEST_EXPECTED.items():
        if totals.get(key, 0) != want:
            problems.append(f"self-test: {key} = {totals.get(key, 0)}, expected {want}")
    parents = {s["id"]: s for s in tracer.spans}
    product = [s for s in tracer.spans if s["name"] == "cohring.product_of"]
    if not product or parents[product[0]["parent"]]["name"] != "strata.two_omp_stratum":
        problems.append("self-test: product_of is not a child of two_omp_stratum")
    covered = sum(v for k, v in totals.items()
                  if k.endswith(".self_s") and k.count(".") == 1)
    if abs(covered - totals["trace.job_s"]) > 1e-6 * max(1.0, totals["trace.job_s"]):
        problems.append(f"self-test: self times sum to {covered}, job took {totals['trace.job_s']}")
    left = patched_names()
    if left:
        problems.append(f"uninstall left wrappers in place: {left[:5]}")
    return problems
