"""Span tracer for the traced benchmark run, installed from outside the package.

Each target function is replaced by a wrapper under every name it is bound
to in the package: module globals (``algebra`` holds ``phase`` through
``from .epsring import phase``, ``cli`` holds ``solve_minimal_s2`` and
``emit_rep_json`` the same way) and class attributes (``EpsScalar.__rmul__``
is the same function object as ``__mul__``).  A wrapper opens a span,
calls the original, and closes the span; recursive calls (``fold``) nest.

Spans live in memory as parallel arrays (name, start, end, parent, op id)
and are written out by :meth:`Tracer.write_spans`.  Per-layer metrics are
aggregated as spans close:

- ``calls``: spans closed under a name;
- busy time (``*_ms``): time covered by at least one span of that name, so
  a recursive call is not counted twice;
- self time (``*_self_ms``): a span's duration minus its child spans.

Sized spans (representation builds, residuals, documents) carry the size
class ``.n<N>`` in their name, N the smallest power of two >= n (at least
16).
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional

REPS_SIZES = (16, 32, 64, 128, 256, 512)
EMIT_SIZES = (16, 32, 64, 128)


def size_class(n: int) -> int:
    return max(16, 1 << (int(n) - 1).bit_length())


# size and counter hooks -------------------------------------------------------


def _arg_n(i):
    return lambda args, result: args[i]


def _spec_n(args, result):
    return args[0].n


def _mat_n(i):
    return lambda args, result: args[i].u.shape[0]


def _doc_n(args, result):
    doc = args[0]
    if isinstance(doc, dict) and "matrices" in doc:
        return doc["n"]
    return None  # a CLI result document, not a representation


def _result_n(args, result):
    return None if result is None else result.u.shape[0]


def _scalar_growth(tracer, args, result, n):
    c = tracer.counters
    degree = len(result.num) - 1
    if degree > c["epsring.max_degree"]:
        c["epsring.max_degree"] = degree
    if result.den_pow > c["epsring.max_den_pow"]:
        c["epsring.max_den_pow"] = result.den_pow


def _nf_product(tracer, args, result, n):
    if not hasattr(result, "terms"):
        return  # NotImplemented: Python tries the reflected operand next
    c = tracer.counters
    left, right = args
    width = len(right.terms) if hasattr(right, "terms") else 1
    c["algebra.term_pairs"] += len(left.terms) * width
    bits = c["epsring.max_coeff_bits"]
    for xi in result.terms.values():
        for q in xi.num:
            bits = max(bits, q.re.numerator.bit_length(),
                       q.re.denominator.bit_length(),
                       q.im.numerator.bit_length(),
                       q.im.denominator.bit_length())
    c["epsring.max_coeff_bits"] = bits


def _candidates(tracer, args, result, n):
    tracer.counters["classify.enum_candidates"] += len(result)


def _json_bytes(tracer, args, result, n):
    key = f"emit.json_bytes.n{size_class(n)}"
    tracer.counters[key] = tracer.counters.get(key, 0) + len(result)


def _stdout_bytes(tracer, args, result, n):
    getvalue = getattr(sys.stdout, "getvalue", None)
    if getvalue is not None:
        tracer.counters["cli.stdout_bytes"] += len(getvalue())


class Target(NamedTuple):
    module: str
    qualname: str
    span: str
    size: Optional[Callable] = None
    hook: Optional[Callable] = None


_E, _A, _P, _R = ("spheretorus.epsring", "spheretorus.algebra",
                  "spheretorus.parser", "spheretorus.reps")
_M, _C, _G, _L = ("spheretorus.emit", "spheretorus.classify",
                  "spheretorus.geometry", "spheretorus.cli")

TARGETS = (
    Target(_E, "EpsScalar.__mul__", "epsring.mul", hook=_scalar_growth),
    Target(_E, "EpsScalar.__add__", "epsring.add", hook=_scalar_growth),
    Target(_E, "EpsScalar.__pow__", "epsring.pow"),
    Target(_E, "phase", "epsring.phase"),
    Target(_A, "NormalForm.__mul__", "algebra.nf_mul", hook=_nf_product),
    Target(_A, "NormalForm.adjoint", "algebra.adjoint"),
    Target(_P, "parse", "parser.parse"),
    Target(_P, "fold", "parser.fold"),
    Target(_R, "build_s2", "reps.build", _spec_n),
    Target(_R, "build_t2_finite", "reps.build", _spec_n),
    Target(_R, "build_t2_window", "reps.build", _spec_n),
    Target(_R, "build_fuzzy_sphere", "reps.build", _arg_n(0)),
    Target(_R, "build_nc_torus", "reps.build", _arg_n(0)),
    Target(_R, "verify_relations", "reps.verify", _mat_n(0)),
    Target(_R, "fuzzy_sphere_residuals", "reps.verify", _mat_n(0)),
    Target(_R, "nc_torus_residuals", "reps.verify", _arg_n(2)),
    Target(_R, "check_irreducible", "reps.irreducible", _mat_n(0)),
    Target(_R, "rep_evaluate", "reps.evaluate", _mat_n(1)),
    Target(_M, "rep_document", "emit.document", _mat_n(0)),
    Target(_M, "nc_torus_document", "emit.document", _arg_n(2)),
    Target(_M, "render_json", "emit.render", _doc_n),
    Target(_M, "render_json_compact", "emit.render"),
    Target(_M, "load_rep_json", "emit.load", _result_n),
    Target(_M, "emit_rep_json", "emit.json", _mat_n(0), _json_bytes),
    Target(_M, "emit_nc_torus_json", "emit.json", _arg_n(2), _json_bytes),
    Target(_M, "emit_sweep_csv", "emit.csv"),
    Target(_M, "emit_diagram_svg", "emit.svg"),
    Target(_C, "solve_minimal_s2", "classify.solve_min"),
    Target(_C, "enumerate_s2_nonminimal", "classify.enum", hook=_candidates),
    Target(_C, "t2_beta_window", "classify.window"),
    Target(_C, "classify_region", "classify.region"),
    Target(_C, "sweep_regions", "classify.sweep"),
    Target(_G, "slice_curve", "geometry.slice"),
    Target(_G, "topology_of", "geometry.topology"),
    Target(_L, "main", "cli.main", hook=_stdout_bytes),
)

_COUNTERS = ("epsring.max_degree", "epsring.max_den_pow",
             "epsring.max_coeff_bits", "algebra.term_pairs",
             "classify.enum_candidates", "cli.stdout_bytes")


# metric table -----------------------------------------------------------------

def _metric_table():
    """(metric, unit, kind, span-or-counter) for every per-layer metric."""
    rows = [
        ("epsring.mul_calls", "count", "calls", "epsring.mul"),
        ("epsring.mul_ms", "ms", "busy", "epsring.mul"),
        ("epsring.add_calls", "count", "calls", "epsring.add"),
        ("epsring.add_ms", "ms", "busy", "epsring.add"),
        ("epsring.pow_ms", "ms", "busy", "epsring.pow"),
        ("epsring.phase_calls", "count", "calls", "epsring.phase"),
        ("epsring.phase_ms", "ms", "busy", "epsring.phase"),
        ("epsring.max_degree", "count", "counter", "epsring.max_degree"),
        ("epsring.max_den_pow", "count", "counter", "epsring.max_den_pow"),
        ("epsring.max_coeff_bits", "bits", "counter", "epsring.max_coeff_bits"),
        ("algebra.nf_mul_calls", "count", "calls", "algebra.nf_mul"),
        ("algebra.nf_mul_self_ms", "ms", "self", "algebra.nf_mul"),
        ("algebra.term_pairs", "count", "counter", "algebra.term_pairs"),
        ("algebra.adjoint_ms", "ms", "busy", "algebra.adjoint"),
        ("parser.parse_ms", "ms", "busy", "parser.parse"),
        ("parser.fold_self_ms", "ms", "self", "parser.fold"),
    ]
    for stage in ("build", "verify", "irreducible", "evaluate"):
        rows += [(f"reps.{stage}_ms.n{n}", "ms", "busy", f"reps.{stage}.n{n}")
                 for n in REPS_SIZES]
    for stage in ("document", "render", "load"):
        rows += [(f"emit.{stage}_ms.n{n}", "ms", "busy", f"emit.{stage}.n{n}")
                 for n in EMIT_SIZES]
    rows += [(f"emit.json_bytes.n{n}", "bytes", "counter", f"emit.json_bytes.n{n}")
             for n in EMIT_SIZES]
    rows += [
        ("emit.render_ms.cli", "ms", "busy", "emit.render"),
        ("emit.csv_ms", "ms", "busy", "emit.csv"),
        ("emit.svg_ms", "ms", "busy", "emit.svg"),
        ("classify.solve_min_ms", "ms", "busy", "classify.solve_min"),
        ("classify.enum_ms", "ms", "busy", "classify.enum"),
        ("classify.enum_candidates", "count", "counter", "classify.enum_candidates"),
        ("classify.window_ms", "ms", "busy", "classify.window"),
        ("classify.region_ms", "ms", "busy", "classify.region"),
        ("classify.sweep_ms", "ms", "busy", "classify.sweep"),
        ("geometry.slice_ms", "ms", "busy", "geometry.slice"),
        ("geometry.topology_ms", "ms", "busy", "geometry.topology"),
        ("cli.main_self_ms", "ms", "self", "cli.main"),
        ("cli.stdout_bytes", "bytes", "counter", "cli.stdout_bytes"),
    ]
    return rows


METRICS = _metric_table()
METRIC_UNITS = {name: unit for name, unit, _, _ in METRICS}


class Tracer:
    """Wrappers, in-memory spans and per-pass aggregates."""

    def __init__(self):
        self._patched: List[tuple] = []
        self.op_id = -1
        self.reset()

    def reset(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self._child: List[float] = []
        self._depth: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.busy: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.counters: Dict[str, float] = dict.fromkeys(_COUNTERS, 0)

    # installation -------------------------------------------------------------

    def install(self) -> None:
        """Bind a wrapper at every site that holds a target function."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "spheretorus" or name.startswith("spheretorus.")]
        owners = []
        for mod in modules:
            owners.append(mod)
            owners += [v for v in vars(mod).values()
                       if isinstance(v, type)
                       and getattr(v, "__module__", "").startswith("spheretorus")]
        for target in TARGETS:
            owner = sys.modules[target.module]
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, target)
            for site in owners:
                for name, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, name, wrapper)
                        self._patched.append((site, name, original))

    def uninstall(self) -> None:
        for site, name, original in reversed(self._patched):
            setattr(site, name, original)
        self._patched.clear()

    # spans --------------------------------------------------------------------

    def _name(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, target: Target):
        base, size_fn, hook = target.span, target.size, target.hook
        tracer = self

        def wrapper(*args, **kwargs):
            t = tracer
            stack, child, depth = t._stack, t._child, t._depth
            idx = len(t.span_start)
            t.span_parent.append(stack[-1] if stack else -1)
            t.span_op.append(t.op_id)
            t.span_name.append(-1)
            t.span_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            depth[base] = depth.get(base, 0) + 1
            result = None
            start = perf_counter()
            t.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                inner = child.pop()
                duration = end - start
                if child:
                    child[-1] += duration
                n = None if size_fn is None else size_fn(args, result)
                name = base if n is None else f"{base}.n{size_class(n)}"
                t.span_name[idx] = t._name(name)
                t.span_end[idx] = end
                t.calls[name] = t.calls.get(name, 0) + 1
                t.self_time[name] = t.self_time.get(name, 0.0) + duration - inner
                depth[base] -= 1
                if not depth[base]:
                    t.busy[name] = t.busy.get(name, 0.0) + duration
                if hook is not None and result is not None:
                    hook(t, args, result, n)

        wrapper.__wrapped__ = fn
        return wrapper

    # results ------------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        out = {}
        for name, _, kind, key in METRICS:
            if kind == "calls":
                out[name] = self.calls.get(key, 0)
            elif kind == "busy":
                out[name] = self.busy.get(key, 0.0) * 1e3
            elif kind == "self":
                out[name] = self.self_time.get(key, 0.0) * 1e3
            else:
                out[name] = self.counters.get(key, 0)
        return out

    def write_spans(self, path: str) -> None:
        """One line per span: name, op id, parent span, start and end in us
        from the first span's start."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\top\tparent\tstart_us\tend_us\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_op[i]}\t{self.span_parent[i]}\t"
                         f"{(self.span_start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.span_end[i] - t0) * 1e6:.1f}\n")
