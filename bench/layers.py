"""Per-layer tracing of the library from outside it.

``Tracer.install`` puts the benchmark's own wrappers around the layer
boundary functions listed in ``SPANNED`` and ``LEAVES``: a function is
replaced in every ``spindeq`` module namespace that binds it (so
``quantum.product`` and ``grassmann.product`` are both caught), a method at
class level.  ``uninstall`` puts the originals back.  Nothing in the library
changes.

Inside an operation (between ``begin_op`` and ``end_op``) each spanned call
records a span: name, start, end, parent span and operation id, kept in
memory and written out by ``write_spans``.  A span's self time is its
duration minus the part of it that its child spans cover.  Hot leaves are
counted, not spanned: ``CRational`` arithmetic is also timed as one bucket
(``exact``), which is subtracted from the enclosing span's self time like a
child, and ``Multivector.__init__`` is only counted.  Outside an operation
the wrappers only pass calls through, so correctness checks are not traced.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

from spindeq import cli, cpi, exact, grassmann, orbit, quantum, suite, superfield, symbols

ROOT = "op"
EXACT = "exact"


def _product_sizes(counts, args, kwargs, result):
    a, b = args
    counts["grassmann.product.pairs"] += len(a.terms) * len(b.terms)
    counts["grassmann.product.terms_out"] += len(result.terms)


def _slices(counts, args, kwargs, result):
    counts["quantum.sliced_symbol.slices"] += args[2] if len(args) > 2 else kwargs["n"]


def _basis(counts, args, kwargs, result):
    counts["cpi.closure_matrix.basis"] += len(result[0])


def _report_bytes(counts, args, kwargs, result):
    counts["cli.report_bytes"] += os.path.getsize(args[1])


# (span name, owner, attribute, extra counter).  The owner is a module for a
# function and a class for a method.
SPANNED = (
    ("grassmann.product", grassmann, "product", _product_sizes),
    ("grassmann.substitute", grassmann.Multivector, "substitute", None),
    ("grassmann.operator_apply", grassmann.GrassmannOperator, "apply", None),
    ("grassmann.berezin", grassmann, "berezin_integral", None),
    ("symbols.parse", symbols, "parse", None),
    ("symbols.parse", symbols.SymbolContext, "parse", None),
    ("symbols.mul", symbols.GradedPolynomial, "__mul__", None),
    ("symbols.substitute", symbols, "substitute", None),
    ("superfield.dequantize", superfield, "dequantize", None),
    ("superfield.supertime_integral", superfield, "supertime_integral", None),
    ("quantum.compose_symbols", quantum, "compose_symbols", None),
    ("quantum.sliced_symbol", quantum, "sliced_symbol", _slices),
    ("cpi.build_cpi_hamiltonian", cpi, "build_cpi_hamiltonian", None),
    ("cpi.closure_matrix", cpi.LiouvilleOperator, "closure_matrix", _basis),
    ("cpi.evolve", cpi, "evolve", None),
    ("cpi.expm", cpi, "expm", None),
    ("cpi.characteristics_check", cpi, "characteristics_check", None),
    ("orbit.dirac_bracket", orbit, "dirac_bracket", None),
    ("suite.run_all", suite, "run_all", None),
    ("cli.main", cli, "main", None),
    ("cli.report_write", cli.RunReport, "write", _report_bytes),
)

# (counter name, class, method names, timed into the ``exact`` bucket)
LEAVES = (
    (
        "exact.ops",
        exact.CRational,
        (
            "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
        ),
        True,
    ),
    ("grassmann.multivector.new", grassmann.Multivector, ("__init__",), False),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # open spans: [id, name, start, covered by children]
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.total_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._in_leaf = False
        self._restore: list[tuple] = []

    # -- spans --------------------------------------------------------------------

    def _open(self, name: str) -> None:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span_id = len(self.span_start)
        start = time.perf_counter()
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_start.append(start)
        self.span_end.append(start)
        self.stack.append([span_id, name, start, 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, name, start, covered = self.stack.pop()
        self.span_end[span_id] = end
        duration = end - start
        self.self_time[name] += duration - covered
        self.total_time[name] += duration
        if self.stack:
            self.stack[-1][3] += duration

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._open(ROOT)

    def end_op(self) -> None:
        self._close()
        self.op = None

    # -- wrappers -----------------------------------------------------------------

    def _spanned(self, name, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                tracer.counts[name + ".calls"] += 1
                if extra is not None:
                    extra(tracer.counts, args, kwargs, result)
                return result
            finally:
                tracer._close()

        return wrapper

    def _leaf(self, name, fn, timed):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            tracer.counts[name] += 1
            if not timed or tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._in_leaf = False
                tracer.self_time[EXACT] += duration
                if tracer.stack:
                    tracer.stack[-1][3] += duration

        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "spindeq" or module_name.startswith("spindeq.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _replace_method(self, cls, attr, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, extra in SPANNED:
            original = vars(owner)[attr]
            wrapped = self._spanned(name, original, extra)
            if isinstance(owner, type):
                self._replace_method(owner, attr, wrapped)
            else:
                self._replace_everywhere(original, wrapped)
        for name, cls, attrs, timed in LEAVES:
            for attr in attrs:
                self._replace_method(cls, attr, self._leaf(name, cls.__dict__[attr], timed))
        # run_all tells seeded groups apart by identity against the module
        # globals, so each group is wrapped once and that wrapper replaces the
        # function both in ALL_CHECKS and in every namespace.
        groups = []
        for group, fn in suite.ALL_CHECKS:
            wrapped = self._spanned(f"suite.group.{group}", fn, None)
            self._replace_everywhere(fn, wrapped)
            groups.append((group, wrapped))
        self._replace_everywhere(suite.ALL_CHECKS, tuple(groups))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                handle.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Counts and self times summed over every traced operation."""
        c, s = self.counts, self.self_time
        pairs = c["grassmann.product.pairs"]
        out = {
            "exact.ops": c["exact.ops"],
            "exact.self_s": s[EXACT],
            "grassmann.product.calls": c["grassmann.product.calls"],
            "grassmann.product.pairs": pairs,
            "grassmann.product.yield": c["grassmann.product.terms_out"] / pairs if pairs else 0.0,
            "grassmann.product.self_s": s["grassmann.product"],
            "grassmann.multivector.new": c["grassmann.multivector.new"],
            "grassmann.substitute.self_s": s["grassmann.substitute"],
            "grassmann.operator_apply.self_s": s["grassmann.operator_apply"],
            "grassmann.berezin.self_s": s["grassmann.berezin"],
            "symbols.parse.self_s": s["symbols.parse"],
            "symbols.mul.calls": c["symbols.mul.calls"],
            "symbols.mul.self_s": s["symbols.mul"],
            "symbols.substitute.self_s": s["symbols.substitute"],
            "superfield.dequantize.calls": c["superfield.dequantize.calls"],
            "superfield.dequantize.self_s": s["superfield.dequantize"],
            "superfield.supertime_integral.self_s": s["superfield.supertime_integral"],
            "quantum.compose_symbols.calls": c["quantum.compose_symbols.calls"],
            "quantum.compose_symbols.self_s": s["quantum.compose_symbols"],
            "quantum.sliced_symbol.slices": c["quantum.sliced_symbol.slices"],
            "quantum.sliced_symbol.self_s": s["quantum.sliced_symbol"],
            "cpi.build_cpi_hamiltonian.self_s": s["cpi.build_cpi_hamiltonian"],
            "cpi.closure_matrix.calls": c["cpi.closure_matrix.calls"],
            "cpi.closure_matrix.basis": c["cpi.closure_matrix.basis"],
            "cpi.closure_matrix.self_s": s["cpi.closure_matrix"],
            "cpi.evolve.self_s": s["cpi.evolve"],
            "cpi.expm.calls": c["cpi.expm.calls"],
            "cpi.expm.self_s": s["cpi.expm"],
            "cpi.characteristics_check.self_s": s["cpi.characteristics_check"],
            "orbit.dirac_bracket.calls": c["orbit.dirac_bracket.calls"],
            "orbit.dirac_bracket.self_s": s["orbit.dirac_bracket"],
        }
        for group, _fn in suite.ALL_CHECKS:
            out[f"suite.group.{group}_s"] = self.total_time[f"suite.group.{group}"]
        # cli.main minus suite.run_all: the report write is cli work too.
        out["cli.self_s"] = s["cli.main"] + self.total_time["cli.report_write"]
        out["cli.report_bytes"] = c["cli.report_bytes"]
        return out
