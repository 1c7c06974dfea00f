"""Span recorder for the traced benchmark run, installed around fqlin from outside.

Nothing under ``src/`` changes.  ``install`` replaces each traced function at
every place it is bound: module-level functions in every ``fqlin`` module
whose global refers to the same object (so ``multinomial_coeff`` is patched
in both ``fqlin.series`` and ``fqlin.solvers``), and methods on their class
(``PerfSeries.__mul__``, ``CompSeries.compose``).  ``uninstall`` puts the
originals back.

Each call of a traced function becomes a span: name, start, end, parent span
and the id of the benchmark operation it belongs to.  Spans are kept in
arrays in memory and written out once at the end.  Self time is the span's
duration minus the time its child spans cover.

A ``PerfSeries`` built as the result of ``add``, ``mul``, ``inv`` or
``frobenius`` is part of that operation: its construction (which merges and
sorts the terms) counts in the operation's self time, and ``new`` covers the
series built anywhere else, for example term by term by the parser.

The residue-field methods (``FieldElem.__mul__``, ``inverse``, ``pow_p``)
run about a hundred times per series product, so they are traced as leaf
spans: each call is timed and counted, and its duration is subtracted from
the enclosing span's self time, but the individual spans are not stored.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

perf = time.perf_counter

MODULES = (
    "fqlin",
    "fqlin.fields",
    "fqlin.series",
    "fqlin.carlitz",
    "fqlin.ore",
    "fqlin.solvers",
    "fqlin.textio",
    "fqlin.jsonio",
    "fqlin.cli",
)

# (span name, module, class or None, attribute, kind); kind is "span" or "leaf"
# or, for PerfSeries construction, "new"
TRACED = (
    ("fields.FieldConfig", "fqlin.fields", "FieldConfig", "__init__", "span"),
    ("fields.FieldElem.mul", "fqlin.fields", "FieldElem", "__mul__", "leaf"),
    ("fields.FieldElem.inverse", "fqlin.fields", "FieldElem", "inverse", "leaf"),
    ("fields.FieldElem.pow_p", "fqlin.fields", "FieldElem", "pow_p", "leaf"),
    ("fields.PerfSeries.new", "fqlin.fields", "PerfSeries", "__init__", "new"),
    ("fields.PerfSeries.mul", "fqlin.fields", "PerfSeries", "__mul__", "span"),
    ("fields.PerfSeries.add", "fqlin.fields", "PerfSeries", "__add__", "span"),
    ("fields.PerfSeries.inv", "fqlin.fields", "PerfSeries", "inv", "span"),
    ("fields.PerfSeries.frobenius", "fqlin.fields", "PerfSeries", "frobenius", "span"),
    ("series.CompSeries.compose", "fqlin.series", "CompSeries", "compose", "span"),
    ("series.CompSeries.self_power", "fqlin.series", "CompSeries", "self_power", "span"),
    ("series.CompSeries.eval_at", "fqlin.series", "CompSeries", "eval_at", "span"),
    ("series.growth_certificate", "fqlin.series", None, "growth_certificate", "span"),
    ("series.multinomial_coeff", "fqlin.series", None, "multinomial_coeff", "span"),
    ("carlitz.carlitz_d", "fqlin.carlitz", None, "carlitz_d", "span"),
    ("carlitz.carlitz_delta", "fqlin.carlitz", None, "carlitz_delta", "span"),
    ("carlitz.tau_power", "fqlin.carlitz", None, "tau_power", "span"),
    ("carlitz.bracket", "fqlin.carlitz", None, "bracket", "span"),
    ("ore.invert_unit", "fqlin.ore", None, "invert_unit", "span"),
    ("ore.factor_unit", "fqlin.ore", None, "factor_unit", "span"),
    ("ore.fraction_normalize", "fqlin.ore", None, "fraction_normalize", "span"),
    ("ore.ore_left_multiple", "fqlin.ore", None, "ore_left_multiple", "span"),
    ("solvers.solve_riccati", "fqlin.solvers", None, "solve_riccati", "span"),
    ("solvers.riccati_series", "fqlin.solvers", None, "riccati_series", "span"),
    ("solvers.solve_implicit", "fqlin.solvers", None, "solve_implicit", "span"),
    ("solvers.solve_ode", "fqlin.solvers", None, "solve_ode", "span"),
    ("solvers.normalize_time_change", "fqlin.solvers", None, "normalize_time_change", "span"),
    ("solvers.untransform_ode_solution", "fqlin.solvers", None, "untransform_ode_solution", "span"),
    ("solvers.residual", "fqlin.solvers", None, "residual", "span"),
    ("textio.parse.series", "fqlin.textio", None, "parse_series", "span"),
    ("textio.parse.comp_series", "fqlin.textio", None, "parse_comp_series", "span"),
    ("textio.parse.perf_series", "fqlin.textio", None, "parse_perf_series", "span"),
    ("textio.emit.series", "fqlin.textio", None, "emit_series", "span"),
    ("textio.emit.comp_series", "fqlin.textio", None, "emit_comp_series", "span"),
    ("textio.emit.perf_series", "fqlin.textio", None, "emit_perf_series", "span"),
    ("jsonio.decode.comp_value", "fqlin.jsonio", None, "comp_value", "span"),
    ("jsonio.decode.perf_value", "fqlin.jsonio", None, "perf_value", "span"),
    ("jsonio.decode.series_value", "fqlin.jsonio", None, "series_value", "span"),
    ("jsonio.decode.comp", "fqlin.jsonio", None, "decode_comp", "span"),
    ("jsonio.decode.perf", "fqlin.jsonio", None, "decode_perf", "span"),
    ("jsonio.decode.field", "fqlin.jsonio", None, "decode_field", "span"),
    ("jsonio.decode.implicit", "fqlin.jsonio", None, "decode_implicit", "span"),
    ("jsonio.decode.ode", "fqlin.jsonio", None, "decode_ode", "span"),
    ("jsonio.decode.riccati", "fqlin.jsonio", None, "decode_riccati", "span"),
    ("jsonio.encode.series", "fqlin.jsonio", None, "encode_series", "span"),
    ("jsonio.encode.comp", "fqlin.jsonio", None, "encode_comp", "span"),
    ("jsonio.encode.perf", "fqlin.jsonio", None, "encode_perf", "span"),
    ("jsonio.encode.problem", "fqlin.jsonio", None, "encode_problem", "span"),
    ("jsonio.encode.certificate", "fqlin.jsonio", None, "encode_certificate", "span"),
    ("jsonio.encode.unit_factorization", "fqlin.jsonio", None, "encode_unit_factorization", "span"),
    ("jsonio.encode.normal_form", "fqlin.jsonio", None, "encode_normal_form", "span"),
    ("jsonio.encode.field", "fqlin.jsonio", None, "encode_field", "span"),
    ("jsonio.canonical_dumps", "fqlin.jsonio", None, "canonical_dumps", "span"),
    ("cli.run_command", "fqlin.cli", None, "run_command", "span"),
    ("cli.build_parser", "fqlin.cli", None, "build_parser", "span"),
)


RESULT_OWNERS = tuple(f"fields.PerfSeries.{op}" for op in ("add", "mul", "inv", "frobenius"))


class Recorder:
    """In-memory spans of one traced run plus per-name counters."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.leaves = {}  # name -> [calls, total seconds, self seconds]
        self.counters = {}  # name -> number, filled by the call hooks
        self.op_id = -1
        self._stack = []  # frames [span index or -1, seconds covered by children]
        self._patches = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn, hook=None, inside=()):
        """Wrap fn in a span; calls made directly inside a span named in
        ``inside`` are left to that span."""
        nid = self.name_id(name)
        stack = self._stack
        owners = {self.name_id(n) for n in inside}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if owners and stack and stack[-1][0] >= 0 and self.name[stack[-1][0]] in owners:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.self_time.append(0.0)
            self.name.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op_id)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.self_time[idx] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if hook is not None:
                parent = self.parent[idx]
                hook(self, args, result, None if parent < 0 else self.names[self.name[parent]])
            return result

        return traced

    def leaf(self, name, fn):
        stats = self.leaves.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args):
            frame = [-1, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args)
            finally:
                dur = perf() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def op_span(self, op_id, fn):
        """Run fn as the root span of one benchmark operation."""
        self.op_id = op_id
        try:
            return self.span("bench.op", fn)()
        finally:
            self.op_id = -1

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [sys.modules[m] for m in MODULES]
        for name, mod_name, cls_name, attr, kind in TRACED:
            owner = sys.modules[mod_name]
            if cls_name is not None:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                if kind == "leaf":
                    wrapped = self.leaf(name, original)
                else:
                    wrapped = self.span(name, original, HOOKS.get(name), RESULT_OWNERS if kind == "new" else ())
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self.span(name, original, HOOKS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def summary(self):
        """Per span name: calls, total (inclusive) seconds and self seconds,
        plus counts of spans by (parent name, child name)."""
        by_name = {}
        child_counts = {}
        names = self.names
        for i in range(len(self.start)):
            nm = names[self.name[i]]
            entry = by_name.setdefault(nm, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i]
            entry[2] += self.self_time[i]
            par = self.parent[i]
            if par >= 0:
                key = (names[self.name[par]], nm)
                child_counts[key] = child_counts.get(key, 0) + 1
        for nm, (calls, total, self_s) in self.leaves.items():
            by_name[nm] = [calls, total, self_s]
        return by_name, child_counts

    def write(self, path):
        doc = {
            "names": self.names,
            "columns": ["op", "name", "parent", "start", "end", "self"],
            "spans": [
                [self.op[i], self.name[i], self.parent[i], self.start[i], self.end[i], self.self_time[i]]
                for i in range(len(self.start))
            ],
            "leaves": {nm: {"calls": c, "total_s": t, "self_s": s} for nm, (c, t, s) in self.leaves.items()},
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


# -- call hooks: called after the traced call with the recorder, the call's
# arguments, its result and the name of the parent span --


def _mul_hook(rec, args, result, parent):
    rec.add("fields.PerfSeries.mul.term_pairs", len(args[0].terms) * len(args[1].terms))
    rec.add("fields.PerfSeries.mul.kept_terms", len(result.terms))


def _parse_hook(rec, args, result, parent):
    # count characters once per outermost parse call
    if not (parent or "").startswith("textio.parse"):
        rec.add("textio.parse.chars", len(args[1]))


def _dumps_hook(rec, args, result, parent):
    rec.add("jsonio.canonical_dumps.bytes", len(result))


HOOKS = {
    "fields.PerfSeries.mul": _mul_hook,
    "textio.parse.series": _parse_hook,
    "textio.parse.comp_series": _parse_hook,
    "textio.parse.perf_series": _parse_hook,
    "jsonio.canonical_dumps": _dumps_hook,
}


# -- per-layer metrics --------------------------------------------------------

LAYERS = ("fields", "series", "carlitz", "ore", "solvers", "textio", "jsonio", "cli")


def layer_metrics(setup, ops):
    """Per-layer counts and seconds from the set-up recorder and the recorder
    of the traced pass.  Only spans inside benchmark operations count, except
    for FieldConfig, whose construction is mostly set-up work."""
    by_name, child = ops.summary()
    setup_by_name, _ = setup.summary()
    zero = (0, 0.0, 0.0)

    def calls(name):
        return by_name.get(name, zero)[0]

    def total(name):
        return by_name.get(name, zero)[1]

    def self_s(name):
        return by_name.get(name, zero)[2]

    def group(prefix):
        """Outermost calls and summed self time of spans named prefix.*"""
        names = [n for n in by_name if n.startswith(prefix + ".")]
        nested = sum(n for (par, ch), n in child.items() if par.startswith(prefix + ".") and ch.startswith(prefix + "."))
        return sum(calls(n) for n in names) - nested, sum(self_s(n) for n in names)

    m = {}
    fc = "fields.FieldConfig"
    m[fc + ".calls"] = calls(fc) + setup_by_name.get(fc, zero)[0]
    m[fc + ".self_s"] = self_s(fc) + setup_by_name.get(fc, zero)[2]
    for meth in ("mul", "inverse", "pow_p"):
        m[f"fields.FieldElem.{meth}.calls"] = calls(f"fields.FieldElem.{meth}")
    m["fields.FieldElem.self_s"] = group("fields.FieldElem")[1]
    for meth in ("mul", "add", "inv", "frobenius", "new"):
        m[f"fields.PerfSeries.{meth}.calls"] = calls(f"fields.PerfSeries.{meth}")
        m[f"fields.PerfSeries.{meth}.self_s"] = self_s(f"fields.PerfSeries.{meth}")
    pairs = ops.counters.get("fields.PerfSeries.mul.term_pairs", 0)
    m["fields.PerfSeries.mul.term_pairs"] = pairs
    m["fields.PerfSeries.mul.kept_ratio"] = ops.counters.get("fields.PerfSeries.mul.kept_terms", 0) / pairs if pairs else 0.0

    mc = "series.multinomial_coeff"
    m[mc + ".calls"] = calls(mc)
    m[mc + ".self_s"] = self_s(mc)
    m[mc + ".total_s"] = total(mc)
    m[mc + ".mul_per_call"] = child.get((mc, "fields.PerfSeries.mul"), 0) / calls(mc) if calls(mc) else 0.0
    for meth in ("compose", "self_power", "eval_at"):
        m[f"series.CompSeries.{meth}.calls"] = calls(f"series.CompSeries.{meth}")
        m[f"series.CompSeries.{meth}.self_s"] = self_s(f"series.CompSeries.{meth}")
    m["series.growth_certificate.calls"] = calls("series.growth_certificate")

    for fn in ("carlitz_d", "tau_power", "bracket"):
        m[f"carlitz.{fn}.calls"] = calls(f"carlitz.{fn}")
        m[f"carlitz.{fn}.self_s"] = self_s(f"carlitz.{fn}")

    for fn in ("invert_unit", "factor_unit", "fraction_normalize", "ore_left_multiple"):
        m[f"ore.{fn}.calls"] = calls(f"ore.{fn}")
        m[f"ore.{fn}.self_s"] = self_s(f"ore.{fn}")
    m["ore.invert_unit.compose_calls"] = child.get(("ore.invert_unit", "series.CompSeries.compose"), 0)

    for fn in ("solve_riccati", "solve_implicit", "solve_ode", "normalize_time_change", "untransform_ode_solution"):
        m[f"solvers.{fn}.calls"] = calls(f"solvers.{fn}")
        m[f"solvers.{fn}.self_s"] = self_s(f"solvers.{fn}")
    iters = ops.counters.get("solvers.hensel_iters", 0)
    steps = ops.counters.get("solvers.hensel_steps", 0)
    m["solvers.hensel_iters"] = iters
    m["solvers.hensel_iters_per_step"] = iters / steps if steps else 0.0
    m["solvers.residual.calls"] = calls("solvers.residual")
    m["solvers.residual.total_s"] = total("solvers.residual")

    for kind in ("parse", "emit"):
        m[f"textio.{kind}.calls"], m[f"textio.{kind}.self_s"] = group(f"textio.{kind}")
    m["textio.parse.chars"] = ops.counters.get("textio.parse.chars", 0)
    for kind in ("decode", "encode"):
        m[f"jsonio.{kind}.calls"], m[f"jsonio.{kind}.self_s"] = group(f"jsonio.{kind}")
    m["jsonio.canonical_dumps.bytes"] = ops.counters.get("jsonio.canonical_dumps.bytes", 0)
    m["jsonio.canonical_dumps.self_s"] = self_s("jsonio.canonical_dumps")

    m["cli.build_parser.self_s"] = self_s("cli.build_parser")
    m["cli.run_command.calls"] = calls("cli.run_command")
    m["cli.run_command.total_s"] = total("cli.run_command")

    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = group(layer)[1]
    return m
