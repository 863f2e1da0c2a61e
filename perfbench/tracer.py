"""Span tracing of surfgroups from outside the program.

For the length of a traced run, `Tracer.install` replaces every public
function and method of each layer module (plus the operators listed in
OPERATORS) by a wrapper that records one span: name, parent, start, end.
The replacement is made wherever a caller looks the name up: the module, the
class, and any other surfgroups module or the package `__init__` that holds
the same object.  `Tracer.uninstall` puts every original back.  Nothing in
the program itself is edited.

Spans are kept in memory as a flat array of doubles, four per span, so that a
signal raised by a deadline can never leave the fields of a span misaligned,
and are written out by `Tracer.dump` when the run ends.
"""
from __future__ import annotations

import array
import json
import time
import types
from pathlib import Path

LAYERS = ("words", "klein", "torusbraid", "embeddings", "abelian", "dims", "cli")

# Dunder methods that are part of a class's public behaviour.
OPERATORS = frozenset({"__mul__", "__pow__", "__call__", "__contains__", "__str__"})

# Per-layer metric names, mapped to the span names of the functions they cover.
ALIASES = {
    "words.mul": ("words.FreeWord.__mul__",),
    "words.parse": ("words.parse_word",),
    "words.oracle": ("words.oracle_normal_form",),
    "torusbraid.mul": ("torusbraid.B2TElement.__mul__",),
    "torusbraid.conj": ("torusbraid.conjugate_by_sigma",),
    "torusbraid.pow": ("torusbraid.B2TElement.__pow__",),
    "torusbraid.from_word": ("torusbraid.from_word",),
    "klein.mul": ("klein.KleinElement.__mul__",),
    "klein.mcg_compose": ("klein.mcg_compose",),
    "embeddings.phi1": ("embeddings.phi1",),
    "embeddings.closed_form": ("embeddings.phi1_closed_form",),
    "embeddings.ball": ("embeddings.certify_injectivity_ball",),
    "embeddings.lift": ("embeddings.lift_configuration",),
    "abelian.snf": ("abelian.smith_normal_form",),
    "abelian.cokernel": ("abelian.cokernel",),
    "abelian.nab": ("abelian.nab_quotient_orientable", "abelian.nab_quotient_nonorientable"),
    "dims.query": ("dims.dim_query",),
    "dims.sweep": ("dims.consistency_sweep",),
    "cli.main": ("cli.main",),
    "cli.build_parser": ("cli.build_parser",),
}

_B2T_RESULTS = (
    "torusbraid.B2TElement.__mul__",
    "torusbraid.B2TElement.__pow__",
    "torusbraid.B2TElement.inverse",
    "torusbraid.from_word",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.spans = array.array("d")  # name id, parent index, start, end
        self.stack = [-1]
        self.counts = {
            "words.mul.in_syllables": 0,
            "words.mul.out_syllables": 0,
            "words.oracle.letters_in": 0,
            "torusbraid.conj.letters_in": 0,
            "torusbraid.nf_syllables_max": 0,
        }
        self._patches: list[tuple[object, str, object]] = []

    # -- probes: counts taken where the work happens ---------------------
    def _probe_for(self, name):
        counts = self.counts
        if name == "words.FreeWord.__mul__":
            def probe(args, kwargs, result):
                counts["words.mul.in_syllables"] += len(args[0].syllables) + len(args[1].syllables)
                counts["words.mul.out_syllables"] += len(result.syllables)
            return probe
        if name == "words.oracle_normal_form":
            def probe(args, kwargs, result):
                counts["words.oracle.letters_in"] += _arg(args, kwargs, 1, "w").length()
            return probe
        if name == "torusbraid.conjugate_by_sigma":
            def probe(args, kwargs, result):
                counts["torusbraid.conj.letters_in"] += _arg(args, kwargs, 0, "w").length()
            return probe
        if name in _B2T_RESULTS:
            def probe(args, kwargs, result):
                size = len(result.w.syllables)
                if size > counts["torusbraid.nf_syllables_max"]:
                    counts["torusbraid.nf_syllables_max"] = size
            return probe
        return None

    def _wrap(self, name, fn):
        nid = float(len(self.names))
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        extend = spans.extend
        probe = self._probe_for(name)

        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            depth = len(stack)
            extend((nid, stack[-1], clock(), 0.0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probe(args, kwargs, result)
                return result
            finally:
                spans[4 * idx + 3] = clock()
                del stack[depth:]

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- install / uninstall --------------------------------------------
    def _targets(self):
        """Yield (span name, owner, attribute, original) for every public
        function and method of each layer module."""
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    yield f"{layer}.{attr}", module, attr, obj
                elif (
                    isinstance(obj, type)
                    and obj.__module__ == module.__name__
                    and not issubclass(obj, BaseException)
                ):
                    for mname, member in list(vars(obj).items()):
                        if mname.startswith("_") and mname not in OPERATORS:
                            continue
                        if isinstance(member, (types.FunctionType, classmethod, staticmethod)):
                            yield f"{layer}.{attr}.{mname}", obj, mname, member

    def install(self):
        modules = [self.package] + [getattr(self.package, layer) for layer in LAYERS]
        for name, owner, attr, original in list(self._targets()):
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            # Re-exports and cross-module imports hold the same object.
            holders = [(owner, attr)]
            if isinstance(owner, types.ModuleType):
                holders += [
                    (m, a)
                    for m in modules
                    for a, v in list(vars(m).items())
                    if v is original and (m, a) != (owner, attr)
                ]
            for holder, hattr in holders:
                self._patches.append((holder, hattr, original))
                setattr(holder, hattr, replacement)

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def close_open(self, depth: int) -> None:
        """After an interrupted call: end every span still open above `depth`."""
        now = time.perf_counter()
        spans = self.spans
        for idx in self.stack[depth:]:
            if spans[4 * idx + 3] == 0.0:
                spans[4 * idx + 3] = now
        del self.stack[depth:]

    # -- named spans opened by the benchmark itself ----------------------
    def open(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        idx = len(self.spans) >> 2
        self.spans.extend((float(self.names.index(name)), self.stack[-1], time.perf_counter(), 0.0))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[4 * idx + 3] = time.perf_counter()
        del self.stack[self.stack.index(idx):]

    # -- analysis ---------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds.  Self time
        is a span's duration less the time its child spans cover."""
        spans = self.spans
        n = len(spans) >> 2
        child = array.array("d", bytes(8 * n))
        dur = array.array("d", bytes(8 * n))
        for i in range(n):
            start, end = spans[4 * i + 2], spans[4 * i + 3]
            d = dur[i] = end - start if end >= start else 0.0
            parent = int(spans[4 * i + 1])
            if parent >= 0:
                child[parent] += d
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[int(spans[4 * i])]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        return out

    def dump(self, path: Path) -> None:
        """Write the spans (binary, little-endian doubles) and a JSON index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            self.spans.tofile(fh)
        index = {
            "fields": ["name", "parent", "start_s", "end_s"],
            "dtype": "float64",
            "spans": len(self.spans) >> 2,
            "names": self.names,
            "counts": self.counts,
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1))
