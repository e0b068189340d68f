"""Spans around the public functions of gapsum's modules, and the
per-layer metrics derived from them.

The wrappers replace module attributes, so internal calls that go through
module globals (``sums`` -> ``engine.gap_blocks``, ``triple_row_sum`` ->
``tuple_singular``, ``cli`` -> ``checkpoint.save``) show as nested spans.
Calls inside worker processes run private functions and are not traced.
A generator is traced one step at a time, so a step's span covers only the
time spent producing that item, not the caller's work on it.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from types import ModuleType

import numpy as np

LAYERS = ("cli", "verify", "sums", "singular", "checkpoint", "engine")

# Span fields: layer, name, start, end, parent index (-1 at the top), extra.
LAYER, NAME, START, END, PARENT, EXTRA = range(6)


class Recorder:
    """Keeps spans in memory; ``spans`` is written out when the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = [-1]

    def open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, name, time.perf_counter(), 0.0, self._stack[-1], None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, extra: dict | None = None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[EXTRA] = extra
        self._stack.pop()

    def wrap_module(self, module: ModuleType, layer: str) -> None:
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            if inspect.isgeneratorfunction(fn):
                setattr(module, name, self._wrap_generator(fn, layer))
            else:
                setattr(module, name, self._wrap_function(fn, layer))

    def _wrap_function(self, fn, layer: str):
        name = fn.__name__
        sig = inspect.signature(fn) if layer == "engine" else None

        def traced(*args, **kwargs):
            idx = self.open(layer, name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                arguments = sig.bind(*args, **kwargs).arguments if sig else {}
                self.close(idx, _call_extra(layer, name, arguments, result))

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, layer: str):
        name = fn.__name__
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return self._steps(layer, name, fn(*args, **kwargs), bound.arguments)

        traced.__wrapped__ = fn
        return traced

    def _steps(self, layer: str, name: str, gen, arguments: dict):
        last_end = None
        try:
            while True:
                idx = self.open(layer, name)
                extra = None
                try:
                    item = next(gen)
                except StopIteration:
                    return
                else:
                    extra = _yield_extra(item)
                    last_end = getattr(item, "seg_end", last_end)
                finally:
                    self.close(idx, extra)
                yield item
        finally:
            idx = self.open(layer, name + ".close")
            try:
                gen.close()
            finally:
                self.close(idx, _pass_extra(name, arguments, last_end))


def _yield_extra(item) -> dict:
    arrays = [item] if isinstance(item, np.ndarray) else [
        v for v in getattr(item, "__dict__", {}).values() if isinstance(v, np.ndarray)
    ]
    extra = {"bytes": sum(a.nbytes for a in arrays)}
    gaps = getattr(item, "gaps", None)
    if gaps is not None:
        extra["gaps"] = len(gaps)
    return extra


def _sieves(limit: int, tuple_list) -> bool:
    """Whether engine.tuple_counts runs its own pass for these tuples."""
    for h in tuple_list:
        offsets = tuple(int(x) for x in getattr(h, "offsets", h))
        if len(offsets) > 1 and not any(x % 2 for x in offsets) and limit >= offsets[-1] + 2:
            return True
    return False


def _pass_extra(name: str, arguments: dict, last_end: int | None) -> dict | None:
    """Pass count and integers sieved for a gap_blocks pass, from where it ended."""
    if name == "gap_blocks" and last_end is not None:
        return {"pass": 1, "sieved": int(last_end) - int(arguments["start_lo"])}
    return None


def _call_extra(layer: str, name: str, arguments: dict, result) -> dict | None:
    if layer == "engine":
        limit = int(arguments.get("limit", 0))
        if name == "prime_count" or (
            name == "tuple_counts" and _sieves(limit, arguments["tuple_list"])
        ):
            return {"pass": 1, "sieved": limit - 2}
    elif layer == "verify":
        reports = result if isinstance(result, list) else [result]
        rows = sum(type(r).__name__ == "VerificationReport" for r in reports)
        return {"rows": rows} if rows else None
    elif layer == "cli" and name == "write_rows" and result is not None:
        return {"out_bytes": os.path.getsize(result)}
    return None


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and counts from a list of spans."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    counts = {"pass": 0, "sieved": 0, "bytes": 0, "rows": 0, "out_bytes": 0}
    terms = 0
    tuple_evals = 0
    saves: list[float] = []
    loads: list[float] = []
    for i, span in enumerate(spans):
        layer, name = span[LAYER], span[NAME]
        dur = span[END] - span[START]
        self_s[layer] += dur - child_time[i]
        parent_layer = spans[span[PARENT]][LAYER] if span[PARENT] >= 0 else None
        if parent_layer != layer:
            calls[layer] += 1
        extra = span[EXTRA] or {}
        for key in counts:
            counts[key] += extra.get(key, 0)
        if parent_layer == "sums":
            terms += extra.get("gaps", 0)
        if name in ("tuple_singular", "pair_singular"):
            tuple_evals += 1
        elif layer == "checkpoint" and name == "save":
            saves.append(dur)
        elif layer == "checkpoint" and name == "load":
            loads.append(dur)

    def per(numerator: float, denominator: float, scale: float) -> float:
        return numerator / denominator * scale if denominator else 0.0

    return {
        "engine.self_s": self_s["engine"],
        "engine.ns_per_int": per(self_s["engine"], counts["sieved"], 1e9),
        "engine.passes": counts["pass"],
        "engine.sieved_int": counts["sieved"],
        "engine.yield_bytes": counts["bytes"],
        "sums.self_s": self_s["sums"],
        "sums.terms": terms,
        "sums.ns_per_term": per(self_s["sums"], terms, 1e9),
        "checkpoint.saves": len(saves),
        "checkpoint.save_s": sum(saves),
        "checkpoint.save_us": statistics.median(saves) * 1e6 if saves else 0.0,
        "checkpoint.loads": len(loads),
        "checkpoint.load_s": sum(loads),
        "singular.calls": calls["singular"],
        "singular.tuple_evals": tuple_evals,
        "singular.self_s": self_s["singular"],
        "verify.calls": calls["verify"],
        "verify.rows": counts["rows"],
        "verify.self_s": self_s["verify"],
        "cli.calls": calls["cli"],
        "cli.out_bytes": counts["out_bytes"],
        "cli.self_s": self_s["cli"],
    }
