"""Span tracer for the swiptsim benchmark.

The tracer lives outside the package: ``install()`` replaces each layer's
cross-module entry points with a timing wrapper at every module binding
(``swiptsim.ofdm.synthesize_waveforms`` and the copy imported into
``swiptsim.experiments`` are two bindings of one function), so calls are
seen whichever module makes them.  Spans are kept in memory, one stack per
thread, and summarized by ``summarize()`` after the run.

A span is ``(id, name, parent_id, t_start, t_end, t_done, attrs)``.
``t_done`` follows the attribute bookkeeping (hashing inputs, counting
samples), which is charged to neither the span nor its parent.  Spans
opened by a worker thread with an empty stack take the innermost open span
of the main thread as parent, which is the ``sweep`` call that fed the
pool.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import os
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("ofdm", "pa", "dpd", "companding", "channel", "harvester",
          "link", "experiments", "cli")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _n_samples(x) -> int:
    return int(np.size(getattr(x, "samples", x)))


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if isinstance(p, np.ndarray):
            p = np.ascontiguousarray(p)
            h.update(str((p.dtype, p.shape)).encode())
            h.update(memoryview(p).cast("B"))
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _synth_attrs(args, kwargs, result):
    grids = np.asarray(_arg(args, kwargs, 0, "grids"), dtype=np.complex128)
    cfg = _arg(args, kwargs, 1, "cfg")
    symbols = grids.size // grids.shape[-1] if grids.ndim else 0
    return {"symbols": symbols, "key": _digest(cfg, grids)}


def _papr_attrs(args, kwargs, result):
    key = (_arg(args, kwargs, 0, "cfg"), _arg(args, kwargs, 1, "n_trials"),
           _arg(args, kwargs, 2, "seed"))
    return {"key": _digest(key)}


def _scenario_attrs(args, kwargs, result):
    import dataclasses

    s = _arg(args, kwargs, 0, "s")
    return {"key": _digest(dataclasses.replace(s, name="")), "trials": int(s.trials)}


def _sweep_attrs(args, kwargs, result):
    return {"threads": int(_arg(args, kwargs, 3, "threads", 1))}


def _csv_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _samples_at(pos, name):
    def attrs(args, kwargs, result):
        return {"samples": _n_samples(_arg(args, kwargs, pos, name))}
    return attrs


# span name -> (bindings "module:attribute", attribute recorder or None);
# bindings absent from the program are skipped, so a renamed function
# leaves its metrics at zero instead of breaking the run
WRAPS = {
    "ofdm.synthesize": (("ofdm:synthesize_waveforms", "experiments:synthesize_waveforms",
                         "dpd:synthesize_waveforms"), _synth_attrs),
    "ofdm.papr_samples": (("ofdm:papr_samples", "companding:papr_samples",
                           "cli:papr_samples"), _papr_attrs),
    "ofdm.demodulate": (("ofdm:ofdm_demodulate", "link:ofdm_demodulate"), None),
    "ofdm.map_bits": (("ofdm:map_bits", "experiments:map_bits"), None),
    "companding.compress": (("companding:compress_waveform", "experiments:compress_waveform",
                             "cli:compress_waveform"), _samples_at(0, "waveform")),
    "companding.expand": (("companding:expand_waveform", "link:expand_waveform"), None),
    "companding.papr_reduction": (("companding:companded_papr_reduction",
                                   "cli:companded_papr_reduction"), None),
    "companding.optimize_mu": (("companding:optimize_mu", "cli:optimize_mu"), None),
    "dpd.design": (("dpd:design_from_scratch", "experiments:design_from_scratch",
                    "cli:design_from_scratch"), None),
    "dpd.amplitude_chain": (("dpd:_amplitude_chain", "experiments:_amplitude_chain"), None),
    "pa.am_am": (("pa:PaModel.am_am",), _samples_at(1, "magnitude")),
    "channel.sample": (("channel:sample_channel", "experiments:sample_channel"), None),
    "channel.apply": (("channel:apply_channel", "experiments:apply_channel"),
                      _samples_at(0, "signal")),
    "channel.subcarrier_gains": (("channel:subcarrier_gains", "link:subcarrier_gains"), None),
    "link.power_split": (("link:power_split", "experiments:power_split"),
                         _samples_at(0, "signal")),
    "link.demodulate": (("link:demodulate_and_ber", "experiments:demodulate_and_ber"), None),
    "harvester.eta3": (("harvester:eta3", "link:eta3", "experiments:eh_curve_eta3"),
                       _samples_at(1, "p_in_dbm")),
    "experiments.run_scenario": (("experiments:run_scenario", "cli:run_scenario"),
                                 _scenario_attrs),
    "experiments.sweep": (("experiments:sweep", "cli:sweep"), _sweep_attrs),
    "experiments.write_csv": (("experiments:write_csv", "cli:write_csv"), _csv_attrs),
    "cli.main": (("cli:main",), None),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.attr_errors = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            extra = None
            if attrs is not None:
                try:
                    extra = attrs(args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError, OSError):
                    tracer.attr_errors += 1
            tracer.spans.append((sid, name, parent, t0, t1, clock(), extra))
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every binding in WRAPS; returns the bindings not found."""
        missing = []
        for name, (bindings, attrs) in WRAPS.items():
            wrapped: dict[int, object] = {}
            for binding in bindings:
                mod_name, _, path = binding.partition(":")
                try:
                    owner = importlib.import_module(f"swiptsim.{mod_name}")
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    missing.append(binding)
                    continue
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(name, fn, attrs)
                setattr(owner, attr, wrapped[id(fn)])
        return missing


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics from a list of span tuples (see module docstring)."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[2] in by_id:
            children[s[2]].append(s)

    def self_time(s) -> float:
        t0, t1 = s[3], s[4]
        covered = [(max(c[3], t0), min(c[5], t1)) for c in children[s[0]]]
        return (t1 - t0) - _union_length([iv for iv in covered if iv[1] > iv[0]])

    def has_ancestor(s, name) -> bool:
        p = by_id.get(s[2])
        while p is not None:
            if p[1] == name:
                return True
            p = by_id.get(p[2])
        return False

    named = defaultdict(list)
    for s in spans:
        named[s[1]].append(s)

    def calls(name):
        return float(len(named[name]))

    def self_s(name):
        return float(sum(self_time(s) for s in named[name]))

    def total_s(name):
        return float(sum(s[4] - s[3] for s in named[name]))

    def attr_sum(name, key):
        return float(sum((s[6] or {}).get(key, 0) for s in named[name]))

    def unique_ratio(name):
        keys = [(s[6] or {}).get("key") for s in named[name]]
        return len(set(keys)) / len(keys) if keys else 0.0

    roots = named["cli.main"]
    wall = sum(s[4] - s[3] for s in roots)

    m: dict[str, float] = {}
    m["ofdm.synthesize.calls"] = calls("ofdm.synthesize")
    m["ofdm.synthesize.self_s"] = self_s("ofdm.synthesize")
    m["ofdm.synthesize.symbols"] = attr_sum("ofdm.synthesize", "symbols")
    m["ofdm.synthesize.unique_ratio"] = unique_ratio("ofdm.synthesize")
    m["ofdm.papr_samples.calls"] = calls("ofdm.papr_samples")
    m["ofdm.papr_samples.self_s"] = self_s("ofdm.papr_samples")
    m["ofdm.papr_samples.unique_ratio"] = unique_ratio("ofdm.papr_samples")
    m["ofdm.demodulate.calls"] = calls("ofdm.demodulate")
    m["ofdm.demodulate.self_s"] = self_s("ofdm.demodulate")
    m["ofdm.map_bits.self_s"] = self_s("ofdm.map_bits")
    m["companding.compress.calls"] = calls("companding.compress")
    m["companding.compress.self_s"] = self_s("companding.compress")
    m["companding.compress.samples"] = attr_sum("companding.compress", "samples")
    m["companding.expand.self_s"] = self_s("companding.expand")
    m["companding.papr_reduction.calls"] = calls("companding.papr_reduction")
    m["companding.optimize_mu.total_s"] = total_s("companding.optimize_mu")
    m["dpd.design.calls"] = calls("dpd.design")
    m["dpd.design.total_s"] = total_s("dpd.design")
    m["dpd.design.chain_evals"] = float(sum(
        1 for s in named["dpd.amplitude_chain"] if has_ancestor(s, "dpd.design")))
    m["dpd.amplitude_chain.self_s"] = self_s("dpd.amplitude_chain")
    m["pa.am_am.calls"] = calls("pa.am_am")
    m["pa.am_am.self_s"] = self_s("pa.am_am")
    m["pa.am_am.samples"] = attr_sum("pa.am_am", "samples")
    m["channel.sample.calls"] = calls("channel.sample")
    m["channel.apply.self_s"] = self_s("channel.apply")
    m["channel.apply.samples"] = attr_sum("channel.apply", "samples")
    m["channel.subcarrier_gains.self_s"] = self_s("channel.subcarrier_gains")
    m["link.power_split.calls"] = calls("link.power_split")
    m["link.power_split.self_s"] = self_s("link.power_split")
    m["link.power_split.samples"] = attr_sum("link.power_split", "samples")
    m["link.demodulate.calls"] = calls("link.demodulate")
    m["link.demodulate.self_s"] = self_s("link.demodulate")
    m["harvester.eta3.calls"] = calls("harvester.eta3")
    m["harvester.eta3.self_s"] = self_s("harvester.eta3")
    m["harvester.eta3.samples"] = attr_sum("harvester.eta3", "samples")
    m["experiments.run_scenario.calls"] = calls("experiments.run_scenario")
    m["experiments.run_scenario.self_s"] = self_s("experiments.run_scenario")
    m["experiments.run_scenario.unique_ratio"] = unique_ratio("experiments.run_scenario")
    m["experiments.frames"] = attr_sum("experiments.run_scenario", "trials")
    m["experiments.write_csv.self_s"] = self_s("experiments.write_csv")
    m["experiments.write_csv.bytes"] = attr_sum("experiments.write_csv", "bytes")

    busy = capacity = 0.0
    for s in named["experiments.sweep"]:
        busy += sum(c[4] - c[3] for c in children[s[0]] if c[1] == "experiments.run_scenario")
        capacity += (s[4] - s[3]) * (s[6] or {}).get("threads", 1)
    m["experiments.sweep.parallel_eff"] = busy / capacity if capacity > 0 else 0.0

    m["cli.self_s"] = self_s("cli.main")
    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s[1].partition(".")[0]] += self_time(s)
    for layer in LAYERS:
        m[f"{layer}.share"] = layer_self[layer] / wall if wall > 0 else 0.0
    m["trace.wall_s"] = wall
    return m
