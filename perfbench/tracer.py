"""Span tracing of charqa's layers from outside the package.

`Tracer.install()` replaces the public layer functions (in every module
namespace that calls them) with thin wrappers that record a span per call:
name, start, end, parent span and the QA item the call serves. Spans live in
memory; `write()` stores them once, at the end of a run. `uninstall()` puts
the original functions back.

A layer's self time is its spans' total duration minus the part covered by
child spans, so the self times of all spans under one root add up to the
root's wall time.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict

import numpy as np

from charqa import carn, cli, corpus, harness, nn

STACKS = ("enc", "dec_v", "dec_s", "ans")
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def _stack_name(direction):
    return lambda args, kwargs: f"nn.{args[1]}.{direction}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.item: list[int] = []
        self.open: list[int] = []
        self.current_item = -1
        self.next_item = 0
        self.patches: list[tuple[object, str, object]] = []
        self.probe = None  # a hostspeed.SpeedProbe whose time is left out of spans
        # Counts taken at the same boundaries as the spans.
        self.tokens = {"qa": [], "subtitle": [], "visual": []}
        self.visual_stream_lengths: list[int] = []
        self.stream_kind: dict[int, tuple[str, list]] = {}
        self.stream_encodes = 0
        self.stream_distinct = 0
        self.stream_seen: set = set()
        self.jsonl_bytes = 0

    # -- spans -----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself; yields its index."""
        idx = self._enter(name)
        try:
            yield idx
        finally:
            self._exit(idx)

    def _enter(self, name, new_item=False):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.open[-1] if self.open else -1)
        if new_item:
            self.current_item = self.next_item
            self.next_item += 1
        self.item.append(self.current_item)
        self.end.append(0.0)
        self.open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx, end_item=False):
        self.end[idx] = time.perf_counter()
        self.open.pop()
        if end_item:
            self.current_item = -1

    def wrap(self, owner, attr, name, new_item=False, after=None, before=None):
        """Replace owner.attr by a span-recording wrapper. `name` is a string
        or a function of (args, kwargs); `before`/`after` record counts."""
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = tracer._enter(name if isinstance(name, str) else name(args, kwargs),
                                new_item)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._exit(idx, new_item)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, orig))

    # -- counters --------------------------------------------------------

    def _in_forward_item(self):
        return any(self.names[i] == "carn.forward_item" for i in reversed(self.open))

    def _stream_made(self, kind):
        def after(args, kwargs, result):
            toks = result[0]
            if kind == "visual":
                self.visual_stream_lengths.append(len(toks))
            if self._in_forward_item():
                # The list object itself is what forward_item hands to
                # prepare_sequence; keeping it alive keeps its id unique.
                self.stream_kind[id(toks)] = (kind, toks)
        return after

    def _sequence_prepared(self, args, kwargs, result):
        tokens, flags = args[2], args[3]
        kind, _ = self.stream_kind.pop(id(tokens), ("qa", None))  # else a candidate
        self.tokens[kind].append(len(tokens))
        if kind != "qa":
            self.stream_encodes += 1
            key = (kind, tuple(tokens), tuple(flags))
            if key not in self.stream_seen:
                self.stream_seen.add(key)
                self.stream_distinct += 1

    def _params_fixed_scope(self, *args):
        # Encoding a stream again is avoidable only while the parameters do
        # not change: a new scope starts at every optimizer step and at the
        # start of every evaluation.
        self.stream_seen = set()

    def _forward_item_done(self, args, kwargs, result):
        self.stream_kind.clear()

    def _corpus_written(self, args, kwargs, result):
        self.jsonl_bytes += os.path.getsize(args[1])

    # -- installation ----------------------------------------------------

    def install(self):
        w = self.wrap
        w(nn, "stack_forward", _stack_name("fwd"))
        w(nn, "stack_backward", _stack_name("bwd"))
        w(nn.Adam, "step", "nn.adam", before=self._params_fixed_scope)
        w(carn, "prepare_sequence", "carn.prepare_sequence", after=self._sequence_prepared)
        w(carn, "embed_backward", "carn.embed_backward")
        w(carn, "qa_stream", "carn.qa_stream")
        w(carn, "subtitle_stream", "carn.subtitle_stream", after=self._stream_made("subtitle"))
        w(carn, "visual_stream", "semantics.stream", after=self._stream_made("visual"))
        w(cli, "visual_stream", "semantics.stream", after=self._stream_made("visual"))
        w(cli, "subtitle_stream", "carn.subtitle_stream")
        w(carn.Model, "forward_item", "carn.forward_item", after=self._forward_item_done)
        w(carn.Model, "backward_item", "carn.backward_item")
        w(carn.Model, "name_assignments", "carn.name_assignments")
        w(carn.Model, "item_loss_and_grads", "carn.item", new_item=True)
        w(carn.Model, "score", "carn.item", new_item=True)
        w(carn, "naming_forward", "naming.forward")
        w(carn, "naming_backward", "naming.backward")
        w(carn, "rkl_loss_with_grad", "naming.rkl")
        for mod in (carn, harness):
            w(mod, "broadcast_targets", "naming.broadcast_targets")
        for mod in (harness, cli):
            w(mod, "clip_view", "corpus.clip_view")
            w(mod, "count_speakers", "castlist.count_speakers")
            w(mod, "build_cast_list", "castlist.build_cast_list")
        for mod in (corpus, cli):
            w(mod, "generate_corpus", "corpus.generate")
            w(mod, "write_corpus", "corpus.write", after=self._corpus_written)
            w(mod, "read_corpus", "corpus.read")
        w(harness, "train", "harness.train")
        w(harness, "evaluate", "harness.evaluate", before=self._params_fixed_scope)
        w(harness, "ablate", "harness.ablate")
        w(cli, "main", "cli.main")
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches.clear()

    # -- results ---------------------------------------------------------

    def times(self):
        """Span starts and ends on a clock that stops while a probe runs."""
        start, end = np.asarray(self.start), np.asarray(self.end)
        if self.probe is not None:
            start, end = self.probe.exclude(start), self.probe.exclude(end)
        return start, end

    def self_times(self):
        """Per-name totals: calls, inclusive durations, self time."""
        start, end = self.times()
        dur = end - start
        child = np.zeros_like(dur)
        parents = np.asarray(self.parent)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        by_name = defaultdict(list)
        for i, n in enumerate(self.names):
            by_name[n].append(i)
        out = {}
        for n, idx in by_name.items():
            out[n] = {"calls": len(idx), "self_s": float(own[idx].sum()),
                      "durations": dur[idx]}
        return out

    def write(self, path, header):
        """One header line, then one [name, start, end, parent, item] per span."""
        start, end = self.times()
        t0 = start[0] if len(start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, n in enumerate(self.names):
                fh.write(json.dumps([n, round(float(start[i] - t0), 7),
                                     round(float(end[i] - t0), 7),
                                     self.parent[i], self.item[i]]) + "\n")


def tail_percentile(durations):
    """Highest candidate percentile with at least ten calls beyond it:
    (percentile, value) or (0.0, 0.0) when there are too few calls."""
    n = len(durations)
    for pct in TAIL_CANDIDATES:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            return pct, float(np.percentile(durations, pct))
    return 0.0, 0.0


def _mean(values):
    return float(np.mean(values)) if values else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float, wait_s: float, untraced_wall_s: float):
    """The per-layer metric dict (name -> (value, unit)) of one traced run.
    The walls are the steady seconds (hostspeed.py) of the timed phases of
    the traced and the untraced unit; their ratio is the tracing overhead."""
    st = tracer.self_times()
    empty = {"calls": 0, "self_s": 0.0, "durations": np.zeros(0)}

    def get(name):
        return st.get(name, empty)

    m = {}
    for stack in STACKS:
        for direction in ("fwd", "bwd"):
            key = f"nn.{stack}.{direction}"
            s = get(key)
            d = s["durations"]
            _, tail = tail_percentile(d)
            m[f"{key}.calls"] = (s["calls"], "count")
            m[f"{key}.self_s"] = (s["self_s"], "s")
            m[f"{key}.p50_us"] = (float(np.percentile(d, 50)) * 1e6 if len(d) else 0.0, "us")
            m[f"{key}.ptail_us"] = (tail * 1e6, "us")
    m["nn.adam.calls"] = (get("nn.adam")["calls"], "count")
    m["nn.adam.self_s"] = (get("nn.adam")["self_s"], "s")

    for name in ("prepare_sequence", "forward_item", "name_assignments"):
        m[f"carn.{name}.calls"] = (get(f"carn.{name}")["calls"], "count")
        m[f"carn.{name}.self_s"] = (get(f"carn.{name}")["self_s"], "s")
    m["carn.embed_backward.self_s"] = (get("carn.embed_backward")["self_s"], "s")
    m["carn.backward_item.self_s"] = (get("carn.backward_item")["self_s"], "s")
    for kind in ("qa", "subtitle", "visual"):
        m[f"carn.tokens.{kind}_mean"] = (_mean(tracer.tokens[kind]), "tokens")
    items = get("carn.forward_item")["calls"]
    m["carn.enc_per_item"] = (get("nn.enc.fwd")["calls"] / items if items else 0.0, "count")
    m["carn.stream_encode_unique_ratio"] = (
        tracer.stream_distinct / tracer.stream_encodes if tracer.stream_encodes else 0.0,
        "ratio")

    for name in ("forward", "backward", "rkl"):
        m[f"naming.{name}.calls"] = (get(f"naming.{name}")["calls"], "count")
        m[f"naming.{name}.self_s"] = (get(f"naming.{name}")["self_s"], "s")
    m["naming.broadcast_targets.self_s"] = (get("naming.broadcast_targets")["self_s"], "s")
    m["naming.forward_per_item"] = (
        get("naming.forward")["calls"] / items if items else 0.0, "count")

    m["semantics.stream.calls"] = (get("semantics.stream")["calls"], "count")
    m["semantics.stream.self_s"] = (get("semantics.stream")["self_s"], "s")
    m["semantics.tokens_per_stream"] = (_mean(tracer.visual_stream_lengths), "tokens")

    for name in ("generate", "write", "read"):
        m[f"corpus.{name}_s"] = (get(f"corpus.{name}")["self_s"], "s")
    m["corpus.jsonl_mb"] = (tracer.jsonl_bytes / 1e6, "MB")
    m["corpus.clip_view.calls"] = (get("corpus.clip_view")["calls"], "count")
    m["corpus.clip_view.self_s"] = (get("corpus.clip_view")["self_s"], "s")

    m["castlist.build_s"] = (get("castlist.count_speakers")["self_s"]
                             + get("castlist.build_cast_list")["self_s"], "s")

    m["harness.train.self_s"] = (get("harness.train")["self_s"], "s")
    m["harness.evaluate.calls"] = (get("harness.evaluate")["calls"], "count")
    m["harness.evaluate.self_s"] = (get("harness.evaluate")["self_s"], "s")
    m["harness.wait_s"] = (wait_s, "s")

    m["trace.spans"] = (len(tracer.names), "count")
    m["trace.wall_s"] = (traced_wall_s, "s")
    m["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    m["trace.overhead_pct"] = (
        (traced_wall_s / untraced_wall_s - 1.0) * 100.0 if untraced_wall_s else 0.0, "%")
    return m


def format_table(tracer: Tracer) -> str:
    """Self time per span name, largest first, with its share of the traced
    wall (the summed duration of the root spans)."""
    st = tracer.self_times()
    rows = sorted(st.items(), key=lambda kv: -kv[1]["self_s"])
    total = sum(v["self_s"] for v in st.values())
    start, end = tracer.times()
    roots = np.asarray(tracer.parent) < 0
    wall = float((end[roots] - start[roots]).sum())
    lines = [f"{'span':<30} {'calls':>8} {'self_s':>10} {'share':>7} {'us/call':>10}"]
    for name, v in rows:
        per = v["self_s"] / v["calls"] * 1e6 if v["calls"] else 0.0
        lines.append(f"{name:<30} {v['calls']:>8} {v['self_s']:>10.4f} "
                     f"{v['self_s'] / wall:>7.1%} {per:>10.1f}")
    lines.append(f"{'sum of self times':<30} {'':>8} {total:>10.4f} {total / wall:>7.1%}")
    lines.append(f"{'traced wall (root spans)':<30} {'':>8} {wall:>10.4f}")
    for stack in STACKS:
        for direction in ("fwd", "bwd"):
            d = st.get(f"nn.{stack}.{direction}", {"durations": ()})["durations"]
            if len(d):
                pct, tail = tail_percentile(d)
                lines.append(f"nn.{stack}.{direction}: {len(d)} calls, p50 "
                             f"{np.percentile(d, 50) * 1e6:.1f} us, p{pct:g} {tail * 1e6:.1f} us")
    return "\n".join(lines)
