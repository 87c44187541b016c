"""In-memory span tracer that wraps lobexec's public functions from outside.

Nothing inside ``src/`` is changed. `install` replaces each traced callable
where it is looked up -- a class attribute, or every ``lobexec`` module
namespace that imported the function -- with a wrapper that records a span
(name, start, end, parent), and restores the originals on exit.

Spans live in four flat arrays during the run and are written out once, at
the end, by `Tracer.dump`. Each benchmark command opens a root span named
``bench.command``; every span recorded until the next root belongs to that
command. A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

ROOT = "bench.command"
AGENT_CLASSES = {"noise": "NoiseAgent", "value": "ValueAgent",
                 "momentum": "MomentumAgent", "market_maker": "MarketMakerAgent"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters: list[Counter] = []  # one per command

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n=1) -> None:
        self.counters[-1][key] += n

    def wrap(self, span: str, fn, after=None):
        """fn wrapped in a span; ``after(tracer, args, result)`` runs once the
        call returns, to record counts at the same boundary."""
        nid = self._id(span)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def command(self):
        """Root span around one benchmark command."""
        self.counters.append(Counter())
        idx = len(self.start)
        self.name.append(self._id(ROOT))
        self.parent.append(-1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def dump(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start_ns=start, end_ns=end)


# -- counts recorded at span boundaries ---------------------------------------

def _layer_flops(sizes) -> tuple[int, int]:
    """Matmul flops per row of the MLP: (forward, backward), from its shapes.

    Backward covers every weight gradient plus the input gradients of all
    layers but the first, as ``mlp_backward`` computes them.
    """
    pairs = list(zip(sizes[:-1], sizes[1:]))
    forward = sum(2 * a * b for a, b in pairs)
    backward = forward + sum(2 * a * b for a, b in pairs[1:])
    return forward, backward


def _after_market(tr, args, result):
    tr.count("lob.market_orders")
    tr.count("lob.market_fills", len(result.fills))
    tr.count("lob.market_levels", len({f.price for f in result.fills}))


def _after_cancel(tr, args, result):
    tr.count("lob.cancel_hits", bool(result))


def _after_forward(tr, args, result):
    net, s = args[0], args[1]
    rows = 1 if np.ndim(s) == 1 else len(s)
    tr.count("dqn.forward_rows", rows)
    tr.count("dqn.mlp_flops", rows * _layer_flops(net.sizes)[0])


def _after_loss(tr, args, result):
    net, s = args[0], args[1]
    tr.count("dqn.mlp_flops", len(s) * sum(_layer_flops(net.sizes)))


def _after_save(tr, args, result):
    tr.count("dqn.save_bytes", os.path.getsize(args[1]))


# (module, class, attribute, span, after-hook)
METHODS = [
    ("lobexec.lob", "OrderBook", "submit_limit", "lob.submit_limit", None),
    ("lobexec.lob", "OrderBook", "submit_market", "lob.submit_market", _after_market),
    ("lobexec.lob", "OrderBook", "cancel", "lob.cancel", _after_cancel),
    ("lobexec.lob", "OrderBook", "total_depth", "lob.total_depth", None),
    ("lobexec.lob", "OrderBook", "volume_imbalance", "lob.volume_imbalance", None),
    ("lobexec.lob", "OrderBook", "snapshot", "lob.snapshot", None),
    ("lobexec.kernel", "MarketSession", "__init__", "kernel.session_init", None),
    ("lobexec.kernel", "MarketSession", "run_until", "kernel.run_until", None),
    ("lobexec.kernel", "SessionLog", "snapshots_csv", "cli.serialize", None),
    ("lobexec.kernel", "SessionLog", "fills_csv", "cli.serialize", None),
    ("lobexec.kernel", "SessionLog", "fundamental_csv", "cli.serialize", None),
    *[("lobexec.agents", cls, "wakeup", f"agents.{short}.wakeup", None)
      for short, cls in AGENT_CLASSES.items()],
    ("lobexec.fundamental", "FundamentalPath", "value", "fundamental.value", None),
    ("lobexec.fundamental", "Oracle", "observe", "fundamental.observe", None),
    ("lobexec.execenv", "ExecutionEnv", "reset", "execenv.reset", None),
    ("lobexec.execenv", "ExecutionEnv", "step", "execenv.step", None),
    ("lobexec.dqn", "QNetwork", "forward", "dqn.forward", _after_forward),
    ("lobexec.dqn", "QNetwork", "save", "dqn.save", _after_save),
    ("lobexec.dqn", "QNetwork", "load", "dqn.load", None),
    ("lobexec.dqn", "Optimizer", "update", "dqn.optimizer_update", None),
    ("lobexec.dqn", "ReplayMemory", "push", "dqn.replay_push", None),
    ("lobexec.dqn", "ReplayMemory", "sample", "dqn.replay_sample", None),
    *[("lobexec.strategies", cls, "act", "strategies.act", None)
      for cls in ("TwapPolicy", "PassivePolicy", "RandomPolicy", "GreedyQPolicy")],
    ("pathlib", "Path", "write_text", "io.write_text", None),
]

# (defining module, function, span, after-hook); patched in every lobexec
# module whose namespace holds the same function object.
FUNCTIONS = [
    ("lobexec.dqn", "train", "dqn.train", None),
    ("lobexec.dqn", "act", "dqn.act", None),
    ("lobexec.dqn", "td_targets", "dqn.td_targets", None),
    ("lobexec.dqn", "gradient_step", "dqn.gradient_step", None),
    ("lobexec.dqn", "loss_and_grads", "dqn.loss_and_grads", _after_loss),
    ("lobexec.dqn", "learning_curve_csv", "cli.serialize", None),
    ("lobexec.strategies", "make_policy", "strategies.make_policy", None),
    ("lobexec.evaluation", "run_experiment", "evaluation.run_experiment", None),
    ("lobexec.evaluation", "run_episode", "evaluation.run_episode", None),
    *[("lobexec.evaluation", fn, "evaluation.stats_export", None)
      for fn in ("aggregate", "episodes_csv", "metrics_csv", "export_distributions",
                 "rl_vs_baselines", "ttests_csv")],
    *[("lobexec.config", fn, "cli.config", None)
      for fn in ("load_config", "dump_config", "hash_comment")],
]


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every traced callable for the duration of the block."""
    undo = []

    for module, cls_name, attr, span, after in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(span, raw.__func__, after))
        else:
            wrapped = tracer.wrap(span, raw, after)
        setattr(cls, attr, wrapped)
        undo.append(lambda cls=cls, attr=attr, raw=raw: setattr(cls, attr, raw))

    modules = [m for n, m in list(sys.modules.items())
               if n == "lobexec" or n.startswith("lobexec.")]
    for module, fn_name, span, after in FUNCTIONS:
        fn = getattr(importlib.import_module(module), fn_name)
        wrapped = tracer.wrap(span, fn, after)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    undo.append(lambda mod=mod, attr=attr, fn=fn: setattr(mod, attr, fn))
    try:
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


# -- per-layer metrics ---------------------------------------------------------

QUERIES = ("lob.volume_imbalance", "lob.total_depth", "lob.snapshot")


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def span_seconds(tracer: Tracer):
    """(duration, self time) of every span, in seconds."""
    _, parent, start, end = tracer.arrays()
    dur = (end - start) / 1e9
    nested = parent >= 0
    child = np.zeros(len(dur))
    np.add.at(child, parent[nested], dur[nested])
    return dur, dur - child


def per_layer(tracer: Tracer, overhead_frac: float, output_bytes: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}, in layer order.

    Counts (calls, events, rows and ratios of counts) are exact and come
    from the first command, whose inputs depend only on the seed. Times are
    means per command over every traced command (``self_s`` and ``*_s``),
    or total self time over total calls (``us_per_call``).
    """
    name, parent, _, _ = tracer.arrays()
    nested = parent >= 0
    dur, self_t = span_seconds(tracer)
    roots = np.flatnonzero(name == tracer._id(ROOT))
    n_cmds = len(roots)
    first = np.arange(len(name)) < (roots[1] if n_cmds > 1 else len(name))
    wall = float(dur[roots].sum())
    c0 = tracer.counters[0]
    total = sum(tracer.counters, Counter())
    out = {}

    def mask(*spans):
        return np.isin(name, [tracer._ids[s] for s in spans if s in tracer._ids])

    def calls0(m):
        return int(np.count_nonzero(m & first))

    def self_s(m):
        return float(self_t[m].sum()) / n_cmds

    def inclusive_s(m):
        """Per-command time in spans of m that no other span of m encloses."""
        in_parent = np.zeros(len(m), dtype=bool)
        in_parent[nested] = m[parent[nested]]
        return float(dur[m & ~in_parent].sum()) / n_cmds

    def op(group, *spans):
        m = mask(*(spans or (group,)))
        out[f"{group}.calls"] = (calls0(m), "count")
        out[f"{group}.self_s"] = (self_s(m), "s")
        out[f"{group}.us_per_call"] = (
            _ratio(float(self_t[m].sum()) * 1e6, int(np.count_nonzero(m))), "us")
        return m

    op("lob.submit_market")
    out["lob.levels_per_market_order"] = (
        _ratio(c0["lob.market_levels"], c0["lob.market_orders"]), "levels")
    out["lob.fills_per_market_order"] = (
        _ratio(c0["lob.market_fills"], c0["lob.market_orders"]), "fills")
    op("lob.submit_limit")
    cancel = op("lob.cancel")
    out["lob.cancel.hit_ratio"] = (_ratio(c0["lob.cancel_hits"], calls0(cancel)), "ratio")
    op("lob.query", *QUERIES)

    out["kernel.events"] = (c0["kernel.events"], "count")
    out["kernel.run_until.self_s"] = (self_s(mask("kernel.run_until")), "s")
    op("kernel.session_init")
    for short in AGENT_CLASSES:
        m = mask(f"agents.{short}.wakeup")
        out[f"agents.{short}.wakeups"] = (calls0(m), "count")
        out[f"agents.{short}.self_s"] = (self_s(m), "s")
        out[f"agents.{short}.share"] = (_ratio(inclusive_s(m) * n_cmds, wall), "ratio")

    op("fundamental.value")
    observe = mask("fundamental.observe")
    misses = np.zeros(len(name), dtype=bool)  # a miss reads the path once
    misses[nested] = observe[parent[nested]]
    misses &= mask("fundamental.value")
    out["fundamental.observe.calls"] = (calls0(observe), "count")
    out["fundamental.observe.cache_hit_ratio"] = (
        1.0 - _ratio(calls0(misses), calls0(observe)) if calls0(observe) else 0.0,
        "ratio")

    op("execenv.reset")
    op("execenv.step")

    fwd = mask("dqn.forward")
    out["dqn.forward.calls"] = (calls0(fwd), "count")
    out["dqn.forward.rows"] = (c0["dqn.forward_rows"], "count")
    out["dqn.forward.self_s"] = (self_s(fwd), "s")
    loss = op("dqn.loss_and_grads")
    op("dqn.optimizer_update")
    op("dqn.replay_push")
    op("dqn.replay_sample")
    out["dqn.mlp_flops"] = (c0["dqn.mlp_flops"], "flop")
    out["dqn.gflops"] = (
        _ratio(total["dqn.mlp_flops"] / 1e9, float(self_t[fwd | loss].sum())), "GFLOP/s")
    out["dqn.load.calls"] = (calls0(mask("dqn.load")), "count")
    out["dqn.save.calls"] = (calls0(mask("dqn.save")), "count")
    out["dqn.save.bytes"] = (c0["dqn.save_bytes"], "bytes")

    op("strategies.make_policy")
    op("strategies.act")
    out["evaluation.run_episode.self_s"] = (self_s(mask("evaluation.run_episode")), "s")
    out["evaluation.stats_export_s"] = (inclusive_s(mask("evaluation.stats_export")), "s")

    out["cli.config_s"] = (inclusive_s(mask("cli.config")), "s")
    out["cli.serialize_s"] = (inclusive_s(mask("cli.serialize", "io.write_text")), "s")
    out["cli.output_bytes"] = (output_bytes, "bytes")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out


def layer_shares(tracer: Tracer) -> dict:
    """Share of traced command time spent in each layer's own code (span
    self time grouped by the span name's first component), largest first."""
    name, _, _, _ = tracer.arrays()
    dur, self_t = span_seconds(tracer)
    wall = float(dur[name == tracer._id(ROOT)].sum())
    by_layer = Counter()
    for i, span in enumerate(tracer.names):
        layer = "unwrapped" if span == ROOT else span.split(".")[0]
        by_layer[layer] += float(self_t[name == i].sum())
    return {k: _ratio(v, wall) for k, v in by_layer.most_common()}
