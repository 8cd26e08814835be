"""Span recorder that wraps rollupsim's public functions from outside.

A span is (name, start, end, parent span, block). Spans stay in memory and
are aggregated, or written out, after the repetition ends. Nothing in `src/`
knows about the recorder: functions are swapped in every rollupsim module
that binds them (so `from .core import tx_hash` copies are caught too),
methods are swapped on their class, and `restore` puts every original back.

The calling thread must be the only one running rollupsim code (the
benchmark pins `workers=1`), so one stack gives every span its parent.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    name: str  # <module>.<function>, the metric prefix
    module: str  # where the function is defined
    attr: str  # "func" or "Class.method"
    # Optional hooks: `enter(tracer, args)` runs before the call and may
    # return the block number the span belongs to; `size(args, result)`
    # returns the bytes the call handled.
    enter: Optional[Callable[["Tracer", tuple], Optional[int]]] = None
    size: Optional[Callable[[tuple, Any], int]] = None


def _enter_build_block(tracer: "Tracer", args: tuple) -> int:
    seq = args[0]
    tracer.sample("mempool.size", len(seq.mempool.entries))
    tracer.sample("quarantine.active", len(seq.store.active))
    return len(seq.chain.blocks)


def _enter_apply_block(tracer: "Tracer", args: tuple) -> int:
    return args[1].number


BUILD_BLOCK = Target("sequencer.build_block", "rollupsim.sequencer", "Sequencer.build_block", enter=_enter_build_block)

LAYER_TARGETS: Tuple[Target, ...] = (
    Target("vm.execute_transaction", "rollupsim.vm", "execute_transaction"),
    Target("vm.make_state", "rollupsim.vm", "make_state"),
    Target("vm.state_root", "rollupsim.vm", "state_root"),
    Target("vm.apply_block", "rollupsim.vm", "apply_block", enter=_enter_apply_block),
    Target("detection.hybrid_detect", "rollupsim.detection", "hybrid_detect"),
    Target("detection.assess", "rollupsim.detection", "InvariantDetector.assess"),
    Target("mempool.submit", "rollupsim.mempool", "Mempool.submit"),
    Target("mempool.pending_candidates", "rollupsim.mempool", "Mempool.pending_candidates"),
    Target("mempool.retire", "rollupsim.mempool", "Mempool.retire"),
    Target("quarantine.per_block_maintenance", "rollupsim.quarantine", "QuarantineStore.per_block_maintenance"),
    Target("quarantine.admit", "rollupsim.quarantine", "QuarantineStore.admit"),
    BUILD_BLOCK,
    Target("core.tx_hash", "rollupsim.core", "tx_hash"),
    Target("core.canonical_encode", "rollupsim.core", "canonical_encode"),
    Target("l1da.post_batch", "rollupsim.l1da", "L1Chain.post_batch"),
    Target("l1da.encode_bitmap", "rollupsim.l1da", "encode_bitmap"),
    Target("l1da.snapshot_history", "rollupsim.l1da", "snapshot_history"),
    Target("derivation.derive", "rollupsim.derivation", "derive"),
    Target("formats.parse_scenario", "rollupsim.formats", "parse_scenario", size=lambda args, result: len(args[0])),
    Target("formats.render_report", "rollupsim.formats", "render_report", size=lambda args, result: len(result)),
    Target("formats.render_history", "rollupsim.formats", "render_history", size=lambda args, result: len(result)),
    Target("formats.parse_history", "rollupsim.formats", "parse_history", size=lambda args, result: len(args[0])),
)


class Tracer:
    """Records spans for the targets it is installed on."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # One row per span: [name id, start, end, parent row or -1, block].
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.block = 0
        self.bytes: Dict[str, int] = {}
        self.maxima: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    def sample(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, -1):
            self.maxima[name] = value

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name_id = self._name_ids.setdefault(target.name, len(self.names))
        if name_id == len(self.names):
            self.names.append(target.name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if target.enter is not None:
                block = target.enter(self, args)
                if block is not None:
                    self.block = block
            row = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.block]
            index = len(spans)
            spans.append(row)
            stack.append(index)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if target.size is not None:
                self.bytes[target.name] = self.bytes.get(target.name, 0) + target.size(args, result)
            if target is BUILD_BLOCK:
                self.block = row[4] + 1  # events between blocks belong to the next one
            return result

        return traced

    def install(self, targets: Sequence[Target]) -> None:
        for target in targets:
            module = importlib.import_module(target.module)
            if "." in target.attr:
                class_name, method = target.attr.split(".")
                owner = getattr(module, class_name)
                self._swap(owner, method, self.wrap(target, owner.__dict__[method]))
                continue
            original = getattr(module, target.attr)
            wrapper = self.wrap(target, original)
            for binder in rollupsim_modules():
                if binder.__dict__.get(target.attr) is original:
                    self._swap(binder, target.attr, wrapper)

    def _swap(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write every span as a tab-separated row, in start order."""
        with open(path, "w") as out:
            out.write("span\tname\tparent\tblock\tstart\tend\n")
            for index, (name_id, start, end, parent, block) in enumerate(self.spans):
                out.write(f"{index}\t{self.names[name_id]}\t{parent}\t{block}\t{start:.9f}\t{end:.9f}\n")


def rollupsim_modules() -> List[Any]:
    return [m for name, m in sorted(sys.modules.items()) if name == "rollupsim" or name.startswith("rollupsim.")]


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


def aggregate(names: Sequence[str], spans: Sequence[Sequence]) -> Tuple[Dict[str, SpanStats], Dict[Tuple[str, str], float]]:
    """Per span name: calls, total time and self time; plus total time split
    by the parent's name. Self time is a span's duration minus the time its
    direct children cover (spans nest, so children never overlap)."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _block in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: Dict[str, SpanStats] = {}
    by_parent: Dict[Tuple[str, str], float] = {}
    for index, (name_id, start, end, parent, _block) in enumerate(spans):
        name = names[name_id]
        duration = end - start
        entry = stats.setdefault(name, SpanStats())
        entry.calls += 1
        entry.total += duration
        entry.self_time += duration - covered[index]
        parent_name = names[spans[parent][0]] if parent >= 0 else "-"
        by_parent[(name, parent_name)] = by_parent.get((name, parent_name), 0.0) + duration
    return stats, by_parent
