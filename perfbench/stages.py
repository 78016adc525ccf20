"""Benchmark-side spans, the stage-by-stage replay, and the verdict oracle.

Nothing here reaches inside the program: every layer is timed from
outside, around a call to one of its public functions.  The replay walks
the same pipeline ``typecheck()`` runs -- Theorem 4.4 for ``exact``, the
classifier plus one fast route for ``auto`` -- and its verdict must equal
``typecheck()``'s.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from perfbench.families import OK, TYPE_ERROR, verdict_of


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    check: str


@dataclass
class Spans:
    """In-memory span log; written out once, when the benchmark ends."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str, check: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, check))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end_ns = time.perf_counter_ns()

    def record(self, name: str, check: str, start_ns: int, end_ns: int
               ) -> None:
        """Log a span timed by the caller (threads time their own)."""
        self.spans.append(Span(name, start_ns, end_ns, None, check))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "parent": span.parent,
                    "check": span.check, "start_ns": span.start_ns,
                    "end_ns": span.end_ns,
                }) + "\n")


class Replay:
    """One check replayed stage by stage under benchmark spans.

    ``ms`` maps stage metric names to wall milliseconds, ``counts`` maps
    size metric names to state/rule counts.
    """

    def __init__(self, spans: Spans, check: str) -> None:
        self.spans = spans
        self.check = check
        self.ms: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    @contextmanager
    def stage(self, metric: str):
        started = time.perf_counter_ns()
        with self.spans.span(metric, self.check):
            yield
        self.ms[metric] = (
            self.ms.get(metric, 0.0)
            + (time.perf_counter_ns() - started) / 1e6
        )

    def fingerprint(self, *objects) -> None:
        """Key the next stage's inputs now, so keying is attributed to
        the memo layer instead of to the stage that would pay it."""
        from repro.runtime.cache import fingerprint

        with self.stage("runtime.cache.fingerprint_ms"):
            for obj in objects:
                fingerprint(obj)


def replay_exact(replay: Replay, machine, tau1_like, tau2_like) -> str:
    """The Theorem 4.4 pipeline, as ``typecheck(method="exact")`` runs
    it, one public call per stage.  Returns the verdict."""
    from repro.pebble import output_language, walking_automaton_to_ta
    from repro.typecheck import as_automaton

    tau1, tau2, trimmed = _shared_prefix(
        replay, machine, tau1_like, tau2_like, lazy=False
    )
    with replay.stage("pebble.regularize_ms"):
        bad = walking_automaton_to_ta(trimmed).minimized()
    replay.counts["pebble.regularize_states"] = len(bad.states)
    replay.fingerprint(bad, tau1)
    with replay.stage("automata.intersect_ms"):
        tau1 = as_automaton(tau1, bad.alphabet)
        bad = as_automaton(bad, tau1.alphabet)
        offending = bad.intersection(tau1).trimmed()
    replay.counts["automata.offending_states"] = len(offending.states)
    with replay.stage("automata.witness_ms"):
        witness = offending.witness()
        if witness is not None:
            output_language(machine, witness).intersection(
                tau2.complemented()
            ).witness()
    return OK if witness is None else TYPE_ERROR


def _shared_prefix(replay: Replay, machine, tau1_like, tau2_like,
                   lazy: bool):
    """Type compilation through trim+quotient: the stages the exact
    pipeline and the lazy route share.  Only the objects a route's memo
    keys on are fingerprinted: the exact route keys its regularization
    on the whole product, the lazy route its search on the trimmed one
    and tau1."""
    from repro.automata.convert import bu_to_td
    from repro.pebble import (
        quotient_pebble_automaton,
        transducer_times_automaton,
        trim_pebble_automaton,
    )
    from repro.typecheck import as_automaton

    with replay.stage("automata.type_compile_ms"):
        tau1 = as_automaton(tau1_like, machine.input_alphabet)
        tau2 = as_automaton(tau2_like, machine.output_alphabet)
    replay.fingerprint(tau2)
    with replay.stage("automata.complement_ms"):
        complemented = tau2.complemented().trimmed()
    replay.counts["automata.complement_states"] = len(complemented.states)
    with replay.stage("automata.bu_to_td_ms"):
        not_tau2 = bu_to_td(complemented)
    replay.fingerprint(machine, not_tau2)
    with replay.stage("pebble.product_ms"):
        product = transducer_times_automaton(machine, not_tau2)
    size = product.stats()
    replay.counts["pebble.product_states"] = size["states"]
    replay.counts["pebble.product_rules"] = size["rules"]
    if not lazy:
        replay.fingerprint(product)
    with replay.stage("pebble.trim_quotient_ms"):
        trimmed = quotient_pebble_automaton(trim_pebble_automaton(product))
    replay.counts["pebble.trimmed_states"] = trimmed.stats()["states"]
    if lazy:
        replay.fingerprint(trimmed, tau1)
    return tau1, tau2, trimmed


#: The stages the lazy route repeats internally before its search.
LAZY_SHARED = (
    "automata.type_compile_ms", "automata.complement_ms",
    "automata.bu_to_td_ms", "pebble.product_ms", "pebble.trim_quotient_ms",
)


def replay_auto(replay: Replay, build) -> str:
    """The auto route: classify, then the fast route it picks.

    For lazy-backward, the shared stages are first replayed one by one
    (for their sizes and times), then ``typecheck_lazy`` runs whole on
    fresh objects and a cleared memo; ``typecheck.lazy_search_ms`` is its
    wall minus the shared stages.  Returns the verdict.
    """
    from repro.runtime.cache import clear_cache
    from repro.typecheck.routing import (
        FAST_TD,
        classify,
        typecheck_fast,
        typecheck_lazy,
    )

    machine, tau1, tau2 = build()
    with replay.stage("typecheck.classify_ms"):
        decision = classify(machine)
    if decision.route == FAST_TD:
        with replay.stage("typecheck.fast_td_ms"):
            result = typecheck_fast(machine, tau1, tau2)
        return verdict_of(result)
    _shared_prefix(replay, machine, tau1, tau2, lazy=True)
    machine, tau1, tau2 = build()
    clear_cache()
    started = time.perf_counter_ns()
    with replay.spans.span("typecheck.lazy_route", replay.check):
        result = typecheck_lazy(machine, tau1, tau2)
    lazy_ms = (time.perf_counter_ns() - started) / 1e6
    shared = sum(replay.ms[name] for name in LAZY_SHARED)
    shared += replay.ms.get("runtime.cache.fingerprint_ms", 0.0)
    replay.ms["typecheck.lazy_route_ms"] = lazy_ms
    replay.ms["typecheck.lazy_search_ms"] = lazy_ms - shared
    search = result.stats.get("search", {})
    replay.counts["typecheck.lazy_relations"] = search.get("relations", 0)
    replay.counts["typecheck.lazy_pairs"] = search.get("pairs", 0)
    return verdict_of(result)


# -- the verdict oracle ------------------------------------------------------


def witness_holds(machine, tau1, tau2, tree) -> bool:
    """Replay a type-error witness without any typechecking route or the
    memo: ``tree`` is in tau1, and the transducer's output on it (run by
    ``repro.pebble.run``) is outside tau2.  DTDs are checked with
    ``is_valid``, tree automata by running their own transition table."""
    from repro.pebble.run import evaluate
    from repro.runtime.cache import cache_disabled

    with cache_disabled():
        if not _member(tau1, tree):
            return False
        output = evaluate(machine, tree)
        return output is not None and not _member(tau2, output)


def _member(type_like, tree) -> bool:
    from repro.automata import BottomUpTA
    from repro.trees.encoding import decode, is_encoding

    if isinstance(type_like, BottomUpTA):
        return bool(_states_at(type_like, tree, {}) & type_like.accepting)
    return is_encoding(tree) and type_like.is_valid(decode(tree))


def _states_at(automaton, node, memo: dict) -> frozenset:
    """The bottom-up automaton's own transition table, run over the tree
    as the DAG ``evaluate`` builds: a shared subtree is evaluated once.
    (``accepts`` would expand Example 3.6's exponential outputs.)"""
    key = id(node)
    if key not in memo:
        if node.left is None:
            memo[key] = automaton.leaf_rules.get(node.label, frozenset())
        else:
            left = _states_at(automaton, node.left, memo)
            right = _states_at(automaton, node.right, memo)
            memo[key] = frozenset().union(*(
                automaton.rules.get((node.label, p, q), ())
                for p in left for q in right
            ))
    return memo[key]
