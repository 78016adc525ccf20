"""On-the-fly emptiness for implicitly presented tree automata.

Frisch–Hosoya ("Towards Practical Typechecking for Macro Tree
Transducers", PAPERS.md) observe that backward type inference need not
materialize the inferred automaton: the emptiness question only ever
touches the states that are *co-reachable from the error side*, so the
automaton can stay a lazily evaluated function and the search can stop
at the first accepting pair.

:class:`LazyTA` is that implicit presentation — a deterministic
bottom-up automaton given as callables (leaf value, binary step,
acceptance predicate) instead of materialized rule tables.  The states
may be arbitrarily expensive to compute (in the routing layer they are
the subsumption-minimal summary relations of
:mod:`repro.pebble.two_way`); :func:`lazy_product_witness` guarantees
each one is computed at most once, and only if some tree of the paired
explicit automaton actually reaches it.

:func:`lazy_product_witness` explores the product of a :class:`LazyTA`
with an explicit :class:`~repro.automata.bottom_up.BottomUpTA`
bottom-up, breadth-first over *pairs* ``(lazy state, explicit state)``,
carrying a representative tree per pair.  It returns the first tree
accepted by both sides, or ``None`` when the product language is empty
— without ever enumerating the unreachable part of either automaton.
It is the one product emptiness and witness search of the package:
:meth:`~repro.automata.bottom_up.BottomUpTA.product_witness` pairs two
explicit automata through it, reading the deterministic side through
:func:`deterministic_view`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Optional

from repro.automata.bitset import ta_index
from repro.runtime.governor import current_governor
from repro.trees.ranked import BTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.automata.bottom_up import BottomUpTA

#: A lazy automaton state — anything hashable (the routing layer uses
#: frozensets of packed summary pairs).
LazyState = Hashable


@dataclass(frozen=True)
class LazyTA:
    """A deterministic bottom-up tree automaton presented implicitly.

    ``leaf_state(a)`` is the state reached on the leaf ``a``;
    ``step(a, left, right)`` the state reached at an ``a``-node whose
    children reached ``left`` and ``right``; ``is_accepting(s)`` the
    acceptance predicate.  All three must be pure: the search memoizes
    nothing on their behalf beyond pair dedup, so repeated calls with
    the same arguments must agree.  Symbols outside the machine's
    alphabet must still return *some* state (typically a rejecting
    sink) — the search drives symbols from the paired explicit
    automaton's rules, not from this one's alphabet.
    """

    leaf_state: Callable[[str], LazyState]
    step: Callable[[str, LazyState, LazyState], LazyState]
    is_accepting: Callable[[LazyState], bool]


#: The rejecting sink of :func:`deterministic_view`: the state of every
#: tree that uses a rule the automaton does not have.
SINK = -1


def deterministic_view(ta: "BottomUpTA") -> LazyTA:
    """A deterministic ``ta`` as a :class:`LazyTA` over its intern indices.

    Steps read the rows of :func:`~repro.automata.bitset.ta_index`
    (one target bit per rule, as determinism guarantees); a missing rule
    leads to :data:`SINK`, which rejects and steps only to itself.
    """
    idx = ta_index(ta)
    n, leaf, pair, accepting = idx.n, idx.leaf, idx.pair, idx.accepting_mask

    def leaf_state(symbol: str) -> int:
        return leaf.get(symbol, 0).bit_length() - 1

    def step(symbol: str, left: int, right: int) -> int:
        row = pair.get(symbol)
        if row is None or left < 0 or right < 0:
            return SINK
        return row.get(left * n + right, 0).bit_length() - 1

    def is_accepting(state: int) -> bool:
        return state >= 0 and bool((accepting >> state) & 1)

    return LazyTA(leaf_state=leaf_state, step=step, is_accepting=is_accepting)


def lazy_product_witness(
    lazy: LazyTA,
    explicit: "BottomUpTA",
    stats: Optional[dict] = None,
) -> Optional[BTree]:
    """A tree accepted by both ``lazy`` and ``explicit``, else ``None``.

    Standard product reachability, kept on-the-fly: pairs ``(s, p)``
    are discovered bottom-up (BFS, so witnesses stay small-ish), the
    lazy side's ``step`` is only invoked for symbol/child combinations
    the explicit side's rules license, and the search returns as soon
    as an accepting pair appears.  When ``stats`` is given it is filled
    in place with ``pairs`` (pairs discovered) and ``steps`` (lazy
    transitions evaluated).

    The ambient governor is charged one state per pair and one step per
    transition evaluated, so budgets and deadlines apply.
    """
    governor = current_governor()
    accepting = explicit.accepting
    pairs: dict[tuple[LazyState, Hashable], BTree] = {}
    by_p: dict[Hashable, list[tuple[LazyState, BTree]]] = {}
    queue: deque[tuple[LazyState, Hashable]] = deque()
    steps = 0

    def offer(state: LazyState, p: Hashable, tree: BTree) -> Optional[BTree]:
        key = (state, p)
        if key in pairs:
            return None
        governor.add_states()
        pairs[key] = tree
        by_p.setdefault(p, []).append((state, tree))
        queue.append(key)
        if p in accepting and lazy.is_accepting(state):
            return tree
        return None

    def report() -> None:
        if stats is not None:
            stats["pairs"] = len(pairs)
            stats["steps"] = steps

    # the explicit side's rules drive the exploration: symbols it has no
    # rules for cannot occur in any tree it accepts.
    for symbol in sorted(explicit.leaf_rules):
        targets = explicit.leaf_rules[symbol]
        if not targets:
            continue
        governor.tick()
        steps += 1
        state = lazy.leaf_state(symbol)
        for p in sorted(targets, key=repr):
            hit = offer(state, p, BTree(symbol))
            if hit is not None:
                report()
                return hit

    # targets in a process-stable order, sorted once per rule
    by_left: dict[Hashable, list[tuple[str, Hashable, list]]] = {}
    by_right: dict[Hashable, list[tuple[str, Hashable, list]]] = {}
    for (symbol, p1, p2), targets in explicit.rules.items():
        if not targets:
            continue
        ordered = sorted(targets, key=repr)
        by_left.setdefault(p1, []).append((symbol, p2, ordered))
        by_right.setdefault(p2, []).append((symbol, p1, ordered))

    while queue:
        s1, p1 = queue.popleft()
        tree1 = pairs[(s1, p1)]
        # the popped pair as a left child against every known right pair
        for symbol, p2, targets in by_left.get(p1, ()):
            for s2, tree2 in list(by_p.get(p2, ())):
                governor.tick()
                steps += 1
                state = lazy.step(symbol, s1, s2)
                for p in targets:
                    hit = offer(state, p, BTree(symbol, tree1, tree2))
                    if hit is not None:
                        report()
                        return hit
        # ... and as a right child (offer dedups the symmetric overlap)
        for symbol, p0, targets in by_right.get(p1, ()):
            for s0, tree0 in list(by_p.get(p0, ())):
                governor.tick()
                steps += 1
                state = lazy.step(symbol, s0, s1)
                for p in targets:
                    hit = offer(state, p, BTree(symbol, tree0, tree1))
                    if hit is not None:
                        report()
                        return hit
    report()
    return None
