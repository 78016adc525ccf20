"""The memo layer's outermost-only rule and its stage-boundary keys.

* A :func:`memoized` call made while another memoized ``compute()`` runs
  neither looks up nor stores; the same operation called directly does
  both.
* Tracing observes the memo and never changes it: traced and untraced
  runs count the same hits, misses and stores.
* A differential over the copy / exponential / rotation / XSLT-chain
  families, at type sizes the hypothesis strategies never reach: the
  verdict is the same with the memo disabled, cold and warm, on both the
  exact and the auto route, and every counterexample input is in τ1 while
  the transducer's output on it is outside τ2.
"""

import pytest
from size_families import ALPHA, FAMILIES, chain_case, copy_case, mod_count

from repro.automata.bitset import reference_algebra_enabled
from repro.pebble import evaluate
from repro.runtime import (
    GLOBAL_CACHE,
    Tracer,
    cache_disabled,
    cache_stats,
    clear_cache,
    memoized,
    tracing,
)
from repro.runtime.cache import tracked_keys
from repro.typecheck import as_automaton, typecheck


@pytest.fixture(autouse=True, scope="module")
def _cache_on():
    """Force the memo table on (and empty) regardless of REPRO_CACHE."""
    previous = GLOBAL_CACHE.enabled
    GLOBAL_CACHE.enabled = True
    clear_cache()
    yield
    GLOBAL_CACHE.enabled = previous
    clear_cache()


def _counters() -> dict:
    stats = cache_stats()
    return {name: stats[name] for name in ("hits", "misses", "stores")}


def _delta(before: dict) -> dict:
    after = _counters()
    return {name: after[name] - before[name] for name in before}


# ---------------------------------------------------------------------------
# outermost only
# ---------------------------------------------------------------------------


class TestOutermostOnly:
    def test_nested_call_neither_looks_up_nor_stores(self):
        runs = []

        def inner():
            return memoized("demo.inner", (), lambda: runs.append(1) or 1,
                            extra=("k",))

        clear_cache()
        before = _counters()
        assert inner() == 1  # outermost: looks up, misses, stores
        assert _delta(before) == {"hits": 0, "misses": 1, "stores": 1}

        before = _counters()
        with tracked_keys() as keys:
            outer = memoized("demo.outer", (), lambda: inner() + 1,
                             extra=("k",))
        assert outer == 2
        # only the outer call keys, looks up and stores; the nested one
        # recomputes although its own entry is in the table
        assert _delta(before) == {"hits": 0, "misses": 1, "stores": 1}
        assert len(runs) == 2
        assert [key.split("|")[0] for key in keys] == ["demo.outer"]

        before = _counters()
        assert inner() == 1  # a direct call still hits its entry
        assert _delta(before) == {"hits": 1, "misses": 0, "stores": 0}
        assert len(runs) == 2

    @pytest.mark.skipif(reference_algebra_enabled(),
                        reason="the reference algebra bypasses the memo")
    def test_nested_algebra_is_not_keyed(self):
        """``complemented`` determinizes inside its compute: only the
        outer operation gets a key, and a direct ``determinized`` call
        afterwards is a miss, not a hit on a nested entry."""
        automaton = mod_count(ALPHA, 3)
        clear_cache()
        with tracked_keys() as keys:
            automaton.complemented()
        assert {key.split("|")[0] for key in keys} == {"ta.complemented"}
        before = _counters()
        automaton.determinized()
        assert _delta(before) == {"hits": 0, "misses": 1, "stores": 1}

    def test_nested_rule_survives_a_failing_compute(self):
        """The nesting flag is reset when a compute raises."""
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            memoized("demo.boom", (), boom, extra=("k",))
        before = _counters()
        memoized("demo.after", (), lambda: 1, extra=("k",))
        assert _delta(before) == {"hits": 0, "misses": 1, "stores": 1}


# ---------------------------------------------------------------------------
# tracing changes nothing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["exact", "auto"])
def test_traced_and_untraced_runs_count_alike(method):
    def cold_then_warm():
        clear_cache()
        deltas = []
        for _ in range(2):
            before = _counters()
            typecheck(*chain_case(2, 1), method=method)
            deltas.append(_delta(before))
        return deltas

    plain = cold_then_warm()
    tracer = Tracer()
    with tracing(tracer):
        traced = cold_then_warm()
    assert traced == plain
    assert plain[0]["misses"] > 0 and plain[1]["hits"] > 0
    assert plain[1]["misses"] == 0 and plain[1]["stores"] == 0


def test_bounded_check_keys_nothing_per_input():
    """The bounded falsifier's per-input witness search is not memoized:
    checking ten times as many inputs stores no more entries."""
    stored = []
    for max_inputs in (5, 50):
        clear_cache()
        result = typecheck(*copy_case(3, 3), method="bounded",
                           max_inputs=max_inputs)
        assert result.ok and result.stats["inputs_checked"] == max_inputs
        stored.append((result.stats["cache"]["stores"],
                       result.stats["cache"]["entries"]))
    assert stored[0] == stored[1]


# ---------------------------------------------------------------------------
# the size-family differential
# ---------------------------------------------------------------------------


def _member(type_like, alphabet, tree) -> bool:
    return as_automaton(type_like, alphabet).accepts(tree)


@pytest.mark.parametrize("method", ["exact", "auto"])
@pytest.mark.parametrize("name,build,expect_ok", FAMILIES,
                         ids=[row[0] for row in FAMILIES])
def test_family_verdicts_agree_across_memo_states(name, build, expect_ok,
                                                  method):
    with cache_disabled():
        reference = typecheck(*build(), method=method)
    clear_cache()
    cold = typecheck(*build(), method=method)
    warm = typecheck(*build(), method=method)
    assert warm.stats["cache"]["misses"] == 0
    # fast-td memoizes only through the algebra, which the reference
    # algebra runs unmemoized; every other route has its stage entries
    if not (reference_algebra_enabled() and warm.method == "fast-td"):
        assert warm.stats["cache"]["hits"] > 0

    for result in (reference, cold, warm):
        assert result.ok is expect_ok
        assert result.method == reference.method
        if result.ok:
            continue
        machine, tau1, tau2 = build()
        tree = result.counterexample_input
        assert _member(tau1, machine.input_alphabet, tree)
        output = evaluate(machine, tree)
        assert output is not None
        assert not _member(tau2, machine.output_alphabet, output)
        assert not _member(tau2, machine.output_alphabet,
                           result.counterexample_output)
