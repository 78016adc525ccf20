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

from repro.automata import BottomUpTA
from repro.automata.bitset import reference_algebra_enabled
from repro.lang import parse_stylesheet, xslt_to_transducer
from repro.pebble import (
    copy_transducer,
    evaluate,
    exponential_transducer,
    rotation_transducer,
)
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
from repro.trees import RankedAlphabet
from repro.typecheck import as_automaton, typecheck
from repro.xmlio import parse_dtd

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})


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
        automaton = _mod_count(ALPHA, 3)
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
            typecheck(*_chain(2, 1), method=method)
            deltas.append(_delta(before))
        return deltas

    plain = cold_then_warm()
    tracer = Tracer()
    with tracing(tracer):
        traced = cold_then_warm()
    assert traced == plain
    assert plain[0]["misses"] > 0 and plain[1]["hits"] > 0
    assert plain[1]["misses"] == 0 and plain[1]["stores"] == 0


# ---------------------------------------------------------------------------
# the size-family differential
# ---------------------------------------------------------------------------


def _mod_count(alphabet, n, root=None) -> BottomUpTA:
    """Trees whose number of ``a`` leaves is 0 mod ``n``; with ``root``,
    that symbol may label the root only."""
    count = range(n)
    rules = {
        (symbol, i, j): {(i + j) % n}
        for symbol in alphabet.internals - {root}
        for i in count
        for j in count
    }
    states, accepting = set(count), {0}
    if root is not None:
        rules.update({
            (root, i, j): {("root", (i + j) % n)} for i in count for j in count
        })
        states |= {("root", i) for i in count}
        accepting = {("root", 0)}
    return BottomUpTA(
        alphabet=alphabet,
        states=states,
        leaf_rules={s: {1 % n if s == "a" else 0} for s in alphabet.leaves},
        rules=rules,
        accepting=accepting,
    )


def _copy(n, m):
    return copy_transducer(ALPHA), _mod_count(ALPHA, n), _mod_count(ALPHA, m)


def _exponential(n, m):
    machine = exponential_transducer(ALPHA)
    return (machine, _mod_count(ALPHA, n),
            _mod_count(machine.output_alphabet, m))


def _rotation(n, m):
    alpha = RankedAlphabet(leaves={"a", "b", "s"}, internals={"f", "r"})
    machine = rotation_transducer(alpha)
    return (machine, _mod_count(alpha, n, root="r"),
            _mod_count(machine.output_alphabet, m))


def _chain(depth, plus_level=None):
    """An XSLT stylesheet copying a depth-``depth`` DTD chain into output
    twins; with ``plus_level`` the output DTD needs a child there."""
    tags = [f"t{i}" for i in range(depth)] + ["leaf"]
    sheet, rules_in, rules_out = [], [], []
    for i, tag in enumerate(tags[:-1]):
        sheet.append(f'<xsl:template match="{tag}"><o{tag}>'
                     f"<xsl:apply-templates/></o{tag}></xsl:template>")
        rules_in.append(f"{tag} := {tags[i + 1]}*")
        child = "oleaf" if i + 1 == depth else f"o{tags[i + 1]}"
        rules_out.append(f"o{tag} := {child}{'+' if i == plus_level else '*'}")
    sheet.append('<xsl:template match="leaf"><oleaf/></xsl:template>')
    rules_in.append("leaf :=")
    rules_out.append("oleaf :=")
    tau1 = parse_dtd("\n".join(rules_in))
    tau2 = parse_dtd("\n".join(rules_out))
    machine = xslt_to_transducer(parse_stylesheet("".join(sheet)),
                                 tags=tau1.symbols, root_tag=tau1.root)
    return machine, tau1, tau2


#: (name, build, expected ok) -- every verdict follows from the family's
#: construction: copying keeps the a-count, the exponential output's
#: a-count is a sum of powers 2^(d+1), rotation keeps every a-leaf, and a
#: chain level may be empty in the input but not in the output.
FAMILIES = [
    ("copy-n8-ok", lambda: _copy(8, 8), True),
    ("copy-n8-type-error", lambda: _copy(8, 9), False),
    ("exponential-n12-ok", lambda: _exponential(12, 2), True),
    ("exponential-n12-type-error", lambda: _exponential(12, 8), False),
    ("rotation-n4-ok", lambda: _rotation(4, 4), True),
    ("rotation-n4-type-error", lambda: _rotation(4, 5), False),
    ("chain-n4-ok", lambda: _chain(4), True),
    ("chain-n4-type-error", lambda: _chain(4, 3), False),
]


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
