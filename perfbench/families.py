"""Size-parameterized typechecking instances with hand-derived verdicts.

Every instance is a triple ``(T, tau1, tau2)`` whose expected verdict
(``ok`` or ``type-error``) follows from the family's construction, not
from any typechecking route.  ``Instance.reason`` states the argument in
one line.  ``Instance.build()`` returns *fresh* machine and type objects
on every call: fingerprints and bitset intern tables are cached on the
objects themselves, so reusing objects would hide the memo's real cost.

Families (``n`` is the size parameter, the state count of the input
type):

* ``copy`` -- Example 3.3's identity transducer between modular-count
  types ("the number of ``a`` leaves is 0 mod n").  Routed to fast-td.
* ``exponential`` -- Example 3.6, output exponentially larger than the
  input.  Routed to lazy-backward.
* ``rotation`` -- Example 3.7, uses up-moves.  Routed to lazy-backward.
* ``chain`` -- an XSLT stylesheet over a DTD of depth ``n`` and width
  ``w`` (E10's ``test_cost_growth_with_state_count`` is width 1); the
  only family also given as stylesheet and DTD *texts*, so the served
  and batch workloads can submit it as a job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

OK = "ok"
TYPE_ERROR = "type-error"


def verdict_of(result) -> str:
    """The oracle's name for a typecheck result's verdict."""
    return OK if result.ok else TYPE_ERROR


@dataclass(frozen=True)
class Instance:
    """One check: a family member of a given size and expected verdict."""

    family: str
    size: int
    expected: str
    reason: str
    build: Callable[[], tuple] = field(compare=False, repr=False)
    #: the job texts (chain only): stylesheet, input DTD, output DTD
    texts: Optional[tuple[str, str, str]] = None
    #: the level a failing chain fails at
    level: Optional[int] = None

    @property
    def name(self) -> str:
        name = f"{self.family}-n{self.size}-{self.expected}"
        return name if self.level is None else f"{name}-l{self.level}"


# -- modular-count types -----------------------------------------------------


def mod_count_type(alphabet, n: int, root: Optional[str] = None):
    """Trees whose number of ``a`` leaves is 0 mod ``n`` (``n`` states).

    With ``root``, that symbol may label the root only (the rotation
    machine's precondition); root states are tagged, doubling the count.
    """
    from repro.automata import BottomUpTA

    count = range(n)
    leaf_rules = {
        symbol: {1 % n if symbol == "a" else 0} for symbol in alphabet.leaves
    }
    rules = {
        (symbol, i, j): {(i + j) % n}
        for symbol in alphabet.internals - {root}
        for i in count
        for j in count
    }
    accepting = {0}
    states = set(count)
    if root is not None:
        rules.update({
            (root, i, j): {("root", (i + j) % n)}
            for i in count
            for j in count
        })
        accepting = {("root", 0)}
        states |= {("root", i) for i in count}
    return BottomUpTA(
        alphabet=alphabet,
        states=states,
        leaf_rules=leaf_rules,
        rules=rules,
        accepting=accepting,
    )


def _copy(n: int) -> list[Instance]:
    def build(m: int):
        def make():
            from repro.pebble import copy_transducer
            from repro.trees import RankedAlphabet

            alpha = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})
            return (copy_transducer(alpha), mod_count_type(alpha, n),
                    mod_count_type(alpha, m))
        return make

    wrong = n + 1  # any m not dividing n refutes; n + 1 keeps tau2 small
    return [
        Instance("copy", n, OK, f"identity maps count≡0 mod {n} into "
                 f"count≡0 mod {n}", build(n)),
        Instance("copy", n, TYPE_ERROR, f"a tree with {n} a-leaves is "
                 f"copied, and {wrong} does not divide {n}", build(wrong)),
    ]


def _exponential(n: int) -> list[Instance]:
    # The output holds 2^(d+1) a-leaves per input a-leaf at depth d: the
    # count is always even, but one a-leaf at depth 1 (others deeper)
    # leaves it 4 mod 8, and such inputs exist for every n.
    def build(m: int):
        def make():
            from repro.pebble import exponential_transducer
            from repro.trees import RankedAlphabet

            alpha = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})
            machine = exponential_transducer(alpha)
            return (machine, mod_count_type(alpha, n),
                    mod_count_type(machine.output_alphabet, m))
        return make

    return [
        Instance("exponential", n, OK, "every output a-count is a sum of "
                 "powers 2^(d+1), hence even", build(2)),
        Instance("exponential", n, TYPE_ERROR, f"f(a, t) with t holding "
                 f"{n - 1} deeper a-leaves outputs 4 mod 8 a-leaves",
                 build(8)),
    ]


def _rotation(n: int) -> list[Instance]:
    # rotation re-hangs the tree at the first s leaf: it drops that s,
    # adds fresh m and n leaves, and keeps every a-leaf.
    def build(m: int):
        def make():
            from repro.pebble import rotation_transducer
            from repro.trees import RankedAlphabet

            alpha = RankedAlphabet(leaves={"a", "b", "s"},
                                   internals={"f", "r"})
            machine = rotation_transducer(alpha)
            return (machine, mod_count_type(alpha, n, root="r"),
                    mod_count_type(machine.output_alphabet, m))
        return make

    wrong = n + 1
    return [
        Instance("rotation", n, OK, "rotation preserves the a-count, "
                 f"0 mod {n}", build(n)),
        Instance("rotation", n, TYPE_ERROR, f"an input with {n} a-leaves "
                 f"and an s leaf keeps {n} a-leaves; {wrong} does not "
                 f"divide {n}", build(wrong)),
    ]


# -- the XSLT chain ----------------------------------------------------------


def chain_texts(width: int, depth: int, plus_level: Optional[int]
                ) -> tuple[str, str, str]:
    """Stylesheet, input DTD and output DTD of the width x depth chain.

    Level 0 is the root ``t0``; levels 1..depth-1 hold ``width`` tags
    each, whose children come from the next level; the last level's
    children are ``leaf``.  Every template wraps its children in the
    output twin ``o<tag>``.  With ``plus_level``, the output DTD makes
    the first tag of that level require a non-empty child list.
    """
    def level(i: int) -> list[str]:
        if i == 0:
            return ["t0"]
        if i == depth:
            return ["leaf"]
        return [f"t{i}_{j}" for j in range(width)]

    sheet, rules_in, rules_out = [], [], []
    for i in range(depth):
        children = "|".join(level(i + 1))
        for index, tag in enumerate(level(i)):
            sheet.append(f'<xsl:template match="{tag}"><o{tag}>'
                         "<xsl:apply-templates/>"
                         f"</o{tag}></xsl:template>")
            rules_in.append(f"{tag} := ({children})*")
            star = "+" if i == plus_level and index == 0 else "*"
            out_children = "|".join(f"o{child}" for child in level(i + 1))
            rules_out.append(f"o{tag} := ({out_children}){star}")
    sheet.append('<xsl:template match="leaf"><oleaf/></xsl:template>')
    rules_in.append("leaf :=")
    rules_out.append("oleaf :=")
    return "\n".join(sheet), "\n".join(rules_in), "\n".join(rules_out)


def build_chain(texts: tuple[str, str, str]) -> tuple:
    """Fresh ``(T, tau1, tau2)`` from the chain texts, parsed as a
    ``repro typecheck`` process parses its arguments."""
    from repro.lang import parse_stylesheet, xslt_to_transducer
    from repro.xmlio import parse_dtd

    sheet, input_text, output_text = texts
    tau1 = parse_dtd(input_text)
    tau2 = parse_dtd(output_text)
    machine = xslt_to_transducer(
        parse_stylesheet(sheet), tags=tau1.symbols, root_tag=tau1.root
    )
    return machine, tau1, tau2


def chain_pair(width: int, depth: int) -> list[Instance]:
    """The chain's ``ok`` member and its ``type-error`` member failing at
    the deepest level."""
    return [_chain(width, depth, None), _chain(width, depth, depth - 1)]


def chain_all(width: int, depth: int) -> list[Instance]:
    """The chain's ``ok`` member and its ``type-error`` member failing at
    each level, so a pool of them does the same work under every seed."""
    return [_chain(width, depth, level) for level in (None, *range(depth))]


def _chain(width: int, depth: int, plus_level: Optional[int]) -> Instance:
    texts = chain_texts(width, depth, plus_level)
    if plus_level is None:
        return Instance(f"chain-w{width}", depth, OK, "each output element "
                        "mirrors one input element with the same child list",
                        lambda: build_chain(texts), texts)
    return Instance(f"chain-w{width}", depth, TYPE_ERROR, "the input allows "
                    f"an empty level-{plus_level} element, the output needs "
                    "a non-empty one", lambda: build_chain(texts), texts,
                    level=plus_level)


# -- workload ladders --------------------------------------------------------

#: Sizes per family, per route.  The exact route pays the walking
#: summary and the intersection, so its ladder stops earlier; both
#: ladders keep the slowest check well under a second on one core.
LADDERS = {
    "auto": {
        "copy": (4, 8, 16, 24),
        "exponential": (4, 8, 16, 24),
        "rotation": (2, 4, 6, 8),
        "chain-w1": (2, 4, 6),
        "chain-w2": (2, 3, 4),
    },
    "exact": {
        "copy": (2, 4, 6, 8),
        "exponential": (2, 4, 8, 12),
        "rotation": (2, 3, 4, 5),
        "chain-w1": (2, 3, 4),
        "chain-w2": (2, 3),
    },
}

_BUILDERS = {"copy": _copy, "exponential": _exponential,
             "rotation": _rotation}


def ladder(route: str) -> list[Instance]:
    """Both verdicts of every family size on ``route``'s ladder.

    The same instances for every seed (the seed only orders the checks),
    so every seed does the same work: where a chain fails moves its cost
    by up to a third, and the few slowest checks set p90.
    """
    instances: list[Instance] = []
    for family, sizes in LADDERS[route].items():
        for size in sizes:
            if family.startswith("chain-w"):
                instances += chain_pair(int(family[7:]), size)
            else:
                instances += _BUILDERS[family](size)
    return instances
