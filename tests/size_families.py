"""Size families of typechecking instances, shared by the memo-stage
and route-agreement suites.

Each builder returns a fresh ``(transducer, τ1, τ2)`` triple at a size the
hypothesis strategies never reach; :data:`FAMILIES` pairs one ok and one
type-error instance per family with its verdict, which follows from the
family's construction.
"""

from repro.automata import BottomUpTA
from repro.lang import parse_stylesheet, xslt_to_transducer
from repro.pebble import (
    copy_transducer,
    exponential_transducer,
    rotation_transducer,
)
from repro.trees import RankedAlphabet
from repro.xmlio import parse_dtd

ALPHA = RankedAlphabet(leaves={"a", "b"}, internals={"f", "g"})


def mod_count(alphabet, n, root=None) -> BottomUpTA:
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


def copy_case(n, m):
    return copy_transducer(ALPHA), mod_count(ALPHA, n), mod_count(ALPHA, m)


def exponential_case(n, m):
    machine = exponential_transducer(ALPHA)
    return (machine, mod_count(ALPHA, n),
            mod_count(machine.output_alphabet, m))


def rotation_case(n, m):
    alpha = RankedAlphabet(leaves={"a", "b", "s"}, internals={"f", "r"})
    machine = rotation_transducer(alpha)
    return (machine, mod_count(alpha, n, root="r"),
            mod_count(machine.output_alphabet, m))


def chain_case(depth, plus_level=None):
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
    ("copy-n8-ok", lambda: copy_case(8, 8), True),
    ("copy-n8-type-error", lambda: copy_case(8, 9), False),
    ("exponential-n12-ok", lambda: exponential_case(12, 2), True),
    ("exponential-n12-type-error", lambda: exponential_case(12, 8), False),
    ("rotation-n4-ok", lambda: rotation_case(4, 4), True),
    ("rotation-n4-type-error", lambda: rotation_case(4, 5), False),
    ("chain-n4-ok", lambda: chain_case(4), True),
    ("chain-n4-type-error", lambda: chain_case(4, 3), False),
]
