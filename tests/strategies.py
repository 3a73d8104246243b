"""Hypothesis strategies shared by the malformed-input tests of headers, specs and manifests."""

import copy

from hypothesis import strategies as st

# Any JSON value: scalars, and lists and objects of them nested a little.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=4,
)


@st.composite
def mutated(draw, doc: dict, targets, values) -> dict:
    """A copy of doc with 1-3 keys dropped, replaced or added, or one list element replaced.

    targets(copy) lists the (object, keys) pairs a change may pick: an
    object inside the copy and the keys to choose from, present or not.
    """
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        target, keys = draw(st.sampled_from(targets(doc)))
        key = draw(st.sampled_from(keys))
        how = draw(st.sampled_from(["drop", "replace", "element"]))
        value = copy.deepcopy(draw(values))  # the sampled lists are shared
        if how == "drop":
            target.pop(key, None)
        elif how == "element" and isinstance(target.get(key), list) and target[key]:
            target[key][draw(st.integers(0, len(target[key]) - 1))] = value
        else:
            target[key] = value
    return doc
