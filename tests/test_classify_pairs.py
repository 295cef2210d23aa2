"""``classify_pairs(pairs)`` is ``classify(pairs_to_param(pairs))``.

``classify_pairs`` records the front-end events that the parameter of the
pairs gives and hands the pairs to the same core as ``classify``; its
verdict must equal the round trip through the parameter, transcript and
stage sequence included, on every table row and on drawn pairs far past
the tables.
"""

from hypothesis import assume, given, settings, strategies as st

from spindual import classify, classify_pairs, enumerate_pairs, pairs_to_param
from spindual.spinclass import MalformedParameter, StringPairs


def assert_same_verdict(pairs):
    direct = classify_pairs(pairs)
    through = classify(pairs_to_param(pairs))
    assert direct == through, pairs
    assert str(direct) == str(through)
    assert [(e.stage, e.outcome) for e in direct.chain] == \
        [(e.stage, e.outcome) for e in through.chain]


def test_every_table_row_up_to_n12():
    rows = 0
    for family in "DB":
        for n in range(1, 13):
            for pairs in enumerate_pairs(family, n):
                assert_same_verdict(pairs)
                rows += 1
    assert rows == 4898


@st.composite
def drawn_pairs(draw):
    """Doubly non-increasing string pairs of either family: up to 6 columns
    with entries up to 33, so n up to 396."""
    family = draw(st.sampled_from("BD"))
    k = draw(st.integers(1, 6))
    xs = draw(st.lists(st.integers(family == "D", 33), min_size=k, max_size=k))
    ys = draw(st.lists(st.integers(0, 33), min_size=k, max_size=k))
    try:
        return StringPairs(family, tuple(zip(sorted(xs, reverse=True), sorted(ys, reverse=True))))
    except MalformedParameter:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(drawn_pairs())
def test_drawn_pairs(pairs):
    assert_same_verdict(pairs)
