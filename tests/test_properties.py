"""Property-based checks of invariants that the example tests only sample."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tdcae.detect import smooth
from tdcae.metrics import fuse_edges, intervals_from_labels, ttd_score

# No per-example deadline: timings on a shared machine vary too much.
relaxed = settings(deadline=None)

bits = st.lists(st.booleans(), min_size=1, max_size=60)


@relaxed
@given(data=st.data(), labels=bits)
def test_ttd_score_lies_in_unit_interval(data, labels):
    intervals = intervals_from_labels(np.array(labels, dtype=int))
    assume(intervals)
    flags = data.draw(st.lists(st.booleans(), min_size=len(labels), max_size=len(labels)))
    assert 0.0 <= ttd_score(flags, intervals) <= 1.0


@relaxed
@given(
    st.integers(1, 40).flatmap(
        lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=7)
    )
)
def test_or_fusion_flags_everything_majority_flags(edges):
    either = fuse_edges(edges, "or")
    majority = fuse_edges(edges, "majority")
    assert not np.any(majority & ~either)


scores = st.lists(st.floats(0.0, 1e3), min_size=1, max_size=50)


@relaxed
@given(data=st.data(), values=scores, window=st.integers(1, 12))
def test_trailing_smooth_at_t_depends_only_on_scores_up_to_t(data, values, window):
    values = np.array(values)
    t = data.draw(st.integers(0, len(values) - 1))
    future = data.draw(st.lists(st.floats(0.0, 1e3), min_size=len(values) - t - 1,
                                max_size=len(values) - t - 1))
    changed = values.copy()
    changed[t + 1 :] = future
    whole = smooth(values, window)
    assert np.array_equal(whole[: t + 1], smooth(changed, window)[: t + 1])
    assert np.allclose(whole[: t + 1], smooth(values[: t + 1], window), rtol=1e-12, atol=0)
