import threading

import numpy as np
import pytest

from bigjump import _rng
from bigjump._rng import AUX_STREAM, chunks, rekey, scratch, seek, substream


@pytest.mark.parametrize("n, size", [(1, 4), (3, 4), (4, 4), (10, 4), (1000, 64)])
def test_ranges_cover_in_order(n, size):
    spans = chunks(n, size, lambda i, start, stop: (i, start, stop))
    assert [i for i, _, _ in spans] == list(range(-(-n // size)))
    assert spans[0][1] == 0 and spans[-1][2] == n
    assert all(a[2] == b[1] for a, b in zip(spans, spans[1:]))
    assert all(0 < stop - start <= size for _, start, stop in spans)


def test_threads_return_the_same_list():
    def fn(i, start, stop):
        return float(substream(5, i, AUX_STREAM).random(stop - start).sum())

    want = chunks(1000, 7, fn)
    assert chunks(1000, 7, fn, threads=3) == want
    assert len(want) == 143 and len(set(want)) == len(want)


@pytest.mark.parametrize("n", [0, -3])
def test_rejects_no_replicates(n):
    calls = []
    with pytest.raises(ValueError, match="n must be >= 1"):
        chunks(n, 4, lambda *span: calls.append(span))
    assert calls == []


@pytest.mark.parametrize("index, tag", [
    pytest.param(2 ** 61, 2, id="index-2^61-is-index-0"),
    pytest.param(0, 8, id="tag-8-is-next-index-tag-0"),
    pytest.param(-1, 0, id="index-minus-1-is-index-2^61-1"),
])
def test_rejects_keys_that_would_alias(index, tag):
    with pytest.raises(ValueError, match="must lie in"):
        substream(5, index, tag)
    with pytest.raises(ValueError, match="must lie in"):
        rekey(substream(5), 5, index, tag)


def test_accepts_the_edges_of_the_key_range():
    top = substream(5, 2 ** 61 - 1, 7).random(4)
    assert rekey(substream(5), 5, 2 ** 61 - 1, 7).random(4).tolist() == top.tolist()


def test_scratch_reuses_and_grows():
    a = scratch("test.a", (4, 3))
    assert a.shape == (4, 3) and a.flags.c_contiguous
    assert np.shares_memory(scratch("test.a", 5), a)  # fits: the same buffer
    grown = scratch("test.a", 13)
    assert not np.shares_memory(grown, a) and np.shares_memory(scratch("test.a", 2), grown)
    assert scratch("test.a", 2, bool).dtype == bool  # another dtype: a new buffer


def test_scratch_is_per_thread():
    views = chunks(40, 4, lambda i, start, stop: (threading.get_ident(),
                                                  scratch("test.b", stop - start)), threads=2)
    for ident, view in views:
        assert all(np.shares_memory(view, v) == (ident == i) for i, v in views)


def test_one_thread_chunks_drops_its_buffers():
    chunks(3, 1, lambda i, start, stop: scratch("test.c", 1000).fill(1.0))
    assert "test.c" not in vars(_rng._buffers)


@pytest.mark.parametrize("drawn", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("skip", [0, 1, 3, 4, 5, 8, 1001])
def test_seek_lands_where_drawing_would(drawn, skip):
    # ``drawn`` outputs leave 0, 3, 2, 1, 0 and 3 of the four-output buffer
    rng = substream(9, 2, AUX_STREAM)
    rng.bit_generator.random_raw(drawn)
    state = rng.bit_generator.state
    want = rng.bit_generator.random_raw(skip + 6)[skip:]
    got = seek(substream(4), state, skip)
    assert np.array_equal(got.bit_generator.random_raw(6), want)
