import pytest

from bigjump._rng import AUX_STREAM, chunks, rekey, substream


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
