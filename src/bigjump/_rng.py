"""Counter-based random-number streams and the chunk driver.

Every stochastic routine in the package draws from a Philox generator keyed
by (seed, replicate_index, stream_tag).  The second key word packs the index
into its top 61 bits and the tag into its low 3, so indices lie in
[0, 2**61) and tags in [0, 8); a key outside those ranges is rejected rather
than wrapped onto another stream.  Philox is counter-based, so streams for
distinct keys are independent and a replicate can be regenerated in
isolation, bit for bit.  ``diagnostics.one_big_jump_curve`` relies on this:
it regenerates every replicate's draws from its keys, in blocks of replicates,
and decides each replicate from those arrays.

A jump stream (``JUMP_STREAM``) holds, in order: the Poisson jump count
(one per replicate of a batch), the jump times, the Pareto radii, and then
one uniform per jump that picks its spectral direction.  A one-atom spectral
measure draws no direction uniforms, so its stream ends after the radii;
every sampler draws the directions last, so skipping them moves no other
draw.

``rekey`` moves an existing generator to the start of another key's stream
in place, which gives the same draws as a new ``substream`` at a fraction of
the construction cost; the screening loop uses it once per replicate stream.

``chunks(n, size, fn, threads)`` is the one loop over replicate ranges: it
calls ``fn(index, start, stop)`` on consecutive ranges covering [0, n) and
returns the results in chunk order, so a merge over them is the same for any
``threads``.  The callers key their streams from the range as follows:

- ``maximal_product_bound``: (seed, index, AUX_STREAM): the counts, then a
  (chunk x most counts) draw of Z and of Z~, read where each block lies (``seek``);
- ``breiman_ratio``: (seed, index, AUX_STREAM) for X and
  (seed, index, AUX_STREAM + 1) for Y;
- ``double_jump_trend``: one stream (seed, i, AUX_STREAM) per ``n_values``
  entry i, read on through its chunks and their row blocks in order, so the
  entries, not the chunks, are what it splits over threads (a ``chunks`` of
  size 1 over the entries, each running its own chunks on one thread);
- ``batch_integral_functionals``: (seed, index, tag) for each noise tag, read
  in row blocks in the order one draw over the whole batch fills them, so the
  block size moves no draw (a block reads its jump times, radii and direction
  uniforms where they lie in the jump stream, by ``seek``: ``_block_marks``);
- ``one_big_jump_curve``: its screening blocks draw each replicate r from
  (seed, r, tag), so the split does not show in its counts; it alone runs on
  one thread whatever ``bigjump run --threads`` asks for.

``scratch(name, shape)`` gives those chunk functions their temporaries: each
thread keeps one buffer per name, grows it when a chunk needs more and hands
out a view of it, so the chunks a thread runs draw and transform in place in
the same pages instead of allocating (and page-faulting) fresh arrays each
chunk.  The lemma checks and the batch sampler fill theirs one block of rows at
a time (``levy_sim._row_blocks``), so a block's arrays padded to its most
jumps hold about ``levy_sim._BLOCK_ELEMENTS`` floats together, and a grid
array half that (one row, when a row alone holds more), whatever the jump
count or grid.  A view holds stale values and is overwritten at the thread's
next request under that name, so each name has one owner: the chunk function
that uses it.  The buffers last as long as one ``chunks`` call: a pool thread's
go with the pool, and a one-thread ``chunks`` drops the calling thread's
buffers when it returns, so no estimator's buffers outlive it.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np

# Stream tags. One tag per independent noise source of a replicate;
# the key layout reserves eight tags per replicate index.
JUMP_STREAM = 0
GAUSS_STREAM = 1
INTEGRAND_STREAM = 2
AUX_STREAM = 3

_MASK = (1 << 64) - 1
# this thread's scratch buffers: name -> flat array
_buffers = threading.local()


def _key(seed: int, replicate_index: int, tag: int) -> np.ndarray:
    if not 0 <= replicate_index < 1 << 61:
        raise ValueError(f"replicate index must lie in [0, 2**61), got {replicate_index}")
    if not 0 <= tag < 8:
        raise ValueError(f"stream tag must lie in [0, 8), got {tag}")
    return np.array([seed & _MASK, (replicate_index << 3) | tag], dtype=np.uint64)


def substream(seed: int, replicate_index: int = 0, tag: int = 0) -> np.random.Generator:
    """Independent generator for one (replicate, noise source) pair."""
    return np.random.Generator(np.random.Philox(key=_key(seed, replicate_index, tag)))


def rekey(gen: np.random.Generator, seed: int, replicate_index: int = 0,
          tag: int = 0) -> np.random.Generator:
    """Reset ``gen`` (built by ``substream``) in place to the start of the
    (seed, replicate_index, tag) stream and return it; its draws then equal
    those of ``substream(seed, replicate_index, tag)``."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": _key(seed, replicate_index, tag)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
    }
    return gen


def seek(gen: np.random.Generator, state: dict, skip: int) -> np.random.Generator:
    """``gen`` set to the Philox ``state`` moved on by ``skip`` 64-bit outputs:
    past the buffer's rest, whole counter steps by ``advance``, the remainder."""
    bits, head = gen.bit_generator, min(skip, 4 - state["buffer_pos"])
    bits.state = state
    bits.random_raw(head)
    if skip > head:  # the buffer is empty, so ``advance`` drops no output
        bits.advance((skip - head) // 4)
        bits.random_raw((skip - head) % 4)
    return gen


def chunks(n: int, size: int, fn: Callable[[int, int, int], object],
           threads: int = 1) -> list:
    """``fn(index, start, stop)`` on the consecutive ranges of at most ``size``
    that cover [0, n), in a pool of ``threads`` when above 1; the results come
    back in chunk order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    spans = [(i, start, min(start + size, n)) for i, start in enumerate(range(0, n, size))]
    if threads > 1:
        # imported here, since it brings in ``logging``: a one-thread run, and
        # ``bigjump validate``, would pay for it at start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda span: fn(*span), spans))
    try:
        return [fn(*span) for span in spans]
    finally:
        vars(_buffers).clear()  # this thread's scratch buffers


def scratch(name: str, shape, dtype=np.float64) -> np.ndarray:
    """This thread's buffer ``name`` viewed as a C-contiguous array of
    ``shape`` and ``dtype``, reallocated only when it is too small (or of
    another dtype); its values are whatever the last user left there."""
    size = math.prod(shape) if isinstance(shape, tuple) else int(shape)
    buf = vars(_buffers).get(name)
    if buf is None or buf.dtype != dtype or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_buffers, name, buf)
    return buf[:size].reshape(shape)
