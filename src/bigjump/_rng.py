"""Counter-based random-number streams.

Every stochastic routine in the package draws from a Philox generator keyed
by (seed, replicate_index, stream_tag).  Philox is counter-based, so streams
for distinct keys are independent and a replicate can be regenerated in
isolation, bit for bit.  ``diagnostics.one_big_jump_curve`` relies on this:
it screens replicates in vectorized form from their regenerated draws and
rebuilds exact paths, from the same keys, only for the few survivors.
Parallel chunked accumulation relies on it for reproducibility.

``rekey`` moves an existing generator to the start of another key's stream
in place, which gives the same draws as a new ``substream`` at a fraction of
the construction cost; the screening loop uses it once per replicate stream.
"""

from __future__ import annotations

import numpy as np

# Stream tags. One tag per independent noise source of a replicate;
# the key layout reserves eight tags per replicate index.
JUMP_STREAM = 0
GAUSS_STREAM = 1
INTEGRAND_STREAM = 2
AUX_STREAM = 3

_MASK = (1 << 64) - 1


def _key(seed: int, replicate_index: int, tag: int) -> np.ndarray:
    return np.array([seed & _MASK, ((replicate_index << 3) | tag) & _MASK],
                    dtype=np.uint64)


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
