"""Compress correlated data down to (almost) its conditional entropy.

The decoder observes Y, a noisy copy of X through a BSC(0.05), so only
H(X|Y) ~ 0.286 bits per symbol actually need to travel.  We keep the
high-entropy transform coordinates, throw the rest away, and let the
sequential decoder fill them back in from Y.
"""

import numpy as np

from srcpolar import (
    FormatError,
    JointSource,
    SymbolBlock,
    build_high_entropy_set,
    compress,
    conditional_entropy,
    decompress,
    error_bound,
    zbound_spectrum,
)

N = 1024
rate = 0.55
source = JointSource.bsc_pair(0.05)
print(f"H(X|Y) = {conditional_entropy(source):.4f} bits/symbol, coding rate R = {rate}")

spectrum = zbound_spectrum(source, N)
hset = build_high_entropy_set(spectrum, rate)
cert = error_bound(hset, spectrum)
print(f"kept {len(hset.indices)} of {N} coordinates; certified block error <= {cert:.4f}\n")

rng = np.random.default_rng(7)
failures = 0
trials = 100
for _ in range(trials):
    x = rng.integers(0, 2, N)
    y = x ^ (rng.random(N) < 0.05).astype(np.int64)
    block = compress(SymbolBlock(source.field, x), hset)
    try:
        x_hat = decompress(block, y, hset, source)
    except FormatError:  # the crc32 flags a block the decoder got wrong
        failures += 1
        continue
    failures += int(not np.array_equal(x_hat.data, x))

wire = len(block.to_bytes())
print(f"payload: {len(block.payload)} bits for {N} source bits "
      f"({len(block.payload) / N:.2f} bits/bit, {wire} bytes on the wire)")
print(f"observed block failures: {failures}/{trials} (certificate {cert:.4f})")
