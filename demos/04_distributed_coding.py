"""Two encoders, no communication between them, one joint decoder.

Y ~ Ber(0.2) and X = Y xor Ber(0.05) are encoded separately.  The corner
point of the achievable region is (R_x, R_y) = (H(X|Y), H(Y)): Y is sent
at full conditional entropy, decoded alone, and then used as side
information to decode X.  Total rate sits well below the 2 bits/pair that
sending both streams raw would cost.
"""

import numpy as np

from srcpolar import (
    FieldSpec,
    FormatError,
    JointSource,
    SymbolBlock,
    conditional_entropy,
    sw_config,
    sw_decode,
    sw_encode_x,
    sw_encode_y,
    sw_error_bound,
)

table = np.array([[0.8 * 0.95, 0.2 * 0.05], [0.8 * 0.05, 0.2 * 0.95]])
joint = JointSource(FieldSpec.binary(), table)
y_marg = JointSource(FieldSpec.binary(), joint.p_y().reshape(2, 1))

h_xy = conditional_entropy(joint)
h_y = conditional_entropy(y_marg)
print(f"H(X|Y) = {h_xy:.4f}   H(Y) = {h_y:.4f}   corner point total = {h_xy + h_y:.4f}")

N = 1024
cfg = sw_config(joint, N, rate_x=0.5, rate_y=0.85)
total = (len(cfg.set_x.indices) + len(cfg.set_y.indices)) / N
print(f"operating at R_x = 0.50, R_y = 0.85 -> {total:.2f} bits/pair (raw would be 2.00)")
print(f"certified joint error bound: {sw_error_bound(cfg):.4f}\n")

flat = joint.probs.reshape(-1)
errors = 0
trials = 200
for t in range(trials):
    rng = np.random.default_rng([5, t])
    draw = rng.choice(4, N, p=flat)
    x = SymbolBlock(joint.field, draw // 2)
    y = SymbolBlock(joint.field, draw % 2)
    try:
        x_hat, y_hat = sw_decode(sw_encode_x(x, cfg), sw_encode_y(y, cfg), cfg)
    except FormatError:  # a crc32 flags a block the decoder got wrong and SC-Flip did not repair
        errors += 1
        continue
    errors += int(x_hat != x or y_hat != y)

print(f"joint recovery failures: {errors}/{trials}")
