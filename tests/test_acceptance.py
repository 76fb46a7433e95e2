"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single pass/fail line.
"""

import math

import numpy as np
import pytest

from srcpolar import (
    ChannelModel,
    FieldSpec,
    JointSource,
    OpCounter,
    SymbolBlock,
    bhattacharyya,
    binary_entropy,
    build_high_entropy_set,
    compress_blocks,
    conditional_entropy,
    decode_block,
    decompress_blocks,
    error_bound,
    exact_spectrum,
    make_duality_code,
    polar_forward,
    renyi_entropy,
    simulate,
    sw_config,
    sw_decode_blocks,
    sw_error_bound,
    symmetric_capacity,
    tv_spectrum,
    zbound_spectrum,
)

from conftest import (
    dense_transform_matrix,
    random_binary_source,
    successive_map_oracle,
)


def report(num, name, ok, detail=""):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_entropy_conservation():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        s = random_binary_source(rng, int(rng.integers(1, 5)))
        h = conditional_entropy(s)
        for N in [2, 4, 8]:
            sp = exact_spectrum(s, N)
            worst = max(worst, abs(float(sp.h.sum()) - N * h))
    report(1, "entropy conservation", worst < 1e-9, f"max |sum h - N H| = {worst:.2e}")


def test_criterion_02_pairwise_polarization():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(1000):
        s = random_binary_source(rng, int(rng.integers(1, 5)))
        sp = exact_spectrum(s, 2)
        h = conditional_entropy(s)
        ok &= sp.h[0] >= h - 1e-12 and h >= sp.h[1] - 1e-12
    # equality holds exactly at the degenerate and uniform boundary sources
    for s, val in [(JointSource.bernoulli(0.0), 0.0), (JointSource.bernoulli(0.5), 1.0)]:
        sp = exact_spectrum(s, 2)
        ok &= abs(sp.h[0] - val) < 1e-9 and abs(sp.h[1] - val) < 1e-9
    # and is strict elsewhere
    sp = exact_spectrum(JointSource.bernoulli(0.11), 2)
    ok &= sp.h[0] - sp.h[1] > 1e-9
    report(2, "pairwise polarization inequalities", ok)


def test_criterion_03_single_step_z_recursion():
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(1000):
        s = random_binary_source(rng, int(rng.integers(1, 5)))
        z = bhattacharyya(s)
        sp = exact_spectrum(s, 2)
        ok &= abs(sp.z[1] - z * z) < 1e-10
        ok &= sp.z[0] <= 2 * z - z * z + 1e-12
    for eps in [0.2, 0.5, 0.8]:
        s = JointSource.bec_pair(eps)
        sp = exact_spectrum(s, 2)
        ok &= abs(sp.z[0] - (2 * eps - eps * eps)) < 1e-12
    report(3, "single-step z identities and bound", ok)


def test_criterion_04_entropy_z_inequalities():
    ok = True
    for p in np.round(np.arange(0, 1001) * 1e-3, 10):
        z = 2 * math.sqrt(p * (1 - p))
        h = binary_entropy(p)
        ok &= z * z <= h + 1e-12 <= math.log2(1 + z) + 2e-12
        f = h - z * z
        ok &= (abs(f) < 1e-12) if p in (0.0, 0.5, 1.0) else (f > 0.0)
    rng = np.random.default_rng(104)
    for _ in range(1000):
        s = random_binary_source(rng, int(rng.integers(1, 5)))
        z = bhattacharyya(s)
        h = conditional_entropy(s)
        ok &= z * z <= h + 1e-12 <= math.log2(1 + z) + 2e-12
    ok &= abs(renyi_entropy([0.89, 0.11], 0.5)
              - math.log2(1 + bhattacharyya(JointSource.bernoulli(0.11)))) < 1e-12
    vals = [renyi_entropy([0.8, 0.2], a) for a in [0.25, 0.5, 2.0, 4.0]]
    ok &= all(b < a for a, b in zip(vals, vals[1:]))
    report(4, "entropy/Bhattacharyya inequalities", ok)


def test_criterion_05_transform_correctness():
    gf2 = FieldSpec.binary()
    gf3 = FieldSpec.prime(3)
    ok = True
    for N in [2, 4, 8]:
        g = dense_transform_matrix(2, N)
        for xi in range(2**N):
            x = np.array([(xi >> (N - 1 - j)) & 1 for j in range(N)])
            want = (x @ g) % 2
            ok &= np.array_equal(polar_forward(SymbolBlock(gf2, x)).data, want)
    rng = np.random.default_rng(105)
    for N in [16, 64, 256, 1024, 4096]:
        g = dense_transform_matrix(2, N).astype(float)
        xs = rng.integers(0, 2, (200, N))
        want = (xs.astype(float) @ g).astype(np.int64) % 2
        got = np.stack([polar_forward(SymbolBlock(gf2, x)).data for x in xs])
        ok &= np.array_equal(got, want)
        x = rng.integers(0, 2, N)
        twice = polar_forward(polar_forward(SymbolBlock(gf2, x)))
        ok &= np.array_equal(twice.data, x)  # involution over GF(2)
    from srcpolar import polar_inverse

    for _ in range(100):
        b = SymbolBlock(gf3, rng.integers(0, 3, 64))
        ok &= polar_inverse(polar_forward(b)) == b
    report(5, "transform matches dense reference", ok)


def test_criterion_06_decoder_oracle_equivalence():
    import itertools

    from srcpolar import SequentialDecoder

    rng = np.random.default_rng(106)
    ok = True

    def check(s, y):
        nonlocal ok
        dec = SequentialDecoder(s, np.array(y))
        got = [dec.decide_next(i) for i in range(1, len(y) + 1)]
        path = {i: bit for i, (bit, _) in enumerate(got, start=1)}
        _, want_llrs = successive_map_oracle(s, y, path)
        for (bit, llr), want in zip(got, want_llrs):
            if abs(want) < 600:
                ok &= abs(llr - want) < 1e-9
            if abs(want) > 1e-9:
                ok &= bit == (0 if want >= 0 else 1)

    for N in [2, 4]:
        for y_size in [1, 2]:
            for _ in range(3):
                s = random_binary_source(rng, y_size, floor=0.02)
                for y in itertools.product(range(y_size), repeat=N):
                    check(s, list(y))
    for _ in range(200):
        y_size = int(rng.integers(1, 3))
        s = random_binary_source(rng, y_size, floor=0.02)
        check(s, [int(v) for v in rng.integers(0, y_size, 8)])
    report(6, "decoder equals successive-MAP oracle", ok)


def _compression_trial(source, sample_xy, N, rate, trials, seed, spectrum=zbound_spectrum):
    """SC's own block-error rate over the trials, and the set's certificate.

    The trials run as one batch through compress_blocks and
    decompress_blocks: SC alone, without the crc32 check and SC-Flip repair
    that the readers of a container add.
    """
    sp = spectrum(source, N)
    hset = build_high_entropy_set(sp, rate)
    cert = error_bound(hset, sp)
    pairs = [sample_xy(np.random.default_rng([seed, t])) for t in range(trials)]
    X = np.array([x for x, _ in pairs])
    Y = None if pairs[0][1] is None else np.array([y for _, y in pairs])
    fails = int((decompress_blocks(compress_blocks(X, hset), Y, hset, source) != X).any(axis=1).sum())
    return fails / trials, cert


def test_criterion_07_union_bound_certificates():
    trials = 1000
    s1 = JointSource.bernoulli(0.11)
    fer1, cert1 = _compression_trial(
        s1, lambda r: ((r.random(256) < 0.11).astype(np.int64), None), 256, 0.7, trials, 107
    )
    s2 = JointSource.bsc_pair(0.11)

    def sample2(r):
        x = r.integers(0, 2, 1024)
        return x, x ^ (r.random(1024) < 0.11).astype(np.int64)

    fer2, cert2 = _compression_trial(s2, sample2, 1024, 0.7, trials, 1070)
    slack1 = 3 * math.sqrt(max(cert1 * (1 - cert1), 1e-9) / trials)
    slack2 = 3 * math.sqrt(max(cert2 * (1 - cert2), 1e-9) / trials)
    ok = fer1 <= cert1 + slack1 and fer2 <= cert2 + slack2
    report(
        7, "empirical error within union-bound certificate", ok,
        f"fer={fer1:.3f}/{fer2:.3f} cert={cert1:.3f}/{cert2:.3f}",
    )


def test_criterion_08_bound_sum_trend_rate_0p6():
    """Bound sum and error fall with N at R=0.6 for Ber(0.11), H=0.5.

    The bound sum is sum_{i not in E} z_i over the certified tv_spectrum,
    with E chosen on the same spectrum.  The paper's claim is asymptotic;
    at these lengths the sum first rises, peaks at n=10, then falls:

        n    4      5      6      7      8      9      10     11
        sum  0.792  1.141  1.730  2.499  3.205  3.723  4.040  3.911
        n    12     13     14     15
        sum  3.005  1.856  0.820  0.228

    The test checks the strict fall over n=10..13, and that the FER on tv
    sets (200 trials) does not rise from N=1024 to N=4096 (0.31, then 0.25).
    The zbound proxy cannot show this: its z-mass stays at Z(X|Y) ~ 0.626
    > 0.6 at every level, so its sum grows like N(Z - R), from 1.07 at n=4
    to 125 at n=12.
    """
    s = JointSource.bernoulli(0.11)
    sums = []
    for n in range(10, 14):
        sp = tv_spectrum(s, 1 << n)
        hset = build_high_entropy_set(sp, 0.6)
        sums.append(float(sp.z[~hset.mask].sum()))
    strictly_decreasing = all(b < a for a, b in zip(sums, sums[1:]))
    fers = []
    for n in [10, 12]:
        fer, _ = _compression_trial(
            s, lambda r, N=1 << n: ((r.random(N) < 0.11).astype(np.int64), None),
            1 << n, 0.6, 200, 108, spectrum=tv_spectrum,
        )
        fers.append(fer)
    non_increasing = all(b <= a for a, b in zip(fers, fers[1:]))
    report(
        8, "bound-sum and error decrease with N at R=0.6",
        strictly_decreasing and non_increasing,
        f"sums n=10..13 {[round(v, 3) for v in sums]}, fer {fers}",
    )


def test_criterion_09_channel_duality():
    ok = True
    for eps in [0.0, 0.25, 0.5, 1.0]:
        ok &= symmetric_capacity(ChannelModel.bec(eps)) == pytest.approx(1 - eps, abs=1e-12)
    w = ChannelModel.bsc(0.11)
    cap = symmetric_capacity(w)
    fers = []
    for rate in [cap - 0.15, cap - 0.05, cap + 0.05]:
        code = make_duality_code(w, 1024, rate, 109)
        fers.append(simulate(w, code, 1000, 1090)["fer"])
    ok &= fers[0] <= fers[1] <= fers[2]
    report(9, "capacity identity and FER rate sweep", ok, f"fer sweep {fers}")


def test_criterion_10_slepian_wolf_corner_point():
    table = np.array([[0.8 * 0.95, 0.2 * 0.05], [0.8 * 0.05, 0.2 * 0.95]])
    joint = JointSource(FieldSpec.binary(), table)
    cfg = sw_config(joint, 1024, 0.5, 0.85)
    cert = sw_error_bound(cfg)
    flat = joint.probs.reshape(-1)
    trials = 500
    # SC alone, both stages batched: sw_decode_blocks checks no crc32
    draws = np.array([np.random.default_rng([110, t]).choice(4, 1024, p=flat) for t in range(trials)])
    X, Y = draws // 2, draws % 2
    x_hat, y_hat = sw_decode_blocks(compress_blocks(X, cfg.set_x), compress_blocks(Y, cfg.set_y), cfg)
    errors = int(((x_hat != X) | (y_hat != Y)).any(axis=1).sum())
    rate = errors / trials
    report(10, "two-encoder corner point within certificate", rate <= cert,
           f"error={rate:.3f} cert={cert:.3f}")


def test_criterion_11_nonbinary_alphabets():
    rng = np.random.default_rng(111)
    ok = True
    for _ in range(5):
        t = rng.random(3) + 0.05
        s = JointSource(FieldSpec.prime(3), (t / t.sum()).reshape(3, 1))
        spreads = [
            float(exact_spectrum(s, N).h.max() - exact_spectrum(s, N).h.min())
            for N in [2, 4, 8]
        ]
        ok &= spreads[0] <= spreads[1] <= spreads[2]
    # the XOR-field source with support {0, 2} is invariant: u = x G_N has
    # exactly the product distribution of x itself, so nothing polarizes
    gf4 = JointSource(FieldSpec.gf4(), np.array([[0.5], [0.0], [0.5], [0.0]]))
    for N in [2, 4]:
        dist = np.zeros([4] * N)
        for xi in np.ndindex(*[4] * N):
            p = float(np.prod(gf4.probs[list(xi), 0]))
            if p:
                u = polar_forward(SymbolBlock(gf4.field, np.array(xi))).data
                dist[tuple(u)] += p
        want = np.ones(())
        for _ in range(N):
            want = np.multiply.outer(want, gf4.probs[:, 0])
        ok &= np.allclose(dist, want, atol=1e-12)
    report(11, "prime-alphabet spread growth and XOR-field invariance", ok)


def test_criterion_12_quasilinear_operation_counts():
    s = JointSource.bernoulli(0.11)
    ok = True
    ratios = []
    for n in range(8, 15):
        N = 1 << n
        ops = OpCounter()
        polar_forward(SymbolBlock(s.field, np.zeros(N, dtype=np.int64)), ops)
        _, combines = decode_block(s, None, {}, N=N)
        ratios.append((ops.count / (N * n), combines / (N * n)))
    enc = [r[0] for r in ratios]
    dec = [r[1] for r in ratios]
    for seq in (enc, dec):
        c = float(np.mean(seq))
        ok &= all(abs(v - c) <= 0.15 * c for v in seq)
    report(12, "encode/decode operation counts are c N log N", ok,
           f"encode c={enc[0]:.3f}, decode c={dec[0]:.3f}")
