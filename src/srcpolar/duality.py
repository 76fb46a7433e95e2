"""Channel coding through the source/channel duality, and the seeded simulations.

A binary-input channel W with uniform inputs induces the source
P_{X,Y}(x,y) = W(y|x)/2; coding at rate R < I(W) over W is compression of
that source at rate 1-R.  The frozen positions are the high-entropy set of
the induced source, filled with a seeded pseudorandom pattern shared by
both ends.
"""

from dataclasses import dataclass

import numpy as np

from .codec import (SWConfig, compress_blocks, decompress_blocks, error_bound, sw_decode_blocks,
                    sw_error_bound)
from .errors import DomainError
from .field import FieldSpec
from .scdec import batch_rows
from .sources import JointSource, _parse_spec, conditional_entropy
from .spectrum import (HighEntropySet, PolarSpectrum, _cells, _choice_cdf, build_high_entropy_set,
                       zbound_spectrum)
from .transform import SymbolBlock, _check_count, _forward_rows, _forward_take, _kept_rows

_ROW_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ChannelModel:
    """Binary-input DMC given by a (2, m) transition table W(y|x)."""

    kind: str  # "bsc", "bec" or "dmc"
    table: np.ndarray
    param: float | None = None

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 2 or t.shape[0] != 2 or t.shape[1] < 1 or (t < 0).any():
            raise DomainError("channel table must be 2 x m with nonnegative entries")
        if not np.isfinite(t).all():
            raise DomainError("channel table has a non-finite entry")
        if np.abs(t.sum(axis=1) - 1.0).max() > _ROW_TOL:
            raise DomainError("channel rows must each sum to 1")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @staticmethod
    def bsc(p: float) -> "ChannelModel":
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"crossover {p} outside [0,1]")
        return ChannelModel("bsc", np.array([[1.0 - p, p], [p, 1.0 - p]]), p)

    @staticmethod
    def bec(eps: float) -> "ChannelModel":
        """Outputs 0, 1, and 2 (the erasure symbol)."""
        if not 0.0 <= eps <= 1.0:
            raise DomainError(f"erasure probability {eps} outside [0,1]")
        table = np.array([[1.0 - eps, 0.0, eps], [0.0, 1.0 - eps, eps]])
        return ChannelModel("bec", table, eps)

    @staticmethod
    def dmc(table) -> "ChannelModel":
        return ChannelModel("dmc", np.asarray(table, dtype=float))

    @property
    def output_size(self) -> int:
        return self.table.shape[1]

    def description(self) -> dict:
        return {"kind": self.kind, "table": [float(v) for v in self.table.reshape(-1)]}

    def sample(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling of outputs for an input bit vector."""
        return self._outputs(x, rng.random(x.shape[0])).astype(np.int64)

    def _outputs(self, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Outputs for 0/1 inputs x and uniforms r of one shape: r inverted (spectrum._cells) against the
        cdf of x's row, normalized to end at 1.0 so that no output lies past the table."""
        cdf = np.cumsum(self.table, axis=1)
        cdf /= cdf[:, -1:]
        return np.choose(x, [_cells(r, row) for row in cdf])  # ValueError for an x not 0 or 1


def parse_channel(text: str) -> ChannelModel:
    """Parse 'bsc(p)' or 'bec(eps)'."""
    return _parse_spec(text, {"bsc": ChannelModel.bsc, "bec": ChannelModel.bec}, "channel spec")


def induced_source(w: ChannelModel) -> JointSource:
    """The source (X, Y) ~ Q(x) W(y|x) with Q uniform on {0,1}."""
    return JointSource(FieldSpec.binary(), 0.5 * w.table)


def symmetric_capacity(w: ChannelModel) -> float:
    """I(X;Y) in bits under uniform inputs: 1 - H(X|Y) of the induced source."""
    return 1.0 - conditional_entropy(induced_source(w))


@dataclass(frozen=True, eq=False)
class DualityCode:
    N: int
    rate: float
    channel: ChannelModel
    source: JointSource  # induced source
    frozen_set: HighEntropySet  # high-entropy set of rate 1-R
    frozen_pattern: np.ndarray  # uint8 bits on the frozen positions
    pattern_seed: int
    spectrum: PolarSpectrum  # certified z bounds used for the set

    @property
    def data_size(self) -> int:
        return self.N - len(self.frozen_set.indices)

    def to_manifest(self) -> dict:
        return {
            "N": self.N,
            "R": self.rate,
            "frozen_indices": self.frozen_set.indices.tolist(),
            "pattern_seed": self.pattern_seed,
            "channel": self.channel.description(),
        }


def make_duality_code(w: ChannelModel, N: int, rate: float, pattern_seed: int) -> DualityCode:
    if not 0.0 < rate < 1.0:
        raise DomainError(f"rate {rate} outside (0, 1)")
    src = induced_source(w)
    spec = zbound_spectrum(src, N)
    frozen = build_high_entropy_set(spec, 1.0 - rate)
    rng = np.random.default_rng(_check_count(pattern_seed, "seed", 0))
    pattern = rng.integers(0, 2, size=len(frozen.indices), dtype=np.int64).astype(np.uint8)
    return DualityCode(
        N=N,
        rate=rate,
        channel=w,
        source=src,
        frozen_set=frozen,
        frozen_pattern=pattern,
        pattern_seed=pattern_seed,
        spectrum=spec,
    )


def channel_encode(data: np.ndarray, code: DualityCode) -> SymbolBlock:
    """Assemble u (frozen pattern + data bits) and transmit x = u G_N."""
    data = np.asarray(data, dtype=np.int64)
    if data.shape[0] != code.data_size:
        raise DomainError(f"expected {code.data_size} data bits, got {data.shape[0]}")
    return SymbolBlock(code.source.field, _encode_rows(data[None], code)[0])


def _encode_rows(data: np.ndarray, code: DualityCode) -> np.ndarray:
    """Codewords x = u G_N for each row of the (B, data_size) data bits, as uint8."""
    u = np.empty((data.shape[0], code.N), dtype=np.uint8)
    u[:, code.frozen_set.mask] = code.frozen_pattern
    u[:, ~code.frozen_set.mask] = data
    return _forward_rows(code.source.field, u)


def channel_decode(y, code: DualityCode) -> np.ndarray:
    """SC decoding with frozen positions known; returns the data bits."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise DomainError("received block must be one-dimensional")
    return channel_decode_batch(y[None], code)[0]


def channel_decode_batch(Y, code: DualityCode) -> np.ndarray:
    """Decode each row of the (B, N) received blocks; returns (B, data_size) uint8 data bits."""
    Y = np.asarray(Y)
    if Y.ndim != 2 or Y.shape[1] != code.N:
        raise DomainError(f"received blocks of shape {Y.shape} are not (blocks, N={code.N})")
    frozen = code.frozen_set
    P = np.broadcast_to(code.frozen_pattern, (len(Y), len(frozen.indices)))
    x_hat = decompress_blocks(P, Y, frozen, code.source)
    # x_hat is ours to overwrite, so its positions-major layout may be a view of it
    return _forward_take(code.source.field, np.ascontiguousarray(x_hat.T), _kept_rows(~frozen.mask))


def _trial_batches(trials: int, seed: int, N: int):
    """default_rng([seed, t]) of each trial t, in lists of batch_rows(N); checks trials, seed."""
    _check_count(trials, "trials", 1)
    _check_count(seed, "seed", 0)
    step = batch_rows(N)
    for s in range(0, trials, step):
        yield [np.random.default_rng([seed, t]) for t in range(s, min(s + step, trials))]


def simulate(w: ChannelModel, code: DualityCode, trials: int, seed: int) -> dict:
    """Seeded end-to-end trials; reports FER, BER and the union-bound certificate.

    Trial t draws its data bits and then N channel uniforms from
    default_rng([seed, t]).  Trials are encoded, sent through the channel,
    decoded and scored one decoder batch at a time.
    """
    frame_errors = bit_errors = 0
    k = code.data_size
    for rngs in _trial_batches(trials, seed, code.N):
        data = np.empty((len(rngs), k), dtype=np.int64)
        noise = np.empty((len(rngs), code.N))
        for r, rng in enumerate(rngs):
            data[r] = rng.integers(0, 2, size=k, dtype=np.int64)
            noise[r] = rng.random(code.N)
        Y = w._outputs(_encode_rows(data, code), noise)
        wrong = (channel_decode_batch(Y, code) != data).sum(axis=1)
        bit_errors += int(wrong.sum())
        frame_errors += int((wrong > 0).sum())
    ber = bit_errors / (trials * k) if k else 0.0
    bound = error_bound(code.frozen_set, code.spectrum)
    return {"fer": frame_errors / trials, "ber": ber, "bound": bound, "trials": trials}


def sw_simulate(cfg: SWConfig, trials: int, seed: int) -> dict:
    """Seeded Slepian-Wolf trials; reports the joint error rate and the union-bound certificate.

    Trial t draws N pairs (x, y) from default_rng([seed, t]) and fails if x or y decodes wrong.
    A trial's N uniforms are inverted against the joint cells' cdf (spectrum._cells), which
    gives the cells rng.choice(p=...) draws from the same stream, as Monte-Carlo construction
    draws them.
    """
    N = cfg.set_x.N
    cdf = _choice_cdf(cfg.joint)
    errors = 0
    for rngs in _trial_batches(trials, seed, N):
        draws = _cells(np.array([rng.random(N) for rng in rngs]), cdf)
        xs, ys = np.divmod(draws, cfg.joint.y_size)
        PX, PY = compress_blocks(xs, cfg.set_x), compress_blocks(ys, cfg.set_y)
        x_hat, y_hat = sw_decode_blocks(PX, PY, cfg)
        errors += int(((x_hat != xs).any(axis=1) | (y_hat != ys).any(axis=1)).sum())
    return {"joint_error_rate": errors / trials, "bound": sw_error_bound(cfg), "trials": trials}
