"""Joint source models and their information measures.

A JointSource holds the finite table P_{X,Y}(x, y) with X over a size-q
alphabet and Y over a finite alphabet; y_size = 1 encodes "no side
information".  Conditional entropy is reported in base-q units so that it
always lies in [0, 1].
"""

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError, UnsupportedAlphabetError
from .field import FieldSpec

_SUM_TOL = 1e-12


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability {p} outside [0,1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _entropy_nats(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


@dataclass(frozen=True, eq=False)
class JointSource:
    field: FieldSpec
    probs: np.ndarray  # shape (q, y_size)

    def __post_init__(self):
        table = np.asarray(self.probs, dtype=float)
        if table.ndim != 2 or table.shape[0] != self.field.q or table.shape[1] < 1:
            raise DomainError(f"probability table must be q x y_size with q={self.field.q}")
        if not np.isfinite(table).all():
            raise DomainError("probability table has a non-finite entry")
        if (table < 0).any():
            raise DomainError("negative probability entry")
        total = table.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise DomainError(f"probabilities sum to {total}, not 1")
        table = table / total
        table.setflags(write=False)
        object.__setattr__(self, "probs", table)

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def y_size(self) -> int:
        return self.probs.shape[1]

    def p_y(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    def p_x(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def description(self) -> dict:
        """Canonical JSON-ready form, used in fingerprints and manifests."""
        return {
            "q": self.q,
            "y_size": self.y_size,
            "probs": [float(v) for v in self.probs.reshape(-1)],
        }

    def to_json(self) -> str:
        return json.dumps(self.description(), sort_keys=True)

    @staticmethod
    def from_description(desc: dict) -> "JointSource":
        missing = [k for k in ("q", "y_size", "probs") if type(desc) is not dict or k not in desc]
        if missing:
            raise FormatError(f"source description is not an object with {', '.join(missing)}")
        q, y_size, probs = desc["q"], desc["y_size"], desc["probs"]
        if type(q) is not int or type(y_size) is not int or q < 2 or y_size < 1:  # not 2.5, "2", true or -1
            raise FormatError(f"q={q!r}, y_size={y_size!r}: both must be integers, q >= 2 and y_size >= 1")
        if (type(probs) is not list or len(probs) != q * y_size
                or not all(type(p) in (int, float) for p in probs)):  # not "0.1", true or [0.1]
            raise FormatError(f"probs must be a flat list of q*y_size = {q * y_size} numbers")
        try:
            table = np.array(probs, dtype=float).reshape(q, y_size)
        except OverflowError:  # a JSON integer past float's range, such as 10**400
            raise FormatError("probs holds an integer too large for a float") from None
        return JointSource(FieldSpec.for_alphabet(q), table)

    @staticmethod
    def from_json(text: str) -> "JointSource":
        try:
            return JointSource.from_description(json.loads(text))
        except json.JSONDecodeError as exc:
            raise FormatError(f"source description is not JSON: {exc}") from None

    # Named presets ------------------------------------------------------

    @staticmethod
    def bernoulli(p: float) -> "JointSource":
        """X ~ Ber(p), no side information."""
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"probability {p} outside [0,1]")
        return JointSource(FieldSpec.binary(), np.array([[1.0 - p], [p]]))

    @staticmethod
    def bsc_pair(p: float) -> "JointSource":
        """Uniform X observed through a BSC with crossover p."""
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"probability {p} outside [0,1]")
        table = 0.5 * np.array([[1.0 - p, p], [p, 1.0 - p]])
        return JointSource(FieldSpec.binary(), table)

    @staticmethod
    def bec_pair(eps: float) -> "JointSource":
        """Uniform X observed through a BEC; y = 2 marks the erasure."""
        if not 0.0 <= eps <= 1.0:
            raise DomainError(f"probability {eps} outside [0,1]")
        table = 0.5 * np.array([[1.0 - eps, 0.0, eps], [0.0, 1.0 - eps, eps]])
        return JointSource(FieldSpec.binary(), table)


_SPEC_RE = re.compile(r"^\s*(\w+)\s*\(\s*([+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)\s*\)\s*$")

_PRESETS = {
    "bernoulli": JointSource.bernoulli,
    "bsc_pair": JointSource.bsc_pair,
    "bec_pair": JointSource.bec_pair,
}


def _parse_spec(text: str, makers: dict, what: str):
    """makers[name](number) for a spec in the one grammar, name(number); else DomainError."""
    m = _SPEC_RE.match(text)
    if not m or m.group(1) not in makers:
        raise DomainError(f"unknown {what}: {text!r} (want name(number), name in {list(makers)})")
    return makers[m.group(1)](float(m.group(2)))


def parse_preset(text: str) -> JointSource:
    """Parse 'bernoulli(p)', 'bsc_pair(p)' or 'bec_pair(eps)'."""
    return _parse_spec(text, _PRESETS, "source preset")


def conditional_entropy(s: JointSource) -> float:
    """H(X|Y) in base-q units (lies in [0, 1])."""
    h_joint = _entropy_nats(s.probs.reshape(-1))
    h_y = _entropy_nats(s.p_y())
    return (h_joint - h_y) / math.log(s.q)


def bhattacharyya(s: JointSource) -> float:
    """Z(X|Y) = 2 sum_y P_Y(y) sqrt(P(0|y) P(1|y)); binary X only."""
    if not s.field.is_binary:
        raise UnsupportedAlphabetError("Bhattacharyya parameter requires q = 2")
    z = 2.0 * float(np.sqrt(s.probs[0] * s.probs[1]).sum())
    return min(z, 1.0)


def renyi_entropy(dist, alpha: float) -> float:
    """Renyi entropy of order alpha in bits (finite alpha > 0, alpha != 1).

    log2 sum p^alpha is taken as alpha log2 max p + log2 sum (p / max p)^alpha: the
    largest term of the second sum is 1, so it does not underflow to 0 at large alpha
    (0.5**2000 is 0).
    """
    p = np.asarray(dist, dtype=float)
    if p.ndim != 1 or not np.isfinite(p).all() or (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
        raise DomainError("invalid probability vector")
    if not math.isfinite(alpha) or alpha <= 0 or alpha == 1.0:
        raise DomainError(f"alpha must be finite, positive and != 1, got {alpha}")
    top = p.max()
    return (alpha * math.log2(top) + math.log2(float(((p[p > 0] / top) ** alpha).sum()))) / (1.0 - alpha)


@dataclass(frozen=True)
class ZHReport:
    z_sq: float
    h: float
    log1pz: float
    tight: bool


def check_z_h_inequalities(s: JointSource, tol: float = 1e-12) -> ZHReport:
    """Evaluate Z^2 <= H(X|Y) <= log2(1+Z) and report the three values.

    tight is True iff X given every y in the support is deterministic or
    uniform, the exact equality condition of both inequalities.
    """
    if not s.field.is_binary:
        raise UnsupportedAlphabetError("inequality suite requires q = 2")
    z = bhattacharyya(s)
    h = conditional_entropy(s)
    lo, hi = z * z, math.log2(1.0 + z)
    if h < lo - tol or h > hi + tol:
        raise AssertionError(f"Z/H inequality violated: {lo} <= {h} <= {hi}")
    # Equality needs every conditional to be deterministic, or every one
    # uniform; a mixture keeps both inequalities strict (Jensen step).
    py = s.p_y()
    p0 = s.probs[0, py > 0] / py[py > 0]  # P(0|y) over the support of Y
    tight = bool((np.minimum(p0, 1.0 - p0) <= tol).all() or (abs(p0 - 0.5) <= tol).all())
    return ZHReport(z_sq=lo, h=h, log1pz=hi, tight=tight)
