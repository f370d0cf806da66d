"""Small dense linear-algebra kernels, reproducible random streams and the stream map.

Everything here is 64-bit and pure; these are the primitives the rest of
the package builds on. The stream map names the purpose of each stream id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError

__all__ = [
    "SymMat2",
    "RngStream",
    "spd_inverse_2x2",
    "eig_2x2",
    "svd_3x3",
]


@dataclass(frozen=True)
class SymMat2:
    """Symmetric 2x2 matrix [[a, b], [b, c]]."""

    a: float
    b: float
    c: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.b, self.c]], dtype=np.float64)

    @classmethod
    def from_array(cls, m) -> "SymMat2":
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (2, 2):
            raise ValueError(f"expected 2x2 matrix, got shape {m.shape}")
        # symmetrize to absorb roundoff from upstream products
        b = 0.5 * (m[0, 1] + m[1, 0])
        return cls(float(m[0, 0]), float(b), float(m[1, 1]))

    @property
    def det(self) -> float:
        return self.a * self.c - self.b * self.b

    def is_positive_definite(self) -> bool:
        return self.a > 0.0 and self.det > 0.0


# The stream map: each purpose's stream id, or the base of its id range.
TRAJECTORY_STREAMS = 0      # + frame * MAX_HYPOTHESES + hypothesis; `sample` draws frame 0's
SYNTH_TRAIN_STREAM = 1      # synth training poses; ids 1-3 are frame 0's too, a known overlap
SYNTH_HELDOUT_STREAM = 2    # synth held-out poses
SYNTH_OBS_STREAM = 3        # synth roots, keypoint and root-estimate noise
INIT_STREAM = 1 << 40       # weight init
TRAIN_STREAM = INIT_STREAM + 1  # training batches, timesteps and noise
ROOT_STREAMS = 1 << 48      # + the hypothesis's trajectory id
MAX_HYPOTHESES = 1 << 24    # per frame, so one frame's ids never reach the next frame's
MAX_FRAMES = INIT_STREAM // MAX_HYPOTHESES  # so trajectory ids stay below INIT_STREAM


class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Distinct stream ids under one seed give statistically independent
    sequences; the same (seed, stream_id) replays bit-exactly, across
    processes and platforms. Both are taken modulo 2^64. Streams are
    cheap to create, so parallel work should own one stream per unit of
    work instead of sharing; the package's ids come from the stream map.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF
        # a uint64 key: numpy turns a list holding a value >= 2^63 into float64
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def integers(self, low, high, size=None) -> np.ndarray:
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def spd_inverse_2x2(m: SymMat2) -> SymMat2:
    """Invert a symmetric positive definite 2x2 matrix in closed form."""
    if not m.is_positive_definite():
        raise DefinitenessError(f"matrix not positive definite: {m}")
    inv_det = 1.0 / m.det
    return SymMat2(m.c * inv_det, -m.b * inv_det, m.a * inv_det)


def eig_2x2(m: SymMat2):
    """Eigendecomposition of a symmetric 2x2 matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues in descending
    order and eigenvectors as rows of a 2x2 array (orthonormal). The
    eigenvector branch is chosen to avoid cancellation, so the
    reconstruction V^T diag(w) V matches the input to near machine
    precision even for tiny off-diagonal entries.
    """
    a, b, c = m.a, m.b, m.c
    half_tr = 0.5 * (a + c)
    disc = np.hypot(0.5 * (a - c), b)
    w = np.array([half_tr + disc, half_tr - disc], dtype=np.float64)

    if b == 0.0:
        if a >= c:
            v1 = np.array([1.0, 0.0])
        else:
            v1 = np.array([0.0, 1.0])
    elif a >= c:
        # lambda_1 - c = (a-c)/2 + disc: both terms non-negative
        v1 = np.array([0.5 * (a - c) + disc, b])
    else:
        v1 = np.array([b, 0.5 * (c - a) + disc])
    v1 /= np.linalg.norm(v1)
    v2 = np.array([-v1[1], v1[0]])

    # deterministic sign: first nonzero component positive
    for v in (v1, v2):
        if v[0] < 0.0 or (v[0] == 0.0 and v[1] < 0.0):
            v *= -1.0
    return w, np.stack([v1, v2])


def svd_3x3(m):
    """SVD of a 3x3 matrix or a (..., 3, 3) stack: (U, s, V) with m = U @ diag(s) @ V.T.

    Singular values come back in descending order; U and V are
    orthogonal (determinant +-1). Backed by LAPACK, which is exact
    enough and deterministic for this fixed, tiny size; a stack runs
    the same routine on each matrix, so it gives each one's bits.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries in matrix")
    u, s, vh = np.linalg.svd(m)
    return u, s, np.swapaxes(vh, -1, -2)

