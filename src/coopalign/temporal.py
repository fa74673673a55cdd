"""Temporal fusion of BEV feature grids with a small pre-norm transformer.

Frames become tokens (one per cell) with a sinusoidal frame-index encoding
added. Layers use pre-norm residual wiring: z' = MSA(LN(z)) + z followed by
z_out = MLP(LN(z')) + z'. Attention runs over the full (frames x cells)
sequence. The forward pass is plain numpy.

``vit_forward`` skips a layer whose output weights ``wo``/``mlp_w2`` are zero
and whose output biases ``bo``/``mlp_b2`` are +0.0: both residual branches
are then exact +0.0 for finite input (barring overflow inside the skipped
attention or MLP), so the layer returns ``x + 0.0`` (which maps -0.0 to 0.0,
as the full layer does) without running LayerNorm, QKV, attention or the
MLP. Every layer of the passthrough encoder is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fusion import BevGrid

_LN_EPS = 1e-5


def temporal_encoding(t: int | float, dim: int) -> np.ndarray:
    """Sinusoidal encoding of a frame index.

    Even slots get sin(t / 10000^(2k / D)). Odd slots get
    cos(t / 10000^((2k + 1) / D)), so the cosine uses its own slot's exponent
    rather than sharing the sine's."""
    if dim < 2 or dim % 2 != 0:
        raise ValueError("dim must be a positive even number")
    if t < 0:
        raise ValueError("frame index must be non-negative")
    k = np.arange(dim // 2, dtype=float)
    enc = np.empty(dim)
    enc[0::2] = np.sin(t / np.power(10000.0, 2.0 * k / dim))
    enc[1::2] = np.cos(t / np.power(10000.0, (2.0 * k + 1.0) / dim))
    return enc


@dataclass(frozen=True, eq=False)
class TokenSequence:
    """Tokens with shape (T, N, D) plus the grid geometry they came from."""

    tokens: np.ndarray
    height: int
    width: int

    def __post_init__(self) -> None:
        tok = np.array(self.tokens, dtype=float)
        if tok.ndim != 3:
            raise ValueError("tokens must be (T, N, D)")
        if tok.shape[2] % 2 != 0:
            raise ValueError("token dimension must be even")
        if tok.shape[1] != self.height * self.width:
            raise ValueError("token count must equal height * width")
        if not np.isfinite(tok).all():
            raise ValueError("tokens must be finite")
        tok.setflags(write=False)
        object.__setattr__(self, "tokens", tok)

    @property
    def frames(self) -> int:
        return int(self.tokens.shape[0])

    @property
    def dim(self) -> int:
        return int(self.tokens.shape[2])


def project_channels(grid: BevGrid, weight: np.ndarray, bias: np.ndarray) -> BevGrid:
    """Linear per-cell map from the grid's channels to the token dimension."""
    w = np.asarray(weight, dtype=float)
    b = np.asarray(bias, dtype=float).reshape(-1)
    if w.ndim != 2 or w.shape[1] != grid.data.shape[0] or b.shape[0] != w.shape[0]:
        raise ValueError("weight must be (D, C) with bias (D,)")
    data = np.einsum("dc,chw->dhw", w, grid.data) + b[:, None, None]
    return BevGrid(grid.spec, data)


def tokenize(frames: Sequence[BevGrid]) -> TokenSequence:
    """Flatten each frame's cells into tokens and add the frame encoding.

    Frame indices run 1..T. All frames must share geometry and channel
    count, and the channel count is the token dimension."""
    if not frames:
        raise ValueError("need at least one frame")
    base = frames[0]
    for f in frames[1:]:
        if not f.spec.same_geometry(base.spec) or f.channels != base.channels:
            raise ValueError("frames must share geometry and channel count")
    dim = base.channels
    stacked = []
    for t_idx, f in enumerate(frames, start=1):
        flat = f.data.reshape(dim, -1).T
        stacked.append(flat + temporal_encoding(t_idx, dim))
    return TokenSequence(np.stack(stacked), base.spec.height, base.spec.width)


@dataclass(eq=False)
class LayerParams:
    """One pre-norm transformer layer."""

    ln1_scale: np.ndarray
    ln1_shift: np.ndarray
    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    ln2_scale: np.ndarray
    ln2_shift: np.ndarray
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray

    @staticmethod
    def zeros(dim: int, hidden: int) -> "LayerParams":
        return LayerParams(
            ln1_scale=np.ones(dim),
            ln1_shift=np.zeros(dim),
            wq=np.zeros((dim, dim)),
            bq=np.zeros(dim),
            wk=np.zeros((dim, dim)),
            bk=np.zeros(dim),
            wv=np.zeros((dim, dim)),
            bv=np.zeros(dim),
            wo=np.zeros((dim, dim)),
            bo=np.zeros(dim),
            ln2_scale=np.ones(dim),
            ln2_shift=np.zeros(dim),
            mlp_w1=np.zeros((hidden, dim)),
            mlp_b1=np.zeros(hidden),
            mlp_w2=np.zeros((dim, hidden)),
            mlp_b2=np.zeros(dim),
        )

    @staticmethod
    def seeded(dim: int, hidden: int, rng: np.random.Generator, scale: float = 0.2) -> "LayerParams":
        def mat(rows: int, cols: int) -> np.ndarray:
            return scale * rng.standard_normal((rows, cols)) / math.sqrt(cols)

        return LayerParams(
            ln1_scale=np.ones(dim),
            ln1_shift=np.zeros(dim),
            wq=mat(dim, dim),
            bq=np.zeros(dim),
            wk=mat(dim, dim),
            bk=np.zeros(dim),
            wv=mat(dim, dim),
            bv=np.zeros(dim),
            wo=mat(dim, dim),
            bo=np.zeros(dim),
            ln2_scale=np.ones(dim),
            ln2_shift=np.zeros(dim),
            mlp_w1=mat(hidden, dim),
            mlp_b1=np.zeros(hidden),
            mlp_w2=mat(dim, hidden),
            mlp_b2=np.zeros(dim),
        )


@dataclass(eq=False)
class EncoderParams:
    """Embedding projection plus the transformer stack."""

    embed_w: np.ndarray
    embed_b: np.ndarray
    layers: list[LayerParams]
    heads: int

    def __post_init__(self) -> None:
        dim = self.embed_w.shape[0]
        if self.heads < 1 or dim % self.heads != 0:
            raise ValueError("token dimension must divide evenly into heads")

    @property
    def dim(self) -> int:
        return int(self.embed_w.shape[0])

    @staticmethod
    def seeded(
        in_channels: int,
        dim: int,
        heads: int,
        num_layers: int,
        hidden: int,
        rng: np.random.Generator,
    ) -> "EncoderParams":
        embed_w = rng.standard_normal((dim, in_channels)) / math.sqrt(in_channels)
        return EncoderParams(
            embed_w=embed_w,
            embed_b=np.zeros(dim),
            layers=[LayerParams.seeded(dim, hidden, rng) for _ in range(num_layers)],
            heads=heads,
        )

    @staticmethod
    def passthrough(in_channels: int, dim: int, heads: int, num_layers: int, hidden: int) -> "EncoderParams":
        """Identity-style encoder: the embedding copies the input channels into
        the first slots and every layer has zero branch weights, so the stack
        is an exact residual identity. ``vit_forward`` skips such layers, so
        they cost nothing to run."""
        if dim < in_channels:
            raise ValueError("dim must be at least the input channel count")
        embed_w = np.zeros((dim, in_channels))
        embed_w[:in_channels, :in_channels] = np.eye(in_channels)
        return EncoderParams(
            embed_w=embed_w,
            embed_b=np.zeros(dim),
            layers=[LayerParams.zeros(dim, hidden) for _ in range(num_layers)],
            heads=heads,
        )


def _softmax_in_place(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Overwrite the float array x with its softmax along axis and return it:
    subtract the max, exponentiate, divide by the sum, each in place."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along axis. x is left unchanged: the only new array is a
    float copy of x, which the shift, exp and normalization overwrite."""
    return _softmax_in_place(np.array(x, dtype=float), axis)


def _layer_norm_forward(x: np.ndarray, scale: np.ndarray, shift: np.ndarray):
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    return xc * inv * scale + shift


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    s, d = x.shape
    return x.reshape(s, heads, d // heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, s, dh = x.shape
    return x.transpose(1, 0, 2).reshape(s, h * dh)


def _layer_forward_flat(layer: LayerParams, x: np.ndarray, heads: int):
    """One layer over flat (S, D) tokens; returns the output and attention.

    Attention holds one (heads, S, S) buffer: the scores are scaled, shifted,
    exponentiated and normalized in place. Each step is the elementwise
    operation that ``softmax(scores / sqrt(dh))`` runs, in the same order, so
    the result is bitwise that expression's while no second (heads, S, S)
    array is alive."""
    dim = x.shape[1]
    dh = dim // heads
    u = _layer_norm_forward(x, layer.ln1_scale, layer.ln1_shift)
    q = u @ layer.wq.T + layer.bq
    kk = u @ layer.wk.T + layer.bk
    v = u @ layer.wv.T + layer.bv
    qh = _split_heads(q, heads)
    kh = _split_heads(kk, heads)
    vh = _split_heads(v, heads)
    scores = qh @ kh.transpose(0, 2, 1)
    scores /= math.sqrt(dh)
    attn = _softmax_in_place(scores)
    ctx = _merge_heads(attn @ vh)
    msa = ctx @ layer.wo.T + layer.bo
    z1 = msa + x
    w = _layer_norm_forward(z1, layer.ln2_scale, layer.ln2_shift)
    a1 = w @ layer.mlp_w1.T + layer.mlp_b1
    h1 = np.tanh(a1)
    out = h1 @ layer.mlp_w2.T + layer.mlp_b2 + z1
    return out, attn


def vit_layer_forward(layer: LayerParams, z: TokenSequence, heads: int) -> TokenSequence:
    """One pre-norm layer over the full (frames x cells) token sequence."""
    t, n, d = z.tokens.shape
    out, _ = _layer_forward_flat(layer, z.tokens.reshape(t * n, d), heads)
    return TokenSequence(out.reshape(t, n, d), z.height, z.width)


def layer_attention(layer: LayerParams, z: TokenSequence, heads: int) -> np.ndarray:
    """Attention probabilities (heads, S, S) for diagnostics; rows sum to 1."""
    t, n, d = z.tokens.shape
    _, attn = _layer_forward_flat(layer, z.tokens.reshape(t * n, d), heads)
    return attn


def _is_identity_layer(layer: LayerParams) -> bool:
    """True when both residual branches of the layer are exact +0.0: zero
    output weights and +0.0 output biases (a -0.0 bias could keep a -0.0
    token negative, which ``x + 0.0`` would not)."""
    return not (
        layer.wo.any() or layer.mlp_w2.any() or layer.bo.any() or layer.mlp_b2.any()
        or np.signbit(layer.bo).any() or np.signbit(layer.mlp_b2).any()
    )


def vit_forward(params: EncoderParams, z: TokenSequence) -> TokenSequence:
    """Run the layer stack (the embedding is applied before tokenize).

    A layer with zero ``wo``/``mlp_w2`` and +0.0 ``bo``/``mlp_b2`` is skipped:
    its output is exactly ``x + 0.0``, bit for bit what the full layer
    computes whenever its attention and MLP stay finite (they always do for
    finite input unless the QKV or first MLP weights are large enough to
    overflow)."""
    t, n, d = z.tokens.shape
    flat = z.tokens.reshape(t * n, d)
    for layer in params.layers:
        if _is_identity_layer(layer):
            flat = flat + 0.0
        else:
            flat, _ = _layer_forward_flat(layer, flat, params.heads)
    return TokenSequence(flat.reshape(t, n, d), z.height, z.width)


def encode(params: EncoderParams, frames: Sequence[BevGrid]) -> BevGrid:
    """Project frames to the token dimension, tokenize with frame encodings,
    run the stack, and return the last frame's tokens as a D-channel grid."""
    projected = [project_channels(f, params.embed_w, params.embed_b) for f in frames]
    z = tokenize(projected)
    z = vit_forward(params, z)
    last = z.tokens[-1]
    spec = frames[-1].spec
    return BevGrid(spec, last.T.reshape(params.dim, spec.height, spec.width))

