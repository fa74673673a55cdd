"""Temporal fusion of BEV feature grids with a small pre-norm transformer.

Frames become tokens (one per cell) with a sinusoidal frame-index encoding
added. Layers use pre-norm residual wiring: z' = MSA(LN(z)) + z followed by
z_out = MLP(LN(z')) + z'. Attention runs over the full (frames x cells)
sequence, held as one flat (frames * cells, D) array from the embedding to
the output grid. Only the last frame's tokens become the output grid, so the
final layer computes queries, softmax, context and MLP for those rows only;
its keys and values still span every frame. When sqrt(dh) is a power of two
(head width 1, 4, 16, ...), the attention scale 1/sqrt(dh) is folded into the
queries, which is exact, instead of dividing every score. The forward pass is
plain numpy.

The encoder is seeded at random and never trained, so it holds only the
weight matrices it draws: the layer norm has no affine (no scale or shift),
and the embedding, the query, key, value and output projections and both MLP
projections have no bias.
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


@dataclass(eq=False)
class LayerParams:
    """One pre-norm transformer layer: its six weight matrices."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    mlp_w1: np.ndarray
    mlp_w2: np.ndarray

    @staticmethod
    def seeded(dim: int, hidden: int, rng: np.random.Generator, scale: float = 0.2) -> "LayerParams":
        def mat(rows: int, cols: int) -> np.ndarray:
            return scale * rng.standard_normal((rows, cols)) / math.sqrt(cols)

        return LayerParams(
            wq=mat(dim, dim),
            wk=mat(dim, dim),
            wv=mat(dim, dim),
            wo=mat(dim, dim),
            mlp_w1=mat(hidden, dim),
            mlp_w2=mat(dim, hidden),
        )


@dataclass(eq=False)
class EncoderParams:
    """Embedding projection plus the transformer stack."""

    embed_w: np.ndarray
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
            layers=[LayerParams.seeded(dim, hidden, rng) for _ in range(num_layers)],
            heads=heads,
        )

    @staticmethod
    def passthrough(in_channels: int, dim: int, heads: int) -> "EncoderParams":
        """Identity encoder: the embedding copies the input channels into the
        first token slots, and there are no layers."""
        if dim < in_channels:
            raise ValueError("dim must be at least the input channel count")
        embed_w = np.zeros((dim, in_channels))
        embed_w[:in_channels, :in_channels] = np.eye(in_channels)
        return EncoderParams(embed_w=embed_w, layers=[], heads=heads)


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


def _layer_norm_forward(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    return xc * inv


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    s, d = x.shape
    return x.reshape(s, heads, d // heads).transpose(1, 0, 2)


# Score rows softmaxed at a time: a block of this many rows stays in cache
# across the scale (only when it is not folded into the queries), shift,
# exp and normalization passes.
_SOFTMAX_BLOCK = 64


def _layer(layer: LayerParams, x: np.ndarray, heads: int, scores: np.ndarray, rows: int) -> np.ndarray:
    """One layer over flat (S, D) tokens, attention one head at a time,
    returning the output of the last ``rows`` tokens: keys and values span
    all S, queries, softmax, context and MLP the last ``rows`` only.

    Each head overwrites the first ``rows`` rows of the (>= rows, S) buffer
    scores: one matmul of its queries and keys into them, then, in blocks of
    _SOFTMAX_BLOCK rows, the scale by 1/sqrt(dh) and the shift,
    exponentiation and normalization of ``_softmax_in_place``, then those
    rows times the head's values into its columns of the context. The
    matmuls are the per-head products a batched ``(heads, rows, S)`` matmul
    makes, and every softmax step is elementwise or a per-row reduction, so
    the output is bitwise that of softmax(scores / sqrt(dh)) over all heads
    at once.

    When sqrt(dh) is a power of two, the queries are multiplied by 1/sqrt(dh)
    before the matmul instead, and the scores are not divided: one pass over
    (rows, D) queries in place of one over every head's (rows, S) scores.
    That is exact, because scaling by a power of two commutes with rounding:
    each product, each (fused) partial sum and the final score of
    ``(q / sqrt(dh)) . k`` is exactly that of ``q . k`` divided by sqrt(dh),
    unless one of them is subnormal or overflows. Layer-normed tokens keep
    ``|u| <= sqrt(D)``, so with any weights of sane magnitude (tested
    bitwise from 1e-100 to 1e100) none comes near either range."""
    s, dim = x.shape
    dh = dim // heads
    scale = math.sqrt(dh)
    fold = math.frexp(scale)[0] == 0.5  # scale is a power of two
    u = _layer_norm_forward(x)
    q = u[s - rows:] @ layer.wq.T
    if fold:
        q *= 1.0 / scale
    kk = u @ layer.wk.T
    v = u @ layer.wv.T
    qh = _split_heads(q, heads)
    kh = _split_heads(kk, heads)
    vh = _split_heads(v, heads)
    buf = scores[:rows]
    ctx = np.empty((rows, dim))
    for h in range(heads):
        np.matmul(qh[h], kh[h].T, out=buf)
        for start in range(0, rows, _SOFTMAX_BLOCK):
            block = buf[start : start + _SOFTMAX_BLOCK]
            if not fold:
                block /= scale
            _softmax_in_place(block)
        ctx[:, h * dh : (h + 1) * dh] = buf @ vh[h]
    z1 = ctx @ layer.wo.T + x[s - rows:]
    h1 = np.tanh(_layer_norm_forward(z1) @ layer.mlp_w1.T)
    return h1 @ layer.mlp_w2.T + z1


def vit_forward(params: EncoderParams, tokens: np.ndarray, rows: int | None = None) -> np.ndarray:
    """Run the layer stack over flat (S, D) tokens and return the last
    ``rows`` rows of its output (all S by default); ``encode`` embeds the
    frames first and reads out the last frame's rows. Only the final layer
    narrows its queries, softmax, context and MLP to those rows. Every head
    of every layer takes turns in one score buffer: (rows, S) for a
    one-layer stack, else (S, S), whose first rows the final layer uses."""
    s = tokens.shape[0]
    rows = s if rows is None else rows
    if not 1 <= rows <= s:
        raise ValueError("rows must lie in [1, number of tokens]")
    if not params.layers:
        return tokens[s - rows:]  # no score buffer: the array budget counts one only when layers run
    *earlier, final = params.layers
    buf = np.empty((s if earlier else rows, s))
    for layer in earlier:
        tokens = _layer(layer, tokens, params.heads, buf, s)
    return _layer(final, tokens, params.heads, buf, rows)


def encode(params: EncoderParams, frames: Sequence[BevGrid]) -> BevGrid:
    """Embed each frame's cells as tokens with frame index t = 1..T encoded,
    run the stack over all of them, and return the last frame's tokens as a
    D-channel grid; the final layer's queries are that frame's tokens only.

    All frames must share geometry and channel count, and the embedding must
    take that many channels. The tokens are stacked into one C-ordered
    (T * cells, D) array: the layer GEMMs round differently on an F-ordered
    one (as ``np.concatenate`` of the transposed frames would give), which
    moves some outputs by an ulp."""
    if not frames:
        raise ValueError("need at least one frame")
    base = frames[0]
    for f in frames[1:]:
        if not f.spec.same_geometry(base.spec) or f.channels != base.channels:
            raise ValueError("frames must share geometry and channel count")
    if params.embed_w.shape[1] != base.channels:
        raise ValueError("embedding width must equal the frames' channel count")
    dim = params.dim
    tokens = np.stack([
        np.einsum("dc,chw->dhw", params.embed_w, f.data).reshape(dim, -1).T + temporal_encoding(t, dim)
        for t, f in enumerate(frames, start=1)
    ]).reshape(-1, dim)
    spec = frames[-1].spec
    last = vit_forward(params, tokens, spec.height * spec.width)
    return BevGrid(spec, last.T.reshape(dim, spec.height, spec.width))
