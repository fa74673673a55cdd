import math
import tracemalloc

import numpy as np
import pytest

from coopalign import temporal
from coopalign.config import EncoderConfig, ExperimentConfig, ScenarioParams
from coopalign.fusion import BevGrid, GridSpec
from coopalign.harness import _build_encoder, emit_sweep_report, run_noise_sweep
from coopalign.temporal import (
    EncoderParams,
    LayerParams,
    encode,
    softmax,
    temporal_encoding,
    vit_forward,
)
from conftest import blob_grid, record_attention_blocks

# values computed by hand from the closed form
_ENC_T1_D8 = [
    0.8414709848078965,
    0.9504152802551828,
    0.09983341664682815,
    0.9995000416652778,
    0.009999833334166664,
    0.9999950000041666,
    0.0009999998333333417,
    0.9999999500000004,
]
_ENC_T3_D4 = [
    0.1411200080598672,
    0.955336489125606,
    0.02999550020249566,
    0.999995500003375,
]


def test_temporal_encoding_frozen_values():
    np.testing.assert_allclose(temporal_encoding(1, 8), _ENC_T1_D8, atol=1e-15)
    np.testing.assert_allclose(temporal_encoding(3, 4), _ENC_T3_D4, atol=1e-15)


def test_temporal_encoding_closed_form_sweep():
    for dim in (4, 8, 16):
        for t in range(0, 65, 7):
            enc = temporal_encoding(t, dim)
            for k in range(dim // 2):
                assert abs(enc[2 * k] - math.sin(t / 10000.0 ** (2 * k / dim))) < 1e-12
                assert abs(enc[2 * k + 1] - math.cos(t / 10000.0 ** ((2 * k + 1) / dim))) < 1e-12


def test_temporal_encoding_zero_frame():
    enc = temporal_encoding(0, 10)
    np.testing.assert_array_equal(enc[0::2], 0.0)
    np.testing.assert_array_equal(enc[1::2], 1.0)


def test_temporal_encoding_validation():
    with pytest.raises(ValueError):
        temporal_encoding(1, 3)
    with pytest.raises(ValueError):
        temporal_encoding(1, 0)
    with pytest.raises(ValueError):
        temporal_encoding(-1, 4)


def test_encode_embedding_matches_scalar_oracle():
    rng = np.random.default_rng(60)
    spec = GridSpec.centered(4, 3, 1.0)
    grid = BevGrid(spec, rng.standard_normal((2, 3, 4)))
    w = rng.standard_normal((6, 2))
    out = encode(EncoderParams(w, [], heads=2), [grid])
    assert out.data.shape == (6, 3, 4)
    enc = temporal_encoding(1, 6)
    for d in range(6):
        for i in range(3):
            for j in range(4):
                want = sum(w[d, c] * grid.data[c, i, j] for c in range(2)) + enc[d]
                assert abs(out.data[d, i, j] - want) < 1e-12


def _full_layer(layer, x, heads):
    """One layer producing every row, in one (S, S) score buffer."""
    s = x.shape[0]
    return temporal._layer(layer, x, heads, np.empty((s, s)), s)


def _encode_full_query(params, frames, skipped_layers=0):
    """encode as it ran through validated wrappers, with queries for every
    frame in every layer: each frame projected into its own BevGrid, the
    tokens stacked as (T, N, D), copied, and run as a reshaped (T * N, D)
    view, then the last frame read back. The old passthrough encoder had
    zero-branch layers that the stack replaced by ``x + 0.0``;
    ``skipped_layers`` replays them."""
    projected = [
        BevGrid(f.spec, np.einsum("dc,chw->dhw", params.embed_w, f.data)) for f in frames
    ]
    dim = params.dim
    stacked = [f.data.reshape(dim, -1).T + temporal_encoding(t, dim) for t, f in enumerate(projected, start=1)]
    tokens = np.array(np.stack(stacked), dtype=float)
    t, n, d = tokens.shape
    flat = tokens.reshape(t * n, d)
    for _ in range(skipped_layers):
        flat = flat + 0.0
    for layer in params.layers:
        flat = _full_layer(layer, flat, params.heads)
    last = flat.reshape(t, n, d)[-1]
    spec = frames[-1].spec
    return BevGrid(spec, last.T.reshape(dim, spec.height, spec.width))


def test_encode_matches_full_query_path():
    # the final layer's queries cover the last frame only; a GEMM over fewer
    # rows may round differently, so only frames == 1 (same rows) and the
    # sweep-stress shape (2 frames, 32 x 32, dim 8, 2 heads) are pinned bitwise
    rng = np.random.default_rng(77)
    shapes = [
        (dim, heads, frames, int(rng.integers(2, 17)), int(rng.integers(2, 17)))
        for dim in (4, 8, 16)
        for heads in range(1, dim + 1)
        if dim % heads == 0
        for frames in (1, 2, 3)
    ]
    shapes += [(8, 2, 2, side, side) for side in range(2, 17)]
    for dim, heads, frames, height, width in shapes:
        channels = int(rng.integers(1, 5))
        spec = GridSpec.centered(width, height, 1.0)
        grids = [BevGrid(spec, rng.standard_normal((channels, height, width))) for _ in range(frames)]
        random = EncoderParams.seeded(channels, dim, heads, 2, 2 * dim, rng)
        got, want = encode(random, grids).data, _encode_full_query(random, grids).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        if frames == 1:
            assert got.tobytes() == want.tobytes()
        passthrough = EncoderParams.passthrough(channels, dim, heads)
        want = _encode_full_query(passthrough, grids, skipped_layers=int(rng.integers(0, 3)))
        assert encode(passthrough, grids).data.tobytes() == want.data.tobytes()
    spec = GridSpec.centered(32, 32, 1.0)
    grids = [BevGrid(spec, rng.standard_normal((4, 32, 32))) for _ in range(2)]
    for num_layers in (1, 2):
        stress = EncoderParams.seeded(4, 8, 2, num_layers, 16, rng)
        assert encode(stress, grids).data.tobytes() == _encode_full_query(stress, grids).data.tobytes()


def test_encode_validation():
    rng = np.random.default_rng(62)
    spec = GridSpec.centered(3, 2, 1.0)
    params = EncoderParams.passthrough(in_channels=4, dim=4, heads=2)
    good = BevGrid(spec, rng.standard_normal((4, 2, 3)))
    encode(params, [good, good])
    with pytest.raises(ValueError, match="at least one frame"):
        encode(params, [])
    for other in (
        BevGrid(GridSpec.centered(2, 3, 1.0), rng.standard_normal((4, 3, 2))),
        BevGrid(GridSpec.centered(3, 2, 0.5), rng.standard_normal((4, 2, 3))),
        BevGrid(spec, rng.standard_normal((2, 2, 3))),
    ):
        with pytest.raises(ValueError, match="share geometry and channel count"):
            encode(params, [good, other])
    with pytest.raises(ValueError, match="embedding width"):
        encode(EncoderParams.passthrough(in_channels=3, dim=4, heads=2), [good])


def test_softmax_rows_and_vjp():
    rng = np.random.default_rng(63)
    x = rng.standard_normal((5, 7))
    p = softmax(x)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert (p > 0).all()
    # large shift must not overflow
    assert np.isfinite(softmax(x + 1e4)).all()


def test_softmax_leaves_input_unchanged():
    rng = np.random.default_rng(68)
    x = rng.standard_normal((3, 5, 7))
    before = x.copy()
    for axis in (-1, 0, 1):
        p = softmax(x, axis=axis)
        assert p is not x
        np.testing.assert_allclose(p.sum(axis=axis), 1.0, atol=1e-12)
    assert x.tobytes() == before.tobytes()


def _layer_out_of_place(layer, x, heads, rows):
    """The layer's last ``rows`` output rows with out-of-place attention:
    four (heads, rows, S) arrays alive at once."""
    s, dim = x.shape
    dh = dim // heads
    ln = temporal._layer_norm_forward
    u = ln(x)
    qh = temporal._split_heads(u[s - rows:] @ layer.wq.T, heads)
    kh = temporal._split_heads(u @ layer.wk.T, heads)
    vh = temporal._split_heads(u @ layer.wv.T, heads)
    scores = qh @ kh.transpose(0, 2, 1) / math.sqrt(dh)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    attn = e / e.sum(axis=-1, keepdims=True)
    ctx = (attn @ vh).transpose(1, 0, 2).reshape(rows, dim)  # heads side by side
    z1 = ctx @ layer.wo.T + x[s - rows:]
    out = np.tanh(ln(z1) @ layer.mlp_w1.T) @ layer.mlp_w2.T + z1
    return out, attn


def test_in_place_attention_matches_out_of_place_bitwise(monkeypatch):
    rng = np.random.default_rng(69)
    cases = [
        (dim, heads, frames, int(rng.integers(2, 13)))
        for dim in range(2, 17)
        for heads in range(1, dim + 1)
        if dim % heads == 0
        for frames in (1, 2, 3)
    ]
    cases += [(8, 4, frames, side) for frames in (1, 2, 3) for side in range(2, 13)]
    blocks = record_attention_blocks(monkeypatch)
    for dim, heads, frames, side in cases:
        layer = LayerParams.seeded(dim, 2 * dim, rng, scale=rng.uniform(0.2, 3.0))
        s = frames * side * side
        x = 2.0 * rng.standard_normal((s, dim))
        for rows in (s, side * side):
            blocks.clear()
            got = temporal._layer(layer, x, heads, np.empty((rows, s)), rows)
            want, want_attn = _layer_out_of_place(layer, x, heads, rows)
            assert got.tobytes() == want.tobytes()
            assert np.concatenate(blocks).tobytes() == want_attn.tobytes()


def test_attention_peak_memory_is_one_score_buffer():
    # a one-layer stack reading out the last frame holds one (cells, S)
    # buffer, half of a 2-frame (S, S) one
    rng = np.random.default_rng(70)
    tokens, dim, heads = 2048, 8, 2
    cells = tokens // 2
    params = EncoderParams.seeded(4, dim, heads, num_layers=1, hidden=16, rng=rng)
    x = rng.standard_normal((tokens, dim))
    buffer_bytes = cells * tokens * 8
    tracemalloc.start()
    try:
        out = vit_forward(params, x, cells)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (cells, dim)
    assert peak <= 1.25 * buffer_bytes


def test_encoder_peak_memory_is_one_head_buffer():
    # vit_forward keeps no layer's attention: with more than one layer its
    # heads take turns in one (S, S) buffer, half of a 2-head score stack
    rng = np.random.default_rng(71)
    tokens, dim, heads = 2048, 8, 2
    params = EncoderParams.seeded(4, dim, heads, num_layers=2, hidden=16, rng=rng)
    x = rng.standard_normal((tokens, dim))
    buffer_bytes = tokens * tokens * 8
    tracemalloc.start()
    try:
        vit_forward(params, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * buffer_bytes


def _layer_forward_scalar(layer, x, heads):
    """Independent loop-based reimplementation of one layer."""
    s, d = x.shape
    dh = d // heads

    def ln(v):
        out = np.zeros_like(v)
        for i in range(s):
            mu = v[i].mean()
            var = ((v[i] - mu) ** 2).mean()
            out[i] = (v[i] - mu) / math.sqrt(var + 1e-5)
        return out

    u = ln(x)
    q = u @ layer.wq.T
    k = u @ layer.wk.T
    v = u @ layer.wv.T
    ctx = np.zeros((s, d))
    for hh in range(heads):
        sl = slice(hh * dh, (hh + 1) * dh)
        for i in range(s):
            scores = np.array([q[i, sl] @ k[j, sl] for j in range(s)]) / math.sqrt(dh)
            e = np.exp(scores - scores.max())
            a = e / e.sum()
            ctx[i, sl] = sum(a[j] * v[j, sl] for j in range(s))
    z1 = ctx @ layer.wo.T + x
    return np.tanh(ln(z1) @ layer.mlp_w1.T) @ layer.mlp_w2.T + z1


def test_layer_forward_matches_scalar_oracle():
    rng = np.random.default_rng(64)
    layer = LayerParams.seeded(4, 6, rng)
    tokens = rng.standard_normal((6, 4))
    want = _layer_forward_scalar(layer, tokens, 2)
    for rows in (6, 4, 1):
        got = temporal._layer(layer, tokens, 2, np.empty((6, 6)), rows)
        np.testing.assert_allclose(got, want[6 - rows:], atol=1e-12)


def test_passthrough_stack_is_exact_identity():
    rng = np.random.default_rng(65)
    params = EncoderParams.passthrough(in_channels=3, dim=4, heads=2)
    assert params.layers == []
    tokens = rng.standard_normal((8, 4))
    assert vit_forward(params, tokens).tobytes() == tokens.tobytes()


def test_passthrough_encode_is_input_plus_frame_code():
    rng = np.random.default_rng(66)
    spec = GridSpec.centered(4, 4, 1.0)
    frames = [BevGrid(spec, rng.standard_normal((3, 4, 4))) for _ in range(2)]
    params = EncoderParams.passthrough(in_channels=3, dim=4, heads=2)
    out = encode(params, frames)
    assert out.data.shape == (4, 4, 4)
    enc = temporal_encoding(2, 4)
    for c in range(3):
        np.testing.assert_allclose(out.data[c], frames[-1].data[c] + enc[c], atol=1e-12)
    np.testing.assert_allclose(out.data[3], enc[3], atol=1e-12)


def test_attention_rows_sum_to_one(monkeypatch):
    rng = np.random.default_rng(67)
    layer = LayerParams.seeded(8, 12, rng)
    blocks = record_attention_blocks(monkeypatch)
    temporal._layer(layer, rng.standard_normal((12, 8)), 4, np.empty((12, 12)), 12)
    assert [b.shape for b in blocks] == [(12, 12)] * 4  # one block per head
    np.testing.assert_allclose(np.concatenate(blocks).sum(axis=-1), 1.0, atol=1e-12)


def test_encoder_params_validation():
    with pytest.raises(ValueError):
        EncoderParams.passthrough(in_channels=5, dim=4, heads=2)
    with pytest.raises(ValueError):
        EncoderParams(np.zeros((6, 2)), [], heads=4)
    tokens = np.zeros((5, 4))
    seeded = EncoderParams.seeded(4, 4, 2, 1, 8, np.random.default_rng(0))
    for params in (EncoderParams.passthrough(4, 4, 2), seeded):
        for rows in (0, 6):
            with pytest.raises(ValueError, match="rows must lie in"):
                vit_forward(params, tokens, rows)


def test_layer_is_permutation_equivariant():
    rng = np.random.default_rng(71)
    layer = LayerParams.seeded(6, 10, rng)
    x = rng.standard_normal((8, 6))
    perm = rng.permutation(8)
    out = _full_layer(layer, x, heads=3)
    out_p = _full_layer(layer, x[perm], heads=3)
    np.testing.assert_allclose(out_p, out[perm], atol=1e-10)


def _branchless_layer(rng, dim=4, hidden=6):
    """Random QKV and first MLP weights; zero output branches."""
    layer = LayerParams.seeded(dim, hidden, rng, scale=1.0)
    layer.wo[:] = 0.0
    layer.mlp_w2[:] = 0.0
    return layer


def test_zero_branch_layer_is_exact_residual_identity():
    rng = np.random.default_rng(73)
    tokens = rng.standard_normal((8, 4))
    tokens.reshape(-1)[::3] = -0.0
    assert np.signbit(tokens).any() and (tokens == 0.0).any()
    out = _full_layer(_branchless_layer(rng), tokens, heads=2)
    # both residual branches add a signed zero, so the -0.0 tokens may come
    # back as +0.0: the identity holds by value
    assert np.array_equal(out, tokens)


def _count_layer_calls(monkeypatch):
    """Count the per-layer kernel calls that vit_forward makes."""
    calls = []
    kernel = temporal._layer

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(temporal, "_layer", counted)
    return calls


# vit_forward runs every layer it is given, near-identity ones included
@pytest.mark.parametrize("name", ["wo", "mlp_w2"])
def test_one_nonzero_branch_entry_runs_the_layer(monkeypatch, name):
    rng = np.random.default_rng(74)
    layer = _branchless_layer(rng)
    tensor = getattr(layer, name)
    tensor.reshape(-1)[rng.integers(tensor.size)] = 1e-3
    tokens = rng.standard_normal((8, 4))
    want = _full_layer(layer, tokens, heads=2)
    calls = _count_layer_calls(monkeypatch)
    params = EncoderParams(np.eye(4), [layer], heads=2)
    got = vit_forward(params, tokens)
    assert len(calls) == 1
    assert got.tobytes() == want.tobytes()
    assert not np.array_equal(got, tokens)


@pytest.mark.parametrize("mode, expected", [("passthrough", 0), ("random", 3)])
def test_layer_calls_per_encode(monkeypatch, mode, expected):
    cfg = ExperimentConfig(encoder=EncoderConfig(layers=3, mode=mode))
    params = _build_encoder(cfg)
    spec = GridSpec.centered(4, 4, 1.0)
    rng = np.random.default_rng(76)
    frames = [BevGrid(spec, rng.standard_normal((4, 4, 4))) for _ in range(2)]
    calls = _count_layer_calls(monkeypatch)
    encode(params, frames)
    assert len(calls) == expected
    encode(params, frames)
    assert len(calls) == 2 * expected


def test_passthrough_sweep_output_independent_of_layer_count(tmp_path):
    scenario = ScenarioParams(num_objects=5, points_per_box=50, ground_points=100)
    outputs = []
    for layers in (0, 3):
        cfg = ExperimentConfig(
            seed=3, num_scenarios=1, scenario=scenario,
            noise_levels=((0.0, 0.0), (1.0, 1.0)), encoder=EncoderConfig(layers=layers),
        )
        outputs.append(emit_sweep_report(run_noise_sweep(cfg), tmp_path / str(layers)))
    for key in ("results", "summary"):
        assert outputs[0][key].read_bytes() == outputs[1][key].read_bytes()
