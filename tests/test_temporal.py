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
    TokenSequence,
    _layer_forward_flat,
    encode,
    layer_attention,
    project_channels,
    softmax,
    temporal_encoding,
    tokenize,
    vit_forward,
    vit_layer_forward,
)
from conftest import blob_grid

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


def test_token_sequence_validation():
    with pytest.raises(ValueError):
        TokenSequence(np.zeros((2, 5, 4)), height=2, width=2)
    with pytest.raises(ValueError):
        TokenSequence(np.zeros((2, 4, 3)), height=2, width=2)
    with pytest.raises(ValueError):
        TokenSequence(np.full((1, 4, 4), np.nan), height=2, width=2)
    z = TokenSequence(np.zeros((3, 4, 6)), height=2, width=2)
    assert z.frames == 3 and z.dim == 6


def test_project_channels_matches_scalar_oracle():
    rng = np.random.default_rng(60)
    spec = GridSpec.centered(4, 3, 1.0)
    grid = BevGrid(spec, rng.standard_normal((2, 3, 4)))
    w = rng.standard_normal((5, 2))
    b = rng.standard_normal(5)
    out = project_channels(grid, w, b)
    assert out.data.shape == (5, 3, 4)
    for d in range(5):
        for i in range(3):
            for j in range(4):
                want = b[d] + sum(w[d, c] * grid.data[c, i, j] for c in range(2))
                assert abs(out.data[d, i, j] - want) < 1e-12
    with pytest.raises(ValueError):
        project_channels(grid, rng.standard_normal((5, 3)), b)


def test_tokenize_adds_frame_encoding():
    rng = np.random.default_rng(61)
    spec = GridSpec.centered(3, 2, 1.0)
    frames = [BevGrid(spec, rng.standard_normal((4, 2, 3))) for _ in range(3)]
    z = tokenize(frames)
    assert z.tokens.shape == (3, 6, 4)
    for t_idx, f in enumerate(frames, start=1):
        flat = f.data.reshape(4, -1).T
        np.testing.assert_array_equal(z.tokens[t_idx - 1], flat + temporal_encoding(t_idx, 4))


def test_tokenize_rejects_mismatched_frames():
    rng = np.random.default_rng(62)
    a = BevGrid(GridSpec.centered(3, 2, 1.0), rng.standard_normal((4, 2, 3)))
    b = BevGrid(GridSpec.centered(3, 2, 1.0), rng.standard_normal((2, 2, 3)))
    with pytest.raises(ValueError):
        tokenize([a, b])
    with pytest.raises(ValueError):
        tokenize([])


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


def _layer_forward_out_of_place(layer, x, heads):
    """_layer_forward_flat with out-of-place attention: four (heads, S, S)
    arrays alive at once."""
    dim = x.shape[1]
    dh = dim // heads
    ln = temporal._layer_norm_forward
    u = ln(x, layer.ln1_scale, layer.ln1_shift)
    qh = temporal._split_heads(u @ layer.wq.T + layer.bq, heads)
    kh = temporal._split_heads(u @ layer.wk.T + layer.bk, heads)
    vh = temporal._split_heads(u @ layer.wv.T + layer.bv, heads)
    scores = qh @ kh.transpose(0, 2, 1) / math.sqrt(dh)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    attn = e / e.sum(axis=-1, keepdims=True)
    z1 = temporal._merge_heads(attn @ vh) @ layer.wo.T + layer.bo + x
    w = ln(z1, layer.ln2_scale, layer.ln2_shift)
    out = np.tanh(w @ layer.mlp_w1.T + layer.mlp_b1) @ layer.mlp_w2.T + layer.mlp_b2 + z1
    return out, attn


def test_in_place_attention_matches_out_of_place_bitwise():
    rng = np.random.default_rng(69)
    cases = [
        (dim, heads, frames, int(rng.integers(2, 13)))
        for dim in range(2, 17)
        for heads in range(1, dim + 1)
        if dim % heads == 0
        for frames in (1, 2, 3)
    ]
    cases += [(8, 4, frames, side) for frames in (1, 2, 3) for side in range(2, 13)]
    for dim, heads, frames, side in cases:
        layer = LayerParams.seeded(dim, 2 * dim, rng, scale=rng.uniform(0.2, 3.0))
        x = 2.0 * rng.standard_normal((frames * side * side, dim))
        got, got_attn = _layer_forward_flat(layer, x, heads)
        want, want_attn = _layer_forward_out_of_place(layer, x, heads)
        assert got.tobytes() == want.tobytes()
        assert got_attn.tobytes() == want_attn.tobytes()


def test_attention_peak_memory_is_one_score_buffer():
    rng = np.random.default_rng(70)
    tokens, dim, heads = 2048, 8, 2
    layer = LayerParams.seeded(dim, 16, rng)
    x = rng.standard_normal((tokens, dim))
    score_bytes = heads * tokens * tokens * 8
    tracemalloc.start()
    try:
        _, attn = _layer_forward_flat(layer, x, heads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert attn.nbytes == score_bytes
    assert peak <= 1.25 * score_bytes


def _layer_forward_scalar(layer, x, heads):
    """Independent loop-based reimplementation of one layer."""
    s, d = x.shape
    dh = d // heads

    def ln(v, scale, shift):
        out = np.zeros_like(v)
        for i in range(s):
            mu = v[i].mean()
            var = ((v[i] - mu) ** 2).mean()
            out[i] = (v[i] - mu) / math.sqrt(var + 1e-5) * scale + shift
        return out

    u = ln(x, layer.ln1_scale, layer.ln1_shift)
    q = u @ layer.wq.T + layer.bq
    k = u @ layer.wk.T + layer.bk
    v = u @ layer.wv.T + layer.bv
    ctx = np.zeros((s, d))
    for hh in range(heads):
        sl = slice(hh * dh, (hh + 1) * dh)
        for i in range(s):
            scores = np.array([q[i, sl] @ k[j, sl] for j in range(s)]) / math.sqrt(dh)
            e = np.exp(scores - scores.max())
            a = e / e.sum()
            ctx[i, sl] = sum(a[j] * v[j, sl] for j in range(s))
    z1 = ctx @ layer.wo.T + layer.bo + x
    w = ln(z1, layer.ln2_scale, layer.ln2_shift)
    return np.tanh(w @ layer.mlp_w1.T + layer.mlp_b1) @ layer.mlp_w2.T + layer.mlp_b2 + z1


def test_layer_forward_matches_scalar_oracle():
    rng = np.random.default_rng(64)
    layer = LayerParams.seeded(4, 6, rng)
    tokens = rng.standard_normal((2, 3, 4))
    z = TokenSequence(tokens, height=1, width=3)
    got = vit_layer_forward(layer, z, heads=2).tokens
    want = _layer_forward_scalar(layer, tokens.reshape(6, 4), 2).reshape(2, 3, 4)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_passthrough_stack_is_exact_identity():
    rng = np.random.default_rng(65)
    params = EncoderParams.passthrough(in_channels=3, dim=4, heads=2, num_layers=3, hidden=8)
    tokens = rng.standard_normal((2, 4, 4))
    z = TokenSequence(tokens, height=2, width=2)
    out = vit_forward(params, z)
    np.testing.assert_array_equal(out.tokens, tokens)


def test_passthrough_encode_is_input_plus_frame_code():
    rng = np.random.default_rng(66)
    spec = GridSpec.centered(4, 4, 1.0)
    frames = [BevGrid(spec, rng.standard_normal((3, 4, 4))) for _ in range(2)]
    params = EncoderParams.passthrough(in_channels=3, dim=4, heads=2, num_layers=2, hidden=8)
    out = encode(params, frames)
    assert out.data.shape == (4, 4, 4)
    enc = temporal_encoding(2, 4)
    for c in range(3):
        np.testing.assert_allclose(out.data[c], frames[-1].data[c] + enc[c], atol=1e-12)
    np.testing.assert_allclose(out.data[3], enc[3], atol=1e-12)


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(67)
    layer = LayerParams.seeded(8, 12, rng)
    z = TokenSequence(rng.standard_normal((2, 6, 8)), height=2, width=3)
    attn = layer_attention(layer, z, heads=4)
    assert attn.shape == (4, 12, 12)
    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)


def test_encoder_params_validation():
    with pytest.raises(ValueError):
        EncoderParams.passthrough(in_channels=5, dim=4, heads=2, num_layers=1, hidden=4)
    with pytest.raises(ValueError):
        EncoderParams(np.zeros((6, 2)), np.zeros(6), [], heads=4)


def test_layer_is_permutation_equivariant():
    rng = np.random.default_rng(71)
    layer = LayerParams.seeded(6, 10, rng)
    x = rng.standard_normal((8, 6))
    perm = rng.permutation(8)
    out, _ = _layer_forward_flat(layer, x, heads=3)
    out_p, _ = _layer_forward_flat(layer, x[perm], heads=3)
    np.testing.assert_allclose(out_p, out[perm], atol=1e-10)


def _branchless_layer(rng, dim=4, hidden=6):
    """Random LayerNorm, QKV and first MLP weights; zero output branches."""
    layer = LayerParams.seeded(dim, hidden, rng, scale=1.0)
    for name in ("ln1_scale", "ln1_shift", "bq", "bk", "bv", "ln2_scale", "ln2_shift", "mlp_b1"):
        setattr(layer, name, rng.standard_normal(getattr(layer, name).shape))
    for name in ("wo", "bo", "mlp_w2", "mlp_b2"):
        setattr(layer, name, np.zeros_like(getattr(layer, name)))
    return layer


def _tokens_with_negative_zeros(rng, shape=(2, 4, 4)):
    tokens = rng.standard_normal(shape)
    tokens.reshape(-1)[::3] = -0.0
    return tokens


def test_skipped_layer_matches_full_layer_bitwise():
    rng = np.random.default_rng(73)
    layers = [_branchless_layer(rng) for _ in range(2)]
    tokens = _tokens_with_negative_zeros(rng)
    assert np.signbit(tokens).any() and (tokens == 0.0).any()
    params = EncoderParams(np.eye(4), np.zeros(4), layers, heads=2)
    got = vit_forward(params, TokenSequence(tokens, height=2, width=2)).tokens
    want = tokens.reshape(8, 4)
    for layer in layers:
        want, _ = _layer_forward_flat(layer, want, heads=2)
    assert got.tobytes() == want.reshape(2, 4, 4).tobytes()
    assert not np.signbit(got[got == 0.0]).any()


def _count_layer_calls(monkeypatch):
    calls = []

    def counted(layer, x, heads):
        calls.append(1)
        return _layer_forward_flat(layer, x, heads)

    monkeypatch.setattr(temporal, "_layer_forward_flat", counted)
    return calls


@pytest.mark.parametrize("name", ["wo", "bo", "mlp_w2", "mlp_b2"])
def test_one_nonzero_branch_entry_runs_the_layer(monkeypatch, name):
    rng = np.random.default_rng(74)
    layer = _branchless_layer(rng)
    tensor = getattr(layer, name)
    tensor.reshape(-1)[rng.integers(tensor.size)] = 1e-3
    tokens = rng.standard_normal((2, 4, 4))
    want, _ = _layer_forward_flat(layer, tokens.reshape(8, 4), heads=2)
    calls = _count_layer_calls(monkeypatch)
    params = EncoderParams(np.eye(4), np.zeros(4), [layer], heads=2)
    got = vit_forward(params, TokenSequence(tokens, height=2, width=2)).tokens
    assert len(calls) == 1
    assert got.tobytes() == want.reshape(2, 4, 4).tobytes()
    assert not np.array_equal(got, tokens)


@pytest.mark.parametrize("name", ["bo", "mlp_b2"])
def test_negative_zero_bias_runs_the_layer(monkeypatch, name):
    rng = np.random.default_rng(75)
    layer = _branchless_layer(rng)
    setattr(layer, name, np.full_like(getattr(layer, name), -0.0))
    calls = _count_layer_calls(monkeypatch)
    params = EncoderParams(np.eye(4), np.zeros(4), [layer], heads=2)
    vit_forward(params, TokenSequence(rng.standard_normal((1, 4, 4)), height=2, width=2))
    assert len(calls) == 1


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
