import struct
import time
import tracemalloc

import numpy as np
import pytest

from latentseal import codec, train, wire
from latentseal.codec import CodecModel, Layer
from latentseal.errors import IoError, NonFiniteLossError, ShapeMismatchError


def zero_model(n=16, m=4, hidden=8):
    enc = [Layer(np.zeros((hidden, n)), np.zeros(hidden)), Layer(np.zeros((m, hidden)), np.zeros(m))]
    dec = [Layer(np.zeros((hidden, m)), np.zeros(hidden)), Layer(np.zeros((n, hidden)), np.zeros(n))]
    return CodecModel(kind="neural", m=m, encoder=enc, decoder=dec)


def test_zero_weight_encode_is_zero():
    img = np.random.default_rng(0).integers(0, 256, (4, 4), dtype=np.uint8)
    assert np.all(zero_model().encode(img) == 0.0)


def test_zero_weight_decode_is_128():
    rec = zero_model().decode(np.random.default_rng(1).standard_normal(4), 4, 4)
    # sigmoid(0)*255 = 127.5 rounds half-to-even to 128
    assert np.all(rec == 128)


def _masked_sigmoid(x):
    """Test-only oracle: the logistic function by boolean-mask gathers and scatters."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bitwise_equals_masked_oracle():
    rng = np.random.default_rng(9)
    edges = np.array([0.0, -0.0, 700, -700, 745, -745, 1e308, -1e308, np.inf, -np.inf, 5e-324, -5e-324])
    for x in (rng.standard_normal(10**6) * 50, rng.standard_normal((64, 4096)) * 20, edges):
        got, want = codec.sigmoid(x), _masked_sigmoid(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_shape_mismatches():
    model = zero_model()
    with pytest.raises(ShapeMismatchError):
        model.encode(np.zeros((5, 5), dtype=np.uint8))
    with pytest.raises(ShapeMismatchError):
        model.decode(np.zeros(5), 4, 4)


def test_gradients_match_finite_differences():
    cfg = train.TrainConfig(m=3, hidden=(5,), seed=1)
    model = train.init_model(36, cfg, np.random.default_rng(1))
    X = np.random.default_rng(2).random((2, 36))
    acts, _, d_out = train._reconstruction(model, X)
    grads = train._autoencoder_grads(model, acts, d_out)
    h = 1e-5
    worst = 0.0
    for li, layer in enumerate(model.encoder + model.decoder):
        for arr, g in ((layer.W, grads[li][0]), (layer.b, grads[li][1])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                lp = train._reconstruction(model, X)[1]
                arr[idx] = orig - h
                lm = train._reconstruction(model, X)[1]
                arr[idx] = orig
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8))
    assert worst < 1e-4


def test_single_image_overfit():
    img = np.random.default_rng(3).integers(0, 256, (8, 8), dtype=np.uint8)
    cfg = train.TrainConfig(m=8, hidden=(32,), lr=0.05, epochs=200, seed=7, batch_size=1)
    result = train.train_autoencoder([img], cfg)
    model, trace = result.model, result.ae_losses
    init = train.init_model(64, cfg, np.random.default_rng(7))
    assert len(trace) == 200
    assert trace[-1] < 0.25 * train._reconstruction(init, train._dataset_matrix([img]))[1]
    rec = model.decode(model.encode(img), 8, 8)
    assert np.abs(rec.astype(float) - img).mean() < 16.0


def test_zero_epochs_returns_init():
    img = np.random.default_rng(4).integers(0, 256, (6, 6), dtype=np.uint8)
    cfg = train.TrainConfig(m=4, hidden=(8,), epochs=0, seed=5)
    result = train.train_autoencoder([img], cfg)
    init = train.init_model(36, cfg, np.random.default_rng(5))
    assert result.ae_losses == []
    for a, b in zip(result.model.encoder + result.model.decoder, init.encoder + init.decoder):
        assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


def test_trainer_deterministic():
    imgs = [np.random.default_rng(i).integers(0, 256, (8, 8), dtype=np.uint8) for i in range(4)]
    cfg = train.TrainConfig(m=6, hidden=(16,), epochs=30, seed=9, batch_size=2)
    r1 = train.train_autoencoder(imgs, cfg)
    r2 = train.train_autoencoder(imgs, cfg)
    assert r1.ae_losses == r2.ae_losses
    for a, b in zip(r1.model.encoder + r1.model.decoder, r2.model.encoder + r2.model.decoder):
        assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


def test_non_finite_loss_detected():
    img = np.zeros((4, 4), dtype=np.uint8)
    cfg = train.TrainConfig(m=2, hidden=(4,), epochs=1, seed=0, batch_size=1)
    model = train.init_model(16, cfg, np.random.default_rng(0))
    model.encoder[0].W[:] = np.nan
    X = train._dataset_matrix([img])
    with pytest.raises(NonFiniteLossError):
        train._autoencoder_step(model, X, cfg, [])


def test_gan_objective_values():
    assert train.gan_objective([0.5], [0.5]) == pytest.approx(-2 * np.log(2), abs=1e-12)
    eps = 1e-9
    assert train.gan_objective([1 - eps], [eps]) == pytest.approx(0.0, abs=1e-8)
    two = train.gan_objective([0.5, 0.5], [0.5, 0.5])
    assert two == pytest.approx(-2 * np.log(2), abs=1e-12)


def test_gan_objective_clamps_and_bounds():
    # clamped at the boundaries, so always finite and <= 0
    val = train.gan_objective([0.0, 1.0], [0.0, 1.0])
    assert np.isfinite(val)
    rng = np.random.default_rng(8)
    for _ in range(50):
        v = train.gan_objective(rng.random(5), rng.random(5))
        assert v <= 0.0


def test_lambda_zero_builds_no_discriminator():
    imgs = [np.random.default_rng(i).integers(0, 256, (8, 8), dtype=np.uint8) for i in range(6)]
    cfg = train.TrainConfig(m=5, hidden=(12,), epochs=15, seed=11, batch_size=3, lam=0.0)
    result = train.train_autoencoder(imgs, cfg)
    assert result.discriminator == [] and result.disc_losses == []
    assert len(result.ae_losses) == 15


def test_adversarial_smoke():
    rng = np.random.default_rng(21)
    imgs = [rng.integers(0, 256, (16, 16), dtype=np.uint8) for _ in range(32)]
    cfg = train.TrainConfig(m=12, hidden=(32,), epochs=50, seed=2, batch_size=8, lam=0.1)
    result = train.train_autoencoder(imgs, cfg)
    assert len(result.disc_losses) == len(result.ae_losses) == 50
    assert all(np.isfinite(v) for v in result.ae_losses)
    assert all(np.isfinite(v) for v in result.disc_losses)
    X = train._dataset_matrix(imgs)
    fake = train._forward(result.model, X)[-1]
    p_real = codec.forward(result.discriminator, X, codec.sigmoid)[-1].ravel()
    p_fake = codec.forward(result.discriminator, fake, codec.sigmoid)[-1].ravel()
    acc = (np.sum(p_real > 0.5) + np.sum(p_fake <= 0.5)) / (len(p_real) + len(p_fake))
    assert 0.4 <= acc <= 1.0


def test_discriminator_widths_are_a_constant():
    imgs = [np.random.default_rng(i).integers(0, 256, (4, 4), dtype=np.uint8) for i in range(4)]
    result = train.train_autoencoder(imgs, train.TrainConfig(m=3, hidden=(6,), epochs=1, lam=0.1))
    assert [layer.W.shape[0] for layer in result.discriminator] == [*train.DISC_HIDDEN, 1] == [32, 1]
    assert "disc_hidden" not in vars(train.TrainConfig())


def test_init_model_refuses_what_save_model_would_refuse_before_drawing_weights(tmp_path, monkeypatch):
    config = train.TrainConfig(m=3, hidden=(5, 4))
    path = tmp_path / "model.lscm"
    # 63 hidden widths give stacks of MAX_LAYERS = 64 layers, which save; 64 widths give 65
    codec.save_model(train.init_model(16, train.TrainConfig(m=3, hidden=(4,) * 63), np.random.default_rng(0)), path)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(IoError, match=r"a layer stack holds 65 layers, outside 1\.\.64"):
        train.init_model(16, train.TrainConfig(m=3, hidden=(4,) * 64), rng)
    assert rng.bit_generator.state == state
    codec.save_model(train.init_model(16, config, np.random.default_rng(0)), path)
    monkeypatch.setattr(train, "MODEL_CAP", path.stat().st_size)  # the cap a model of exactly this size meets
    train.init_model(16, config, np.random.default_rng(0))
    monkeypatch.setattr(train, "MODEL_CAP", path.stat().st_size - 1)
    with pytest.raises(IoError, match="model cap"):
        train.init_model(16, config, np.random.default_rng(0))


def test_train_refuses_an_over_cap_model_before_building_the_float_matrix(monkeypatch):
    monkeypatch.setattr(train, "MODEL_CAP", 1)
    monkeypatch.setattr(train, "_dataset_matrix", lambda dataset: pytest.fail("built the float matrix"))
    config = train.TrainConfig(m=2, hidden=(4,))
    img = np.zeros((4, 4), dtype=np.uint8)
    # the refusal order: an empty set, then mixed shapes, then the cap
    with pytest.raises(ValueError):
        train.train_autoencoder([], config)
    with pytest.raises(ShapeMismatchError):
        train.train_autoencoder([img, np.zeros((4, 5), dtype=np.uint8)], config)
    with pytest.raises(IoError, match="model cap"):
        train.train_autoencoder([img, img], config)


def test_dataset_matrix_holds_the_set_in_floats_once():
    rng = np.random.default_rng(4)
    imgs = [rng.integers(0, 256, (64, 64), dtype=np.uint8) for _ in range(16)]
    tracemalloc.start()
    try:
        X = train._dataset_matrix(imgs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * X.nbytes
    # each pixel takes the same IEEE operations as one float copy per image did
    assert X.tobytes() == np.stack([img.astype(np.float64).ravel() / 255.0 for img in imgs]).tobytes()


def test_neural_model_file_round_trip(tmp_path):
    img = np.random.default_rng(6).integers(0, 256, (8, 8), dtype=np.uint8)
    cfg = train.TrainConfig(m=5, hidden=(10,), epochs=5, seed=3, batch_size=1)
    model = train.train_autoencoder([img], cfg).model
    path = tmp_path / "model.lscm"
    codec.save_model(model, path)
    loaded = codec.load_model(path)
    assert loaded.kind == "neural" and loaded.m == 5
    assert np.array_equal(loaded.encode(img), model.encode(img))
    v = model.encode(img)
    assert np.array_equal(loaded.decode(v, 8, 8), model.decode(v, 8, 8))


def test_neural_codec_decode_matches_copying_quantize():
    # zero weights make every pixel sigmoid(bias) * 255: 127.5 (a tie), 255, 0 and near-ties
    model = zero_model()
    model.decoder[-1].b[:] = [0.0, 40.0, -40.0, -800.0, 800.0, 1.0, -1.0, -5.0, 5.0, -6.3, 6.3, 0.01, 0, 0, 0, 0]
    v = np.random.default_rng(4).standard_normal(4)
    kept = v.copy()
    pixels = codec.forward(model.decoder, v, codec.sigmoid)[-1] * 255.0
    expected = np.clip(np.rint(pixels), 0, 255).astype(np.uint8).reshape(4, 4)
    assert np.array_equal(model.decode(v, 4, 4), expected)
    assert np.array_equal(v, kept)


@pytest.mark.parametrize("n_out,n_in", [(0xFFFFFFFF, 0xFFFFFFFF), (1000, 1000), (1, 3)])
def test_load_model_rejects_layer_larger_than_file(tmp_path, n_out, n_in):
    # the header promises 8 * n_out * (n_in + 1) bytes; the file holds 16
    path = tmp_path / "forged.lscm"
    path.write_bytes(
        codec.MODEL_MAGIC + struct.pack("<BBI", codec.MODEL_VERSION, wire.KIND_NEURAL, 4)
        + struct.pack("<I", 1) + struct.pack("<II", n_out, n_in) + bytes(16)
    )
    with pytest.raises(IoError):
        codec.load_model(path)


def _header(m=4):
    return codec.MODEL_MAGIC + struct.pack("<BBI", codec.MODEL_VERSION, wire.KIND_NEURAL, m)


def test_load_model_refuses_a_million_empty_layers_fast(tmp_path):
    # 7.6 MiB of 0x0 layers used to load, in 18 s and 554 MB; the count is now checked first
    path = tmp_path / "empty_layers.lscm"
    stack = struct.pack("<I", 1_000_000) + bytes(8 * 1_000_000)
    path.write_bytes(_header(0) + stack + stack)
    start = time.perf_counter()
    with pytest.raises(IoError, match="1000000 layers"):
        codec.load_model(path)
    assert time.perf_counter() - start < 1.0


def _deep_model(encoder_layers, decoder_layers):
    rng = np.random.default_rng(7)

    def layer(n_out, n_in):
        return Layer(rng.standard_normal((n_out, n_in)), rng.standard_normal(n_out))

    encoder = [layer(4, 4) for _ in range(encoder_layers - 1)] + [layer(2, 4)]
    decoder = [layer(4, 2)] + [layer(4, 4) for _ in range(decoder_layers - 1)]
    return CodecModel(kind="neural", m=2, encoder=encoder, decoder=decoder)


@pytest.mark.parametrize("encoder_layers,decoder_layers", [(1, 1), (codec.MAX_LAYERS, codec.MAX_LAYERS), (1, codec.MAX_LAYERS)])
def test_model_with_1_to_max_layers_per_stack_round_trips(tmp_path, encoder_layers, decoder_layers):
    model = _deep_model(encoder_layers, decoder_layers)
    path = tmp_path / "deep.lscm"
    codec.save_model(model, path)
    loaded = codec.load_model(path)
    assert loaded.m == 2 and len(loaded.encoder) == encoder_layers and len(loaded.decoder) == decoder_layers
    for got, want in zip(loaded.encoder + loaded.decoder, model.encoder + model.decoder):
        assert np.array_equal(got.W, want.W) and np.array_equal(got.b, want.b)
        assert got.W.flags.aligned and got.W.flags.owndata and got.b.flags.owndata


@pytest.mark.parametrize("encoder_layers,decoder_layers", [(codec.MAX_LAYERS + 1, 1), (1, codec.MAX_LAYERS + 1)])
def test_save_and_load_refuse_a_stack_over_max_layers(tmp_path, encoder_layers, decoder_layers):
    model = _deep_model(encoder_layers, decoder_layers)
    path = tmp_path / "too_deep.lscm"
    with pytest.raises(IoError, match=f"{codec.MAX_LAYERS + 1} layers"):
        codec.save_model(model, path)
    assert not path.exists()
    path.write_bytes(_header(2) + codec._layers_bytes(model.encoder) + codec._layers_bytes(model.decoder))
    with pytest.raises(IoError, match=f"{codec.MAX_LAYERS + 1} layers"):
        codec.load_model(path)


@pytest.mark.parametrize("n_out", [25, 9])
def test_save_and_load_refuse_a_decoder_that_cannot_rebuild_the_input(tmp_path, n_out):
    # encoder 16 -> 4 with decoder 4 -> 25 used to load and seal a 4x4 image,
    # failing only after the ECIES open ("decoder emits 25 pixels, header says 16")
    model = zero_model()
    model.decoder[-1] = Layer(np.zeros((n_out, 8)), np.zeros(n_out))
    path = tmp_path / "mismatch.lscm"
    with pytest.raises(IoError, match="do not cycle through m=4"):
        codec.save_model(model, path)
    assert not path.exists()
    path.write_bytes(_header(4) + codec._layers_bytes(model.encoder) + codec._layers_bytes(model.decoder))
    with pytest.raises(IoError, match="do not cycle through m=4"):
        codec.load_model(path)


def test_save_model_refuses_a_model_over_the_cap(tmp_path, monkeypatch):
    model = _deep_model(1, 1)
    path = tmp_path / "big.lscm"
    codec.save_model(model, path)
    monkeypatch.setattr(codec, "MODEL_CAP", path.stat().st_size - 1)
    path.unlink()
    with pytest.raises(IoError):
        codec.save_model(model, path)
    assert not path.exists()


@pytest.mark.parametrize("cut", [-1, 1])
@pytest.mark.parametrize("model", [codec.dct_model(4), _deep_model(2, 2)], ids=["dct", "neural"])
def test_load_model_refuses_bytes_past_or_short_of_the_end(tmp_path, cut, model):
    path = tmp_path / "model.lscm"
    codec.save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:cut] if cut < 0 else data + bytes(cut))
    with pytest.raises(IoError):
        codec.load_model(path)
