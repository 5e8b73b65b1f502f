"""Desk-scale trainer for the neural codec: train_autoencoder(dataset, config).

Plain SGD with hand-derived gradients: pixel-MSE autoencoding, plus, when
config.lam != 0, lam times an adversarial term from a single image
discriminator played as a minimax game.  Deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import MAX_LAYERS, MODEL_CAP, CodecModel, Layer, forward, model_size, sigmoid
from .errors import IoError, NonFiniteLossError, ShapeMismatchError
from .images import check_image

PROB_CLAMP = 1e-12
DISC_LR = 0.05  # discriminator ascent step
DISC_HIDDEN = (32,)  # discriminator hidden layer widths


def gan_objective(d_real: np.ndarray, d_fake: np.ndarray) -> float:
    """mean log D(real) + mean log(1 - D(fake)), natural log, over non-empty batches, as _epoch makes them.

    The empirical minimax value; -2 ln 2 when every probability is 0.5.
    """
    d_real = np.clip(np.asarray(d_real, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    d_fake = np.clip(np.asarray(d_fake, dtype=np.float64), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(np.mean(np.log(d_real)) + np.mean(np.log1p(-d_fake)))


@dataclass
class TrainConfig:
    m: int = 16
    hidden: tuple[int, ...] = (64,)
    lr: float = 0.05
    epochs: int = 100
    seed: int = 0
    batch_size: int = 8
    lam: float = 0.0  # adversarial loss weight


@dataclass
class TrainResult:
    model: CodecModel
    ae_losses: list[float]  # per epoch
    disc_losses: list[float]  # per epoch; empty when lam == 0
    discriminator: list[Layer]  # empty when lam == 0


def _init_layers(dims: list[int], rng: np.random.Generator) -> list[Layer]:
    layers = []
    for n_in, n_out in zip(dims, dims[1:]):
        W = rng.normal(0.0, 1.0 / np.sqrt(n_in), size=(n_out, n_in))
        layers.append(Layer(W, np.zeros(n_out)))
    return layers


def init_model(input_size: int, config: TrainConfig, rng: np.random.Generator) -> CodecModel:
    """A random model, refused (IoError, as save_model would refuse it) before any
    weight is drawn if its .lscm file would exceed MODEL_CAP bytes or a stack MAX_LAYERS layers."""
    enc_dims = [input_size, *config.hidden, config.m]
    dec_dims = enc_dims[::-1]
    size = model_size(enc_dims, dec_dims)
    if size > MODEL_CAP:
        raise IoError(f"a model of layer widths {enc_dims} takes {size} bytes, over the {MODEL_CAP}-byte model cap")
    if len(enc_dims) - 1 > MAX_LAYERS:
        raise IoError(f"a layer stack holds {len(enc_dims) - 1} layers, outside 1..{MAX_LAYERS}")
    return CodecModel(
        kind="neural",
        m=config.m,
        encoder=_init_layers(enc_dims, rng),
        decoder=_init_layers(dec_dims, rng),
    )


def _checked(dataset: list[np.ndarray]) -> list[np.ndarray]:
    """The dataset, once it is non-empty and its images are 2-D uint8 arrays of one shape."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
    shapes = {check_image(img).shape for img in dataset}
    if len(shapes) != 1:
        raise ShapeMismatchError(f"dataset images differ in shape: {shapes}")
    return dataset


def _dataset_matrix(dataset: list[np.ndarray]) -> np.ndarray:
    X = np.stack(dataset).reshape(len(dataset), -1).astype(np.float64)
    return np.divide(X, 255.0, out=X)  # in place: the set is held in floats once


def _forward(model: CodecModel, X: np.ndarray):
    """Autoencoder pass keeping post-activation values for backprop."""
    acts = forward(model.encoder, X, None)  # linear bottleneck
    return acts + forward(model.decoder, acts[-1], sigmoid)[1:]


def _backward(layers: list[Layer], acts: list[np.ndarray], dz: np.ndarray, linear: int = -1):
    """Gradients of a scalar loss, given its gradient w.r.t. the last
    layer's pre-activation.  Hidden layers are tanh except the one at
    index `linear`, which has no activation.

    Returns the per-layer (dW, db) and the gradient w.r.t. the input.
    """
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = (dz.T @ acts[i], dz.sum(axis=0))
        dz = dz @ layers[i].W
        if i > 0 and i - 1 != linear:
            dz = dz * (1.0 - acts[i] * acts[i])  # tanh
    return grads, dz


def _reconstruction(model: CodecModel, X: np.ndarray):
    """Forward pass, loss, and d loss / d output.

    The loss is the squared pixel error summed per image and averaged
    over the batch; the per-pixel sum keeps gradient magnitudes usable
    at small learning rates.
    """
    acts = _forward(model, X)
    diff = acts[-1] - X
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    return acts, loss, 2.0 * diff / X.shape[0]


def _autoencoder_grads(model: CodecModel, acts: list[np.ndarray], d_out: np.ndarray):
    out = acts[-1]
    dz = d_out * out * (1.0 - out)  # sigmoid output
    return _backward(model.encoder + model.decoder, acts, dz, len(model.encoder) - 1)[0]


def _apply_sgd(chain: list[Layer], grads, lr: float) -> None:
    for layer, (dW, db) in zip(chain, grads):
        layer.W -= lr * dW
        layer.b -= lr * db


def train_autoencoder(dataset: list[np.ndarray], config: TrainConfig) -> TrainResult:
    """SGD on pixel MSE.  When config.lam != 0 each epoch first takes a
    discriminator-ascent pass, drawing from its own RNG stream so that the
    autoencoder's initial weights and batch order do not depend on lam."""
    rng = np.random.default_rng(config.seed)
    d_rng = np.random.default_rng((config.seed, 0x9E3779B9))
    model = init_model(np.size(_checked(dataset)[0]), config, rng)  # the cap, before any float is made
    X = _dataset_matrix(dataset)
    disc = _init_layers([X.shape[1], *DISC_HIDDEN, 1], d_rng) if config.lam != 0 else []
    result = TrainResult(model, [], [], disc)
    n, batch = len(X), config.batch_size
    for _ in range(config.epochs):
        if disc:
            fake = _forward(model, X)[-1]
            result.disc_losses.append(_epoch(d_rng, n, batch, lambda rows: _disc_step(disc, X[rows], fake[rows])))
            if not np.isfinite(result.disc_losses[-1]):
                raise NonFiniteLossError("discriminator objective diverged")
        result.ae_losses.append(_epoch(rng, n, batch, lambda rows: _autoencoder_step(model, X[rows], config, disc)))
    return result


def _epoch(rng: np.random.Generator, n: int, batch_size: int, step) -> float:
    """Mean of step(rows) over the batches of one shuffled pass through n rows."""
    order = rng.permutation(n)
    return float(np.mean([step(order[start : start + batch_size]) for start in range(0, n, batch_size)]))


def _autoencoder_step(model: CodecModel, batch: np.ndarray, config: TrainConfig, adversary: list[Layer]) -> float:
    """One descent step on the batch, with the adversarial term if there is an adversary; returns its loss."""
    acts, loss, d_out = _reconstruction(model, batch)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"loss diverged to {loss}; lower the learning rate")
    if adversary:
        d_out = d_out + config.lam * _generator_term_grad(adversary, acts[-1])
    _apply_sgd(model.encoder + model.decoder, _autoencoder_grads(model, acts, d_out), config.lr)
    return loss


def _generator_term_grad(disc: list[Layer], fake: np.ndarray) -> np.ndarray:
    """d mean(log(1 - D(fake))) / d fake, for the saturating generator term."""
    acts = forward(disc, fake, sigmoid)
    p = acts[-1]
    # d/dz log(1 - sigmoid(z)) = -sigmoid(z)
    return _backward(disc, acts, -p / p.shape[0])[1]


def _disc_step(disc: list[Layer], real: np.ndarray, fake: np.ndarray) -> float:
    """One ascent step on the minimax value; returns the objective."""
    acts_r = forward(disc, real, sigmoid)
    acts_f = forward(disc, fake, sigmoid)
    p_r, p_f = acts_r[-1], acts_f[-1]
    value = gan_objective(p_r.ravel(), p_f.ravel())
    # d/dz log sigmoid(z) = 1 - p ; d/dz log(1 - sigmoid(z)) = -p
    grads_r, _ = _backward(disc, acts_r, (1.0 - p_r) / p_r.shape[0])
    grads_f, _ = _backward(disc, acts_f, -p_f / p_f.shape[0])
    grads = [(dWr + dWf, dbr + dbf) for (dWr, dbr), (dWf, dbf) in zip(grads_r, grads_f)]
    _apply_sgd(disc, grads, -DISC_LR)  # ascent
    return value

