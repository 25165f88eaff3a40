"""Trainable predictors: segment MLP, direction LSTM, and the comparison baselines.

Every trainer is a pure function of (data, config, seed): epoch shuffling,
initialization, and any sampling draw from one numpy Generator seeded by the
config. The MLP and the LSTM train and predict in float32; the baselines stay
in float64. Probability outputs are float64 simplexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import nn
from .errors import BadArgument, InvalidConfig, TooFewRows


def _as_batch(x: np.ndarray, width: int, what: str, ndim: int = 2, dtype=float) -> np.ndarray:
    """`x` as a `dtype` batch of rank `ndim` whose last axis is `width` wide."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim != ndim:
        raise BadArgument(f"{what}: input of rank {x.ndim}, model expects a batch of rank {ndim}")
    if x.shape[-1] != width:
        raise BadArgument(f"{what}: input width {x.shape[-1]}, model expects {width}")
    return x


def _batches(rng: np.random.Generator, epochs: int, batch_size: int, *arrays: np.ndarray):
    """The rows of `arrays` in mini-batches: each epoch permutes the rows once and yields contiguous slices."""
    n = arrays[0].shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        shuffled = [a[order] for a in arrays]
        for start in range(0, n, batch_size):
            yield [a[start : start + batch_size] for a in shuffled]


def check_labels(values: np.ndarray, num_classes: int, what: str = "training label") -> None:
    """Every value must be a class index, a whole number in 0..num_classes - 1; the loss kernel checks no label."""
    if np.any((values < 0) | (values >= num_classes)):
        raise BadArgument(f"{what} outside 0..{num_classes - 1}")
    if (fractional := values[values != np.trunc(values)]).size:
        raise BadArgument(f"{what} {fractional[0]} is not a whole number")


def _check_adam(cfg) -> None:
    """The Adam settings an MlpConfig or LstmConfig must hold (NaN fails too)."""
    if cfg.epochs < 1 or cfg.batch_size < 1:
        raise InvalidConfig(f"epochs ({cfg.epochs}) and batch size ({cfg.batch_size}) must be at least 1")
    if not 0 < cfg.lr < np.inf:
        raise InvalidConfig(f"learning rate ({cfg.lr}) must be positive and finite")


def _float32(a: np.ndarray) -> np.ndarray:
    """A float array as float32; integer labels as they are."""
    return a.astype(np.float32) if a.dtype.kind == "f" else a


def _adam_fit(
    rng: np.random.Generator, params: nn.Params, cfg, loss_grad, *arrays: np.ndarray, decay: dict | None = None,
) -> nn.Params:
    """Seeded mini-batch Adam over the rows of `arrays`; `loss_grad(params, *batch)` scores one batch.

    Training runs in float32. The parameters are packed once, in sorted-name
    order, into one flat vector, and `loss_grad` gets them as views into it;
    each batch's gradients are concatenated in the same order, and `decay`
    (name -> per-element L2 coefficient) is packed once, zero where it names no
    tensor. `nn.adam_step` updates the vector in place. The float arrays are
    cast once; the `nn` kernels keep that dtype.
    """
    names = sorted(params)

    def pack(arrays: dict) -> np.ndarray:
        return np.concatenate([np.asarray(arrays[name], dtype=np.float32).reshape(-1) for name in names])

    theta = pack(params)
    ends = np.cumsum([params[name].size for name in names])
    views = {name: part.reshape(params[name].shape) for name, part in zip(names, np.split(theta, ends[:-1]))}
    if decay is not None:
        decay = pack({name: decay.get(name, np.zeros(params[name].shape)) for name in names})
    grad = np.empty_like(theta)
    state = nn.AdamState(alpha=cfg.lr)
    for batch in _batches(rng, cfg.epochs, cfg.batch_size, *map(_float32, arrays)):
        grads = loss_grad(views, *batch)[1]
        np.concatenate([grads[name].reshape(-1) for name in names], out=grad)
        nn.adam_step(state, theta, grad, decay)
    return views


# --- segment MLP ------------------------------------------------------------

MLP_HIDDEN = (64, 32)  # the widths of the segment MLP's two hidden layers


@dataclass(frozen=True)
class MlpConfig:
    input_width: int
    output: int = 4
    lr: float = 0.001
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        _check_adam(self)


def mlp_init(rng: np.random.Generator, cfg: MlpConfig) -> nn.Params:
    widths = (cfg.input_width, *MLP_HIDDEN, cfg.output)
    params = {}
    for i, (n_in, n_out) in enumerate(zip(widths, widths[1:]), start=1):
        params[f"w{i}"] = nn.glorot_uniform(rng, n_in, n_out, (n_out, n_in))
        params[f"b{i}"] = np.zeros(n_out)
    return params


def _mlp_layers(params: nn.Params, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The input of every layer and the output logits."""
    depth = len(params) // 2
    acts = [x]
    for i in range(1, depth):
        acts.append(nn.relu(acts[-1] @ params[f"w{i}"].T + params[f"b{i}"]))
    return acts, acts[-1] @ params[f"w{depth}"].T + params[f"b{depth}"]


def mlp_forward(params: nn.Params, x: np.ndarray) -> np.ndarray:
    return _mlp_layers(params, x)[1]


def mlp_loss_grad(params: nn.Params, x: np.ndarray, y: np.ndarray):
    depth = len(params) // 2
    acts, logits = _mlp_layers(params, x)
    loss, dlogits = nn.batch_softmax_cross_entropy(logits, nn.one_hot(y, logits.shape[1], logits.dtype))

    grads = {}
    delta = dlogits
    for i in range(depth, 0, -1):
        grads[f"w{i}"] = delta.T @ acts[i - 1]
        grads[f"b{i}"] = np.add.reduce(delta, axis=0)
        if i > 1:
            delta = (delta @ params[f"w{i}"]) * (acts[i - 1] > 0)
    return loss, grads


@dataclass
class MlpModel:
    params: nn.Params
    cfg: MlpConfig

    def predict_proba(self, x) -> np.ndarray:
        """Float64 probabilities from a forward pass in the weights' dtype."""
        xb = _as_batch(x, self.cfg.input_width, "mlp", dtype=self.params["w1"].dtype)
        return nn.softmax(mlp_forward(self.params, xb).astype(np.float64))

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=-1)

    def parameter_count(self) -> int:
        return sum(arr.size for arr in self.params.values())


def train_mlp(x: np.ndarray, y: np.ndarray, cfg: MlpConfig) -> MlpModel:
    """Mini-batch Adam training of the two-hidden-layer segment classifier."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.shape[0] == 0:
        raise TooFewRows("no training rows")
    if x.shape[1] != cfg.input_width:
        raise BadArgument(f"data width {x.shape[1]} != cfg.input_width {cfg.input_width}")
    check_labels(y, cfg.output)
    rng = np.random.default_rng(cfg.seed)
    params = _adam_fit(rng, mlp_init(rng, cfg), cfg, mlp_loss_grad, x, y)
    return MlpModel(params=params, cfg=cfg)


# --- direction LSTM ----------------------------------------------------------

DIRECTION_CLASSES = 2  # cw and ccw: the classes of the LSTM head and of the direction step


@dataclass(frozen=True)
class LstmConfig:
    input_width: int
    hidden_layers: int = 2
    hidden_size: int = 50
    l2: float = 0.01
    lr: float = 0.001
    epochs: int = 50
    batch_size: int = 32
    window_len: int = 5
    seed: int = 0
    # the one regime: each window is a row scored at its last step; read by the benchmark's train_lstm count hook
    mode: ClassVar[str] = "windowed"

    def __post_init__(self):
        _check_adam(self)
        if self.window_len < 2:
            raise InvalidConfig(f"window_len ({self.window_len}) must be at least 2")
        if self.hidden_layers < 1 or self.hidden_size < 1:
            raise InvalidConfig(f"lstm layers ({self.hidden_layers}) and hidden size ({self.hidden_size}) must be >= 1")
        if not 0 <= self.l2 < np.inf:
            raise InvalidConfig(f"lstm l2 ({self.l2}) must be finite and at least 0")


@dataclass
class SequenceData:
    """One participant-task as an ordered sample sequence with per-step labels."""

    x: np.ndarray  # (T, d)
    labels: np.ndarray  # (T,) int
    train_mask: np.ndarray  # (T,) bool: split membership of each step


def lstm_rows(seqs: list[SequenceData], cfg: LstmConfig):
    """Windows (N, W, d) of length W, stride 1, and the label and split flag of each window's last step."""
    width = seqs[0].x.shape[1]
    for seq in seqs:
        if seq.x.shape[1] != width:
            raise BadArgument(f"sequence width {seq.x.shape[1]} != {width}")
        if seq.x.shape[0] < cfg.window_len:
            raise TooFewRows(f"sequence of length {seq.x.shape[0]} shorter than window {cfg.window_len}")
    last = cfg.window_len - 1
    x = np.concatenate([sliding_window_view(seq.x, cfg.window_len, axis=0).swapaxes(1, 2) for seq in seqs])
    y = np.concatenate([seq.labels[last:] for seq in seqs])
    return x, y, np.concatenate([seq.train_mask[last:] for seq in seqs])


def lstm_init(rng: np.random.Generator, cfg: LstmConfig) -> nn.Params:
    params = {}
    n_in = cfg.input_width
    for layer in range(cfg.hidden_layers):
        cell = nn.LstmCell.init(rng, n_in, cfg.hidden_size)
        params[f"lstm{layer}_w"] = cell.w_gates
        params[f"lstm{layer}_b"] = cell.b_gates
        n_in = cfg.hidden_size
    params["head_w"] = nn.glorot_uniform(rng, cfg.hidden_size, DIRECTION_CLASSES, (DIRECTION_CLASSES, cfg.hidden_size))
    params["head_b"] = np.zeros(DIRECTION_CLASSES)
    return params


def _lstm_cells(params: nn.Params, cfg: LstmConfig) -> list[nn.LstmCell]:
    return [
        nn.LstmCell(params[f"lstm{layer}_w"], params[f"lstm{layer}_b"])
        for layer in range(cfg.hidden_layers)
    ]


def lstm_forward(params: nn.Params, cfg: LstmConfig, x: np.ndarray):
    """Stacked LSTM over (B, T, d) with ReLU between layers; logits of the last step."""
    cells = _lstm_cells(params, cfg)
    caches = []
    inputs = x
    for layer, cell in enumerate(cells):
        hs, layer_caches = nn.lstm_sequence_forward(cell, inputs)
        caches.append((inputs, hs, layer_caches))
        inputs = nn.relu(hs) if layer < len(cells) - 1 else hs
    return inputs[:, -1] @ params["head_w"].T + params["head_b"], caches


def lstm_loss_grad(params: nn.Params, cfg: LstmConfig, x: np.ndarray, y: np.ndarray):
    """Softmax-CE loss of the last step's logits against the (B,) labels, and full BPTT gradients."""
    logits, caches = lstm_forward(params, cfg, x)
    loss, d_logits = nn.batch_softmax_cross_entropy(logits, nn.one_hot(y, logits.shape[1], logits.dtype))

    top = caches[-1][1]  # last layer's raw hidden sequence; its last step feeds the head
    grads = {"head_w": d_logits.T @ top[:, -1], "head_b": np.add.reduce(d_logits, axis=0)}
    d_stream = np.zeros_like(top)
    d_stream[:, -1] = d_logits @ params["head_w"]

    cells = _lstm_cells(params, cfg)
    for layer in range(len(cells) - 1, -1, -1):
        _inputs, hs, layer_caches = caches[layer]
        if layer < len(cells) - 1:
            d_stream = d_stream * (hs > 0)  # inter-layer ReLU
        # layer 0's input gradient would be thrown away, so it is not computed
        d_stream, d_w, d_b = nn.lstm_sequence_backward(cells[layer], layer_caches, d_stream, input_grad=layer > 0)
        grads[f"lstm{layer}_w"] = d_w
        grads[f"lstm{layer}_b"] = d_b
    return loss, grads


@dataclass
class LstmModel:
    params: nn.Params
    cfg: LstmConfig

    def predict_proba(self, x) -> np.ndarray:
        """(B, 2) float64 probabilities of a (B, W, d) batch of windows, from each window's last step.

        The forward pass runs in the weights' dtype.
        """
        xb = _as_batch(x, self.cfg.input_width, "lstm", ndim=3, dtype=self.params["head_w"].dtype)
        if xb.shape[1] != self.cfg.window_len:
            raise BadArgument(f"window length {xb.shape[1]}, model expects {self.cfg.window_len}")
        return nn.softmax(lstm_forward(self.params, self.cfg, xb)[0].astype(np.float64))

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=-1)

    def parameter_count(self) -> int:
        return sum(arr.size for arr in self.params.values())


def _decay(params: nn.Params, cfg: LstmConfig) -> dict:
    """Per-element L2 coefficients: cfg.l2 on the input-kernel columns of each gate matrix and on the head kernel.

    Recurrent columns and biases stay decay-free so the recurrent dynamics are
    not flattened by the optimizer before the temporal signal produces
    gradients (matching the usual kernel-only regularizer semantics).
    """
    decay = {}
    for layer in range(cfg.hidden_layers):
        name = f"lstm{layer}_w"
        width = cfg.input_width if layer == 0 else cfg.hidden_size
        decay[name] = np.zeros_like(params[name])
        decay[name][:, :width] = cfg.l2
    decay["head_w"] = np.full_like(params["head_w"], cfg.l2)
    return decay


def train_lstm(seqs: list[SequenceData], cfg: LstmConfig) -> LstmModel:
    """Train the direction LSTM on the training side of the given sequences."""
    if not seqs:
        raise TooFewRows("no sequences")
    if seqs[0].x.shape[1] != cfg.input_width:
        raise BadArgument(f"sequence width {seqs[0].x.shape[1]} != cfg.input_width {cfg.input_width}")
    x, y, train = lstm_rows(seqs, cfg)
    if not train.any():
        raise TooFewRows("no training windows")
    check_labels(y[train], DIRECTION_CLASSES)
    rng = np.random.default_rng(cfg.seed)
    params = lstm_init(rng, cfg)
    params = _adam_fit(
        rng, params, cfg, lambda p, *batch: lstm_loss_grad(p, cfg, *batch), x[train], y[train],
        decay=_decay(params, cfg) if cfg.l2 > 0 else None,
    )
    return LstmModel(params=params, cfg=cfg)


# --- baselines ---------------------------------------------------------------

BASELINE_BATCH = 32  # the mini-batch size of the SVM and LR fits


@dataclass(frozen=True)
class BaselineKind:
    name: str  # knn | svm | logreg
    k: int = 5
    lam: float = 0.01
    lr: float = 0.1
    epochs: int = 200

    def __post_init__(self):
        if self.name not in ("knn", "svm", "logreg"):
            raise InvalidConfig(f"unknown baseline '{self.name}'")
        if not (self.k > 0 and self.epochs > 0 and 0 < self.lam < np.inf and 0 < self.lr < np.inf):
            raise InvalidConfig("baseline hyperparameters must be positive and finite")


@dataclass
class KnnModel:
    train_x: np.ndarray
    train_y: np.ndarray
    num_classes: int
    k: int

    def predict(self, x) -> np.ndarray:
        xb = _as_batch(x, self.train_x.shape[1], "knn")
        out = np.empty(xb.shape[0], dtype=int)
        for i, row in enumerate(xb):
            d2 = np.sum((self.train_x - row) ** 2, axis=1)
            # distance ties break by label so the vote ignores training row order
            order = np.lexsort((self.train_y, d2))[: self.k]
            votes = np.bincount(self.train_y[order], minlength=self.num_classes)
            out[i] = int(np.argmax(votes))  # vote ties go to the smallest label
        return out


@dataclass
class LinearModel:
    """Shared container for the linear baselines (one-vs-rest SVM, multinomial LR)."""

    weights: np.ndarray  # (K, d)
    bias: np.ndarray  # (K,)
    kind: str = "linear"

    def decision(self, x) -> np.ndarray:
        return _as_batch(x, self.weights.shape[1], self.kind) @ self.weights.T + self.bias

    def predict(self, x) -> np.ndarray:
        return np.argmax(self.decision(x), axis=-1)


def _with_ones(x: np.ndarray) -> np.ndarray:
    """x with a ones column appended: the input of weights whose last column is the bias."""
    return np.hstack((x, np.ones((x.shape[0], 1))))


def _linear_model(w: np.ndarray, kind: str) -> LinearModel:
    """The model of (K, d + 1) weights whose last column is the bias."""
    return LinearModel(weights=w[:, :-1], bias=w[:, -1], kind=kind)


def train_svm(x, y, num_classes: int, kind: BaselineKind, seed: int = 0) -> LinearModel:
    """One-vs-rest linear SVM: hinge loss + L2, one Pegasos subgradient step of all classes per batch.

    The bias is the weights' last column, over inputs with a ones column, so a
    step makes one forward and one update product; the L2 decay skips the bias.
    """
    rng = np.random.default_rng(seed)
    signs = np.where(y[:, None] == np.arange(num_classes), 1.0, -1.0)  # (n, K) one-vs-rest targets
    w = np.zeros((num_classes, x.shape[1] + 1))
    kernel = w[:, :-1]  # the decayed columns: the bias carries no regularization
    for step, (xb, t) in enumerate(_batches(rng, kind.epochs, BASELINE_BATCH, _with_ones(x), signs), start=1):
        eta = 1.0 / (kind.lam * step)
        viol = t * (xb @ w.T) < 1.0
        scale = eta / np.maximum(1, np.add.reduce(viol, axis=0))  # over the violators of each class
        kernel *= 1.0 - eta * kind.lam
        w += scale[:, None] * (np.where(viol, t, 0.0).T @ xb)  # the target sign of each violator, else 0
    return _linear_model(w, "svm")


def train_logreg(x, y, num_classes: int, kind: BaselineKind, seed: int = 0) -> LinearModel:
    """Multinomial logistic regression by seeded mini-batch gradient descent.

    The bias is the weights' last column, over inputs with a ones column, and
    the one-hot targets are made once and shuffled with their rows, so a step
    is one forward product, the CE kernel and one update product.
    """
    rng = np.random.default_rng(seed)
    w = np.zeros((num_classes, x.shape[1] + 1))
    for xb, tb in _batches(rng, kind.epochs, BASELINE_BATCH, _with_ones(x), nn.one_hot(y, num_classes)):
        w -= kind.lr * (nn.batch_softmax_cross_entropy(xb @ w.T, tb)[1].T @ xb)
    return _linear_model(w, "logreg")


def train_baseline(kind: BaselineKind, x, y, num_classes: int, seed: int = 0):
    """Dispatch to the requested baseline trainer, which gets x as a float array of at least one row."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.shape[0] == 0:
        raise TooFewRows("no training rows")
    check_labels(y, num_classes)
    if kind.name == "knn":
        if x.shape[0] < kind.k:
            raise TooFewRows(f"{x.shape[0]} rows < k={kind.k}")
        return KnnModel(train_x=x.copy(), train_y=y.copy(), num_classes=num_classes, k=kind.k)
    if kind.name == "svm":
        return train_svm(x, y, num_classes, kind, seed)
    return train_logreg(x, y, num_classes, kind, seed)


def random_guess_accuracy(labels, num_classes: int) -> float:
    """Expected accuracy (%) of guessing each label from the label distribution p: 100 * sum p_k^2."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise TooFewRows("cannot take the label distribution of zero labels")
    check_labels(labels, num_classes, "label")
    probs = np.bincount(labels.astype(int), minlength=num_classes) / len(labels)
    return float(100.0 * np.sum(probs * probs))
