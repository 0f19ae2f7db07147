"""Encoder/classifier models and the frozen-source / adapted pair.

The encoder is a small MLP (linear -> optional norm -> relu per hidden layer,
plain linear output). Gradients are computed analytically from per-layer
caches. Parameters and their gradients are exposed as (name, array) pairs;
backward writes each gradient in place into the model's own gradient
array, and an optimizer updates the parameters in place. `pack` moves a
network's parameters into one flat vector and its gradients into another,
so that an optimizer steps the whole network, or its leading norm slice,
as one vector; a `norm_only` backward fills only that slice. Each trainer
(ERM, an adaptation step) packs what it steps when it starts, and no model
or pair holds a packed vector. `model_state` is the one list of a model's
persistent arrays: a checkpoint (format version 3) stores it by name, a
fingerprint hashes it, and `ModelPair` makes the source's read-only.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError, SchemaError, StateError
from .numeric import (
    FLAGGED_PRODUCT_MAX,
    Array,
    NormLayerState,
    _finite,
    as_matrix,
    as_vector,
    batchnorm_backward,
    batchnorm_forward,
    batchnorm_param_grads,
    checked_step,
    linear_forward,
    linear_input_grad,
    linear_param_grads,
    non_finite,
    relu_backward,
    relu_forward,
    update_running_stats,
)

CHECKPOINT_VERSION = 3


class MlpEncoder:
    """Feature extractor: stack of linear(+norm)+relu layers, linear head.

    layer_dims = [input, hidden..., feature]. Weights and biases start
    uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]. Every norm layer runs
    with `numeric.NORM_EPS` and `numeric.NORM_MOMENTUM`.
    """

    def __init__(self, layer_dims, weights, biases, norms):
        if len(layer_dims) < 2:
            raise ConfigError("layer_dims needs at least input and output sizes")
        self.layer_dims = [int(d) for d in layer_dims]
        self.weights = weights
        self.biases = biases
        self.norms = norms  # one entry per hidden layer, None when absent
        self._cache = None
        n_layers = len(self.layer_dims) - 1
        if len(weights) != n_layers or len(biases) != n_layers:
            raise DimensionError("weights/biases do not match layer_dims")
        if len(norms) != n_layers - 1:
            raise DimensionError("norms must have one slot per hidden layer")
        dims = self.layer_dims
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise DimensionError(
                    f"layer {i}: weights {w.shape} and biases {b.shape} do not "
                    f"match layer_dims {dims[i]} -> {dims[i + 1]}")
        for i, norm in enumerate(norms):
            if norm is not None and norm.dim != dims[i + 1]:
                raise DimensionError(
                    f"norm {i}: dim {norm.dim} does not match layer_dims {dims[i + 1]}")
        # where backward writes each parameter's gradient (see gradients())
        self._weight_grads = [np.zeros(w.shape) for w in weights]
        self._bias_grads = [np.zeros(b.shape) for b in biases]
        self._norm_grads = [None if n is None else (np.zeros(n.dim), np.zeros(n.dim))
                            for n in norms]

    @classmethod
    def create(cls, layer_dims, use_norm=False, seed=0):
        if any(int(d) < 1 for d in layer_dims):
            raise ConfigError(f"layer sizes must be positive, got {layer_dims}")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for din, dout in zip(layer_dims[:-1], layer_dims[1:]):
            bound = 1.0 / np.sqrt(din)
            weights.append(rng.uniform(-bound, bound, size=(din, dout)))
            biases.append(rng.uniform(-bound, bound, size=dout))
        norms = [NormLayerState.create(d) if use_norm else None for d in layer_dims[1:-1]]
        return cls(layer_dims, weights, biases, norms)

    # -- structure ---------------------------------------------------------

    @property
    def feature_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def has_norm_layers(self) -> bool:
        return any(n is not None for n in self.norms)

    def parameters(self):
        """Learnable (name, array) pairs in a fixed order."""
        return _encoder_named(self.weights, self.biases,
                              [None if n is None else (n.gamma, n.beta) for n in self.norms])

    def gradients(self):
        """(name, array) pairs aligned with parameters(): the arrays backward
        writes each parameter's gradient into."""
        return _encoder_named(self._weight_grads, self._bias_grads, self._norm_grads)

    def norm_parameters(self):
        return [(n, p) for n, p in self.parameters() if n.endswith((".gamma", ".beta"))]

    def state_arrays(self):
        """All persistent arrays, learnable or not (see `model_state`)."""
        out = list(self.parameters())
        for i, norm in enumerate(self.norms):
            if norm is not None:
                out.append((f"enc.{i}.running_mean", norm.running_mean))
                out.append((f"enc.{i}.running_var", norm.running_var))
        return out

    def copy(self) -> "MlpEncoder":
        return MlpEncoder(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            [n.copy() if n is not None else None for n in self.norms],
        )

    # -- forward / backward --------------------------------------------------

    def encode(self, x, mode: str = "train", retain_cache: bool | None = None):
        """Map inputs to features.

        mode selects which statistics norm layers use ("train": batch,
        "eval": running). The layer cache needed by backward() and
        update_running_stats() is kept when retain_cache is true (default:
        only in train mode). x may also be a (B, n, d) stack of batches, each
        encoded as its own 2-D call would be; a stack never retains. This
        cache is the one owner of what the forward leaves behind (see
        `numeric`): a forward that does not retain keeps nothing, and drops
        each intermediate as soon as the next op has read it.
        """
        if mode not in ("train", "eval"):
            raise ConfigError(f"encode: unknown mode {mode!r}")
        h = as_matrix(x, "x", stacked=True)
        if retain_cache is None:
            retain_cache = mode == "train"
        retain_cache = retain_cache and h.ndim == 2
        if h.shape[-1] != self.input_dim:
            raise DimensionError(
                f"encode: input has {h.shape[-1]} features, expected {self.input_dim}"
            )
        self._cache = None  # an earlier forward's cache, freed before this one allocates
        caches = []  # (layer input, pre-relu activation, norm statistics) per layer
        last = len(self.weights) - 1
        for i in range(last):
            a = linear_forward(h, self.weights[i], self.biases[i])
            x_in = h if retain_cache else None
            del h
            stats = None
            if self.norms[i] is not None:
                a, stats = batchnorm_forward(a, self.norms[i], mode=mode)
            if retain_cache:
                caches.append((x_in, a, stats))
            del stats
            h = relu_forward(a)
            del a
        out = linear_forward(h, self.weights[last], self.biases[last])
        if retain_cache:
            caches.append((h, None, None))
            self._cache = caches
        return out

    def backward(self, upstream, norm_only=False):
        """Gradients of sum(upstream * features) w.r.t. the parameters,
        written in place into the arrays of `gradients()`.

        Requires a cached forward (encode with retain_cache). The cache is
        left intact, so several upstreams can be pushed through one forward.
        With `norm_only` only the norm layers' gamma and beta gradients are
        computed, every other array keeps what it held, and the pass stops
        at the lowest norm layer: below it nothing reads a gradient. The
        gradient w.r.t. the input is never computed, for the same reason.
        """
        if self._cache is None:
            raise StateError("backward: call encode with retain_cache first")
        last = len(self.weights) - 1
        lowest = 0
        if norm_only:
            lowest = next((i for i, n in enumerate(self.norms) if n is not None), last + 1)
        g = upstream
        for i in range(last, lowest - 1, -1):
            x, act_in, stats = self._cache[i]
            if i < last:
                g = relu_backward(act_in, g)
                norm = self.norms[i]
                if norm is not None:
                    if norm_only and i == lowest:
                        batchnorm_param_grads(stats, g, self._norm_grads[i])
                    else:
                        g, _, _ = batchnorm_backward(norm, stats, g, self._norm_grads[i])
            if not norm_only:
                linear_param_grads(x, self.weights[i], g,
                                   (self._weight_grads[i], self._bias_grads[i]))
            if i > lowest:
                g = linear_input_grad(self.weights[i], g)

    def update_running_stats(self):
        """Fold the batch statistics of the last forward into each norm
        layer's running statistics. That forward must have retained its
        cache in train mode; after one that did not, this raises StateError."""
        for i, norm in enumerate(self.norms):
            if norm is not None:
                stats = None if self._cache is None else self._cache[i][2]
                if stats is None or not stats.batch:
                    raise StateError("update_running_stats: no train-mode forward cached")
                update_running_stats(norm, stats.mean, stats.var)


def _encoder_named(weights, biases, norm_pairs):
    """(name, array) pairs of an encoder's per-layer arrays in parameters()
    order; norm_pairs holds a (gamma, beta) pair per hidden layer, or None."""
    out = []
    for i, (w, b) in enumerate(zip(weights, biases)):
        out += [(f"enc.{i}.w", w), (f"enc.{i}.b", b)]
        if i < len(norm_pairs) and norm_pairs[i] is not None:
            out += [(f"enc.{i}.gamma", norm_pairs[i][0]), (f"enc.{i}.beta", norm_pairs[i][1])]
    return out


class LinearClassifier:
    """Logit head: logits = z @ omega + bias. Columns of omega act as class
    prototypes, which is what the memory bank refreshes."""

    def __init__(self, omega, bias):
        self.omega = as_matrix(omega, "omega")
        self.bias = as_vector(bias, "bias")
        if self.bias.shape != (self.omega.shape[1],):
            raise DimensionError("bias length must equal the number of classes")
        # where backward writes the parameters' gradients (see gradients())
        self._omega_grad = np.zeros(self.omega.shape)
        self._bias_grad = np.zeros(self.bias.shape)

    @classmethod
    def create(cls, feature_dim, num_classes, seed=0):
        if feature_dim < 1 or num_classes < 2:
            raise ConfigError("need feature_dim >= 1 and num_classes >= 2")
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(feature_dim)
        omega = rng.uniform(-bound, bound, size=(feature_dim, num_classes))
        return cls(omega, rng.uniform(-bound, bound, size=num_classes))

    @property
    def num_classes(self) -> int:
        return self.omega.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.omega.shape[0]

    def logits(self, z):
        """z @ omega + bias for a batch of feature rows or a stack of them."""
        if z.shape[-1] != self.feature_dim:
            raise DimensionError(
                f"logits: features have width {z.shape[-1]}, expected {self.feature_dim}"
            )
        try:
            out = z @ self.omega
            out += self.bias
        except FloatingPointError as e:
            raise non_finite("logits") from e
        return _finite(out, "logits")

    def backward(self, z, upstream, norm_only=False):
        """Gradient of sum(upstream * logits) w.r.t. the features, returned.
        Unless `norm_only` (the classifier has no norm parameter), the omega
        and bias gradients are written in place into the arrays of
        `gradients()`."""
        if not norm_only:
            linear_param_grads(z, self.omega, upstream, (self._omega_grad, self._bias_grad))
        return linear_input_grad(self.omega, upstream)

    def parameters(self):
        return _classifier_named(self.omega, self.bias)

    def gradients(self):
        """(name, array) pairs aligned with parameters(): the arrays backward
        writes each parameter's gradient into."""
        return _classifier_named(self._omega_grad, self._bias_grad)

    def copy(self) -> "LinearClassifier":
        return LinearClassifier(self.omega.copy(), self.bias.copy())


def _classifier_named(omega, bias):
    return [("clf.w", omega), ("clf.b", bias)]


@dataclass(frozen=True, eq=False)
class FlatParameters:
    """A packed network (see `pack`): each learnable array is a view of the
    1-D float64 vector `values` and its gradient the same view of `grads`.
    The encoder's norm gammas and betas come first, so `norm` is their
    slice; its weights and biases follow, and the classifier's omega and
    bias end it."""

    values: Array
    grads: Array
    norm: slice


def pack(encoder: MlpEncoder, classifier: LinearClassifier) -> FlatParameters:
    """Move the learnable arrays of `encoder` and `classifier` into one flat
    vector and their gradient arrays into a matching one. Each array is
    replaced by a view of the vector holding its current value, so the
    models compute as before, bit for bit; backward then fills `grads` in
    place and an optimizer steps a slice of the two vectors. An array object
    held from before is no longer the model's. A read-only array (a frozen
    source's) is refused before anything moves: packing would unfreeze it."""
    params = encoder.parameters() + classifier.parameters()
    frozen = [n for n, p in params if not p.flags.writeable]
    if frozen:
        raise ConfigError(f"pack: {frozen[0]} is read-only; a frozen model cannot be trained")
    size = sum(p.size for _, p in params)
    values, grads = np.empty(size), np.zeros(size)
    end = 0

    def take(a):
        nonlocal end
        start, end = end, end + a.size
        view = values[start:end].reshape(a.shape)
        view[...] = a
        return view, grads[start:end].reshape(a.shape)

    for i, norm in enumerate(encoder.norms):
        if norm is not None:
            (norm.gamma, ggamma), (norm.beta, gbeta) = take(norm.gamma), take(norm.beta)
            encoder._norm_grads[i] = (ggamma, gbeta)
    norm_end = end
    for i, (w, b) in enumerate(zip(encoder.weights, encoder.biases)):
        encoder.weights[i], encoder._weight_grads[i] = take(w)
        encoder.biases[i], encoder._bias_grads[i] = take(b)
    classifier.omega, classifier._omega_grad = take(classifier.omega)
    classifier.bias, classifier._bias_grad = take(classifier.bias)
    return FlatParameters(values, grads, slice(0, norm_end))


class ModelPair:
    """Frozen source model next to its learnable adapted copy.

    The source arrays are marked read-only; any in-place write raises. The
    adapted halves start as deep copies and drift under adaptation. The pair
    holds no packed vector: a pass packs the adapted halves when it starts
    to step them (see `pack`), so it steps the arrays they hold then.
    """

    def __init__(self, source_encoder, source_classifier, adapted_encoder, adapted_classifier):
        if adapted_encoder is source_encoder or adapted_classifier is source_classifier:
            # freezing the source would freeze the half that is meant to adapt
            raise ConfigError("ModelPair: the adapted halves must be copies, not the source")
        self.source_encoder = source_encoder
        self.source_classifier = source_classifier
        self.adapted_encoder = adapted_encoder
        self.adapted_classifier = adapted_classifier
        for _, arr in model_state(source_encoder, source_classifier):
            arr.flags.writeable = False

    def source_fingerprint(self) -> str:
        return model_fingerprint(self.source_encoder, self.source_classifier)

    def adapted_fingerprint(self) -> str:
        return model_fingerprint(self.adapted_encoder, self.adapted_classifier)


def step_context(encoder: MlpEncoder, classifier: LinearClassifier, batch_size: int,
                 rows: Array, source: MlpEncoder | None = None):
    """The context manager class that a trainer of `encoder` and
    `classifier` enters once per epoch or run of steps, for steps of at most
    `batch_size` of the `rows` it steps on: `numeric.checked_step` when
    floating-point flags see every non-finite value a step can make, else
    `nullcontext`, so every op scans its output and every input is checked,
    naming the same step and op. Flags see it when the parameters and
    `rows` are finite now (one scan, as the trainer starts), as are those of
    `source`, a frozen encoder whose forward the steps may also run, and
    the step's largest product, `batch_size` times the largest weight
    matrix, the classifier's included, runs in the calling thread (at most
    `numeric.FLAGGED_PRODUCT_MAX` multiply-adds)."""
    widest = max(w.size for w in encoder.weights + [classifier.omega])
    arrays = [a for _, a in encoder.parameters() + classifier.parameters()]
    if source is not None:
        arrays += [a for _, a in source.parameters()]
    if batch_size * widest <= FLAGGED_PRODUCT_MAX and all(
            np.count_nonzero(np.isfinite(a)) == a.size for a in [rows, *arrays]):
        return checked_step
    return nullcontext


def clone_for_adaptation(encoder: MlpEncoder, classifier: LinearClassifier) -> ModelPair:
    """Freeze the given model as the source and clone a learnable copy."""
    return ModelPair(encoder, classifier, encoder.copy(), classifier.copy())


def model_state(encoder: MlpEncoder, classifier: LinearClassifier | None = None):
    """The encoder's `state_arrays()`, then the classifier's `parameters()`
    when one is given (see the module docstring)."""
    state = encoder.state_arrays()
    return state if classifier is None else state + classifier.parameters()


def model_fingerprint(encoder: MlpEncoder, classifier: LinearClassifier | None = None) -> str:
    h = hashlib.sha256()
    for name, arr in model_state(encoder, classifier):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def classification_accuracy(encoder, classifier, features, labels):
    """Fraction of argmax predictions matching labels, one label per row.
    No rows is refused: it has no fraction."""
    rows = np.shape(features)[:1]
    if rows == (0,):
        raise DataError("classification_accuracy: no rows to score")
    labels = np.asarray(labels)
    if labels.shape != rows:
        raise DimensionError(f"classification_accuracy: labels shape {labels.shape} != {rows}")
    feats = encoder.encode(features, mode="eval", retain_cache=False)
    preds = classifier.logits(feats).argmax(axis=1)
    return float(np.mean(preds == labels))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, encoder: MlpEncoder, classifier: LinearClassifier, seed=None):
    """Write the model as JSON: `layer_dims`, the seed, and each array of
    `model_state` under its name. repr-based float serialization round-trips
    bit-exactly, so save -> load -> save is byte-stable."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "seed": seed,
        "layer_dims": encoder.layer_dims,
        "arrays": {name: a.tolist() for name, a in model_state(encoder, classifier)},
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_checkpoint(path):
    """Read a checkpoint back into (encoder, classifier, meta), rebuilding
    the model from `layer_dims` and the `model_state` names: a hidden layer
    has a norm when its gamma is stored. JSON admits NaN and Infinity, so
    each array is checked here; SchemaError names it. A top-level key or an
    array that no load reads (a hand-added eps or momentum, say, which would
    run as NORM_EPS and NORM_MOMENTUM) is refused by name."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
            raise SchemaError(f"checkpoint {path}: not valid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise SchemaError(f"checkpoint {path}: expected a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise SchemaError(
            f"checkpoint {path}: format_version {version!r} not supported"
        )
    unknown = sorted(doc.keys() - {"format_version", "seed", "layer_dims", "arrays"})
    if unknown:
        raise SchemaError(f"checkpoint {path}: unknown key {unknown[0]}")

    def take(name):
        value = arrays.pop(name)
        if value is None:  # np.array would read it as NaN
            raise SchemaError(f"checkpoint {path}: {name} is null")
        a = np.array(value, dtype=np.float64)
        if not np.isfinite(a).all():
            raise SchemaError(f"checkpoint {path}: {name} contains NaN or Inf")
        return a

    try:
        arrays, dims = doc["arrays"], doc["layer_dims"]
        if not isinstance(arrays, dict):
            raise TypeError(f"arrays is a {type(arrays).__name__}, not an object")
        layers = range(len(dims) - 1)
        weights = [take(f"enc.{i}.w") for i in layers]
        biases = [take(f"enc.{i}.b") for i in layers]
        norms = [NormLayerState(**{k: take(f"enc.{i}.{k}") for k in
                                   ("gamma", "beta", "running_mean", "running_var")})
                 if f"enc.{i}.gamma" in arrays else None for i in layers[:-1]]
        encoder = MlpEncoder(dims, weights, biases, norms)
        classifier = LinearClassifier(take("clf.w"), take("clf.b"))
    except (KeyError, TypeError, ValueError, ConfigError, DimensionError) as e:
        raise SchemaError(f"checkpoint {path}: missing or malformed field ({e})") from e
    if arrays:
        raise SchemaError(f"checkpoint {path}: unknown array {sorted(arrays)[0]}")
    return encoder, classifier, {"seed": doc.get("seed"), "format_version": version}
