"""Encoder/classifier models and the frozen-source / adapted pair.

The encoder is a small MLP (linear -> optional norm -> relu per hidden layer,
plain linear output). Gradients are computed analytically from per-layer
caches. Parameters are exposed as (name, array) pairs and updated in place,
so an optimizer can hold references.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os

import numpy as np

from .errors import ConfigError, DimensionError, SchemaError, StateError
from .numeric import (
    Array,
    NormLayerState,
    _finite,
    as_matrix,
    batchnorm_backward,
    batchnorm_forward,
    batchnorm_param_grads,
    check_norm_settings,
    linear_forward,
    linear_input_grad,
    linear_param_grads,
    relu_backward,
    relu_forward,
    update_running_stats,
)

CHECKPOINT_VERSION = 1
_LAYER_PARAMS = ("w", "b", "gamma", "beta")  # an encoder layer's parameter suffixes


class MlpEncoder:
    """Feature extractor: stack of linear(+norm)+relu layers, linear head.

    layer_dims = [input, hidden..., feature]. Weights and biases start
    uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].
    """

    def __init__(self, layer_dims, weights, biases, norms, eps=1e-5, momentum=0.1):
        if len(layer_dims) < 2:
            raise ConfigError("layer_dims needs at least input and output sizes")
        check_norm_settings(eps, momentum)
        self.layer_dims = [int(d) for d in layer_dims]
        self.weights = weights
        self.biases = biases
        self.norms = norms  # one entry per hidden layer, None when absent
        self.eps = eps
        self.momentum = momentum
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

    @classmethod
    def create(cls, layer_dims, use_norm=False, seed=0, eps=1e-5, momentum=0.1):
        if any(int(d) < 1 for d in layer_dims):
            raise ConfigError(f"layer sizes must be positive, got {layer_dims}")
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for din, dout in zip(layer_dims[:-1], layer_dims[1:]):
            bound = 1.0 / np.sqrt(din)
            weights.append(rng.uniform(-bound, bound, size=(din, dout)))
            biases.append(rng.uniform(-bound, bound, size=dout))
        norms = [
            NormLayerState.create(d, eps=eps, momentum=momentum) if use_norm else None
            for d in layer_dims[1:-1]
        ]
        return cls(layer_dims, weights, biases, norms, eps=eps, momentum=momentum)

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
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"enc.{i}.w", w))
            out.append((f"enc.{i}.b", b))
            if i < len(self.norms) and self.norms[i] is not None:
                out.append((f"enc.{i}.gamma", self.norms[i].gamma))
                out.append((f"enc.{i}.beta", self.norms[i].beta))
        return out

    def norm_parameters(self):
        return [(n, p) for n, p in self.parameters() if n.endswith((".gamma", ".beta"))]

    def state_arrays(self):
        """All persistent arrays, learnable or not (for copies/fingerprints)."""
        out = list(self.parameters())
        for i, norm in enumerate(self.norms):
            if norm is not None:
                out.append((f"enc.{i}.running_mean", norm.running_mean))
                out.append((f"enc.{i}.running_var", norm.running_var))
        return out

    def copy(self) -> "MlpEncoder":
        enc = MlpEncoder(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            [n.copy() if n is not None else None for n in self.norms],
            eps=self.eps,
            momentum=self.momentum,
        )
        return enc

    def reinitialized(self, seed: int) -> "MlpEncoder":
        """Fresh random instance with the same architecture."""
        return MlpEncoder.create(
            list(self.layer_dims),
            use_norm=self.has_norm_layers,
            seed=seed,
            eps=self.eps,
            momentum=self.momentum,
        )

    # -- forward / backward --------------------------------------------------

    def encode(self, x, mode: str = "train", retain_cache: bool | None = None):
        """Map inputs to features.

        mode selects which statistics norm layers use ("train": batch,
        "eval": running). The layer cache needed by backward() and
        update_running_stats() is kept when retain_cache is true (default:
        only in train mode). x may also be a (B, n, d) stack of batches, each
        encoded as its own 2-D call would be; a stack never retains.

        A forward that does not retain caches nothing: it leaves no layer
        cache and every norm layer's cache at None, and drops each
        intermediate as soon as the next op has read it.
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
        caches = []
        last = len(self.weights) - 1
        for i in range(last):
            a = linear_forward(h, self.weights[i], self.biases[i])
            if retain_cache:
                caches.append({"x": h})
            del h
            norm = self.norms[i]
            if norm is not None:
                a = batchnorm_forward(a, norm, mode=mode)
                if not retain_cache:
                    norm.cache = None
            if retain_cache:
                caches[-1]["act_in"] = a
            h = relu_forward(a)
            del a
        out = linear_forward(h, self.weights[last], self.biases[last])
        if retain_cache:
            caches.append({"x": h})
            self._cache = caches
        return out

    def backward(self, upstream, names=None):
        """Gradients of sum(upstream * features) w.r.t. the parameters named
        in `names` (default: all of them), as a dict keyed like
        `parameters()`.

        Requires a cached forward (encode with retain_cache). The cache is
        left intact, so several upstreams can be pushed through one forward.
        A layer's gradients are computed only for its named parameters, and
        the pass descends no lower than the lowest layer holding one: below
        it nothing reads a gradient. The gradient w.r.t. the input is never
        computed, for the same reason.
        """
        if self._cache is None:
            raise StateError("backward: call encode with retain_cache first")
        last = len(self.weights) - 1
        if names is None:
            held, lowest = [_LAYER_PARAMS] * (last + 1), 0
        else:
            held, lowest = _held_per_layer(frozenset(names), last + 1)
        g = upstream
        grads = {}
        for i in range(last, lowest - 1, -1):
            cache = self._cache[i]
            linear = "w" in held[i] or "b" in held[i]
            # the gradient below layer i's norm is read by this layer's w and
            # b and, through its linear map, by the layers below
            through_norm = i > lowest or linear
            if i < last:
                g = relu_backward(cache["act_in"], g)
                norm = self.norms[i]
                if norm is not None:
                    if through_norm:
                        g, ggamma, gbeta = batchnorm_backward(norm, g)
                    else:
                        ggamma, gbeta = batchnorm_param_grads(norm, g)
                    if "gamma" in held[i]:
                        grads[f"enc.{i}.gamma"] = ggamma
                    if "beta" in held[i]:
                        grads[f"enc.{i}.beta"] = gbeta
            if linear:
                gw, gb = linear_param_grads(cache["x"], self.weights[i], g)
                if "w" in held[i]:
                    grads[f"enc.{i}.w"] = gw
                if "b" in held[i]:
                    grads[f"enc.{i}.b"] = gb
            if i > lowest:
                g = linear_input_grad(self.weights[i], g)
        return grads

    def update_running_stats(self):
        """Fold the batch statistics of the last forward into each norm
        layer's running statistics. That forward must have retained its
        cache in train mode; after one that did not, nothing is cached and
        this raises StateError."""
        for norm in self.norms:
            if norm is not None:
                update_running_stats(norm)


@functools.lru_cache(maxsize=64)
def _held_per_layer(names: frozenset, n_layers: int):
    """The parameter suffixes `names` holds in each of n_layers encoder
    layers, and the lowest layer holding one (n_layers when none does)."""
    held = tuple(frozenset(s for s in _LAYER_PARAMS if f"enc.{i}.{s}" in names)
                 for i in range(n_layers))
    return held, next((i for i, h in enumerate(held) if h), n_layers)


class LinearClassifier:
    """Logit head: logits = z @ omega + bias. Columns of omega act as class
    prototypes, which is what the memory bank refreshes."""

    def __init__(self, omega, bias):
        self.omega = as_matrix(omega, "omega")
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        if self.bias is not None and self.bias.shape != (self.omega.shape[1],):
            raise DimensionError("bias length must equal the number of classes")

    @classmethod
    def create(cls, feature_dim, num_classes, seed=0, with_bias=True):
        if feature_dim < 1 or num_classes < 2:
            raise ConfigError("need feature_dim >= 1 and num_classes >= 2")
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(feature_dim)
        omega = rng.uniform(-bound, bound, size=(feature_dim, num_classes))
        bias = rng.uniform(-bound, bound, size=num_classes) if with_bias else None
        return cls(omega, bias)

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
        out = z @ self.omega
        if self.bias is not None:
            out += self.bias
        return _finite(out, "logits")

    def backward(self, z, upstream, names=None):
        """Gradients of sum(upstream * logits) w.r.t. the features and the
        parameters named in `names` (default: all of them)."""
        grads = {}
        if names is None or "clf.w" in names or "clf.b" in names:
            gw, gb = linear_param_grads(z, self.omega, upstream)
            grads["clf.w"] = gw
            if self.bias is not None:
                grads["clf.b"] = gb
            if names is not None:
                grads = {n: g for n, g in grads.items() if n in names}
        return linear_input_grad(self.omega, upstream), grads

    def parameters(self):
        out = [("clf.w", self.omega)]
        if self.bias is not None:
            out.append(("clf.b", self.bias))
        return out

    def copy(self) -> "LinearClassifier":
        return LinearClassifier(
            self.omega.copy(), None if self.bias is None else self.bias.copy()
        )


class ModelPair:
    """Frozen source model next to its learnable adapted copy.

    The source arrays are marked read-only; any in-place write raises. The
    adapted halves start as deep copies and drift under adaptation.
    """

    def __init__(self, source_encoder, source_classifier, adapted_encoder, adapted_classifier):
        self.source_encoder = source_encoder
        self.source_classifier = source_classifier
        self.adapted_encoder = adapted_encoder
        self.adapted_classifier = adapted_classifier
        for _, arr in self.source_encoder.state_arrays():
            arr.flags.writeable = False
        for _, arr in self.source_classifier.parameters():
            arr.flags.writeable = False

    def parameters(self):
        return self.adapted_encoder.parameters() + self.adapted_classifier.parameters()

    def source_fingerprint(self) -> str:
        return _fingerprint(
            self.source_encoder.state_arrays() + self.source_classifier.parameters()
        )

    def adapted_fingerprint(self) -> str:
        return _fingerprint(
            self.adapted_encoder.state_arrays() + self.adapted_classifier.parameters()
        )


def clone_for_adaptation(encoder: MlpEncoder, classifier: LinearClassifier) -> ModelPair:
    """Freeze the given model as the source and clone a learnable copy."""
    return ModelPair(encoder, classifier, encoder.copy(), classifier.copy())


def _fingerprint(named_arrays) -> str:
    h = hashlib.sha256()
    for name, arr in named_arrays:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def model_fingerprint(encoder: MlpEncoder, classifier: LinearClassifier | None = None) -> str:
    arrays = encoder.state_arrays()
    if classifier is not None:
        arrays = arrays + classifier.parameters()
    return _fingerprint(arrays)


def classification_accuracy(encoder, classifier, features, labels):
    """Fraction of argmax predictions matching labels."""
    feats = encoder.encode(features, mode="eval", retain_cache=False)
    preds = np.argmax(classifier.logits(feats), axis=1)
    return float(np.mean(preds == np.asarray(labels)))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, encoder: MlpEncoder, classifier: LinearClassifier, seed=None):
    """Write model state as JSON. repr-based float serialization round-trips
    bit-exactly, so save -> load -> save is byte-stable."""
    norms = []
    for norm in encoder.norms:
        if norm is None:
            norms.append(None)
        else:
            norms.append(
                {
                    "gamma": norm.gamma.tolist(),
                    "beta": norm.beta.tolist(),
                    "running_mean": norm.running_mean.tolist(),
                    "running_var": norm.running_var.tolist(),
                }
            )
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "seed": seed,
        "encoder": {
            "layer_dims": encoder.layer_dims,
            "eps": encoder.eps,
            "momentum": encoder.momentum,
            "weights": [w.tolist() for w in encoder.weights],
            "biases": [b.tolist() for b in encoder.biases],
            "norms": norms,
        },
        "classifier": {
            "omega": classifier.omega.tolist(),
            "bias": None if classifier.bias is None else classifier.bias.tolist(),
        },
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_checkpoint(path):
    """Read a checkpoint back into (encoder, classifier, meta). JSON admits
    NaN and Infinity, so each array is checked here; SchemaError names it."""
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

    def array(value, name):
        a = np.array(value, dtype=np.float64)
        if not np.isfinite(a).all():
            raise SchemaError(f"checkpoint {path}: {name} contains NaN or Inf")
        return a

    try:
        enc_doc = doc["encoder"]
        clf_doc = doc["classifier"]
        norms = []
        for i, entry in enumerate(enc_doc["norms"]):
            if entry is None:
                norms.append(None)
            else:
                stats = {k: array(entry[k], f"encoder.norms[{i}].{k}")
                         for k in ("gamma", "beta", "running_mean", "running_var")}
                norms.append(NormLayerState(
                    **stats, eps=enc_doc["eps"], momentum=enc_doc["momentum"]
                ))
        encoder = MlpEncoder(
            enc_doc["layer_dims"],
            [array(w, f"encoder.weights[{i}]") for i, w in enumerate(enc_doc["weights"])],
            [array(b, f"encoder.biases[{i}]") for i, b in enumerate(enc_doc["biases"])],
            norms,
            eps=enc_doc["eps"],
            momentum=enc_doc["momentum"],
        )
        bias = clf_doc["bias"]
        classifier = LinearClassifier(
            array(clf_doc["omega"], "classifier.omega"),
            None if bias is None else array(bias, "classifier.bias"),
        )
    except (KeyError, TypeError, ValueError, DimensionError) as e:
        raise SchemaError(f"checkpoint {path}: missing or malformed field ({e})") from e
    meta = {"seed": doc.get("seed"), "format_version": version}
    return encoder, classifier, meta
