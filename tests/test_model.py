"""Encoder/classifier mechanics: shapes, gradients, freezing, checkpoints."""

import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import numeric_grad, rel_error
from marginadapt import model
from marginadapt.numeric import (
    NormLayerState,
    batchnorm_backward,
    batchnorm_forward,
    linear_backward,
    linear_forward,
    relu_backward,
    relu_forward,
)
from marginadapt import (
    ConfigError,
    DimensionError,
    LinearClassifier,
    MlpEncoder,
    NumericalFailure,
    SchemaError,
    StateError,
    classification_accuracy,
    clone_for_adaptation,
    load_checkpoint,
    model_fingerprint,
    save_checkpoint,
)


def test_encoder_create_shapes_and_param_count():
    enc = MlpEncoder.create([16, 8, 4], seed=0)
    assert enc.input_dim == 16 and enc.feature_dim == 4
    assert [w.shape for w in enc.weights] == [(16, 8), (8, 4)]
    n_params = sum(p.size for _, p in enc.parameters())
    assert n_params == 16 * 8 + 8 + 8 * 4 + 4
    assert not enc.has_norm_layers
    norm = MlpEncoder.create([16, 8, 4], use_norm=True, seed=0)
    # norm layers sit on hidden activations only, not the feature output
    assert sum(p.size for _, p in norm.parameters()) == n_params + 2 * 8


def test_encoder_create_rejects_bad_dims():
    with pytest.raises(ConfigError):
        MlpEncoder.create([16])
    with pytest.raises(ConfigError):
        MlpEncoder.create([16, 0, 4])


def test_parameters_share_storage_with_model():
    enc = MlpEncoder.create([4, 3], seed=1)
    params = dict(enc.parameters())
    params["enc.0.w"][0, 0] = 123.0
    assert enc.weights[0][0, 0] == 123.0  # registry aliases the live arrays


def test_parameter_names_unique():
    enc = MlpEncoder.create([6, 5, 4], use_norm=True, seed=2)
    names = [n for n, _ in enc.parameters()]
    assert len(names) == len(set(names))
    norm_names = [n for n, _ in enc.norm_parameters()]
    assert all(n.endswith((".gamma", ".beta")) for n in norm_names)


def test_encode_linear_stack_matches_manual():
    enc = MlpEncoder.create([5, 4, 3], seed=3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((7, 5))
    h = np.maximum(x @ enc.weights[0] + enc.biases[0], 0.0)
    expect = h @ enc.weights[1] + enc.biases[1]
    npt.assert_allclose(enc.encode(x, mode="eval"), expect, atol=1e-12)


def test_encoder_backward_matches_fd():
    rng = np.random.default_rng(4)
    for use_norm in (False, True):
        enc = MlpEncoder.create([6, 5, 4], use_norm=use_norm, seed=5)
        x = rng.standard_normal((8, 6)) * 2.0
        r = rng.standard_normal((8, 4))

        def loss():
            return float(np.sum(r * enc.encode(x, mode="train")))

        loss()
        grads = enc.backward(r)
        tol = 1e-4  # relu kinks cap the agreement on the full stack
        for name, p in enc.parameters():
            assert rel_error(grads[name], numeric_grad(loss, p)) < tol, name


def test_encoder_backward_eval_mode_matches_fd():
    rng = np.random.default_rng(5)
    enc = MlpEncoder.create([6, 5, 4], use_norm=True, seed=6)
    x = rng.standard_normal((3, 6))
    r = rng.standard_normal((3, 4))

    def loss():
        return float(np.sum(r * enc.encode(x, mode="eval", retain_cache=True)))

    loss()
    grads = enc.backward(r)
    for name, p in enc.parameters():
        assert rel_error(grads[name], numeric_grad(loss, p)) < 1e-4, name


def reference_encoder_grads(enc, x, mode, upstream):
    """Forward and backward through the numeric ops, with linear_backward at
    every layer, the first included: the oracle MlpEncoder.backward, which
    skips the first layer's input gradient, must match bit for bit."""
    last = len(enc.weights) - 1
    inputs, acts = [], []
    h = x
    for i, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        inputs.append(h)
        h = linear_forward(h, w, b)
        if i < last:
            if enc.norms[i] is not None:
                h = batchnorm_forward(h, enc.norms[i], mode=mode)
            acts.append(h)
            h = relu_forward(h)
    grads = {}
    g = upstream
    for i in range(last, -1, -1):
        if i < last:
            g = relu_backward(acts[i], g)
            if enc.norms[i] is not None:
                g, grads[f"enc.{i}.gamma"], grads[f"enc.{i}.beta"] = batchnorm_backward(
                    enc.norms[i], g)
        g, grads[f"enc.{i}.w"], grads[f"enc.{i}.b"] = linear_backward(
            inputs[i], enc.weights[i], g)
    return grads


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("dims, use_norm", [
    ([6, 4], False), ([6, 5, 5, 4], False), ([6, 5, 5, 4], True),
], ids=["one-layer", "linear", "norm"])
def test_encoder_backward_is_bit_identical_to_linear_backward_at_every_layer(
        dims, use_norm, mode):
    rng = np.random.default_rng(11)
    enc = MlpEncoder.create(dims, use_norm=use_norm, seed=12)
    for norm in enc.norms:
        if norm is not None:  # eval mode reads non-trivial running stats
            norm.running_mean[...] = rng.standard_normal(norm.dim)
            norm.running_var[...] = rng.uniform(0.5, 2.0, size=norm.dim)
    x = rng.standard_normal((9, dims[0]))
    upstream = rng.standard_normal((9, dims[-1]))
    enc.encode(x, mode=mode, retain_cache=True)
    grads = enc.backward(upstream)
    want = reference_encoder_grads(enc, x, mode, upstream)
    assert list(grads) == list(want)
    assert sorted(grads) == sorted(name for name, _ in enc.parameters())
    for name in want:
        npt.assert_array_equal(grads[name], want[name], err_msg=name)


def _varied_encoder(dims, use_norm, rng):
    enc = MlpEncoder.create(dims, use_norm=use_norm, seed=12)
    for norm in enc.norms:
        if norm is not None:  # eval mode reads non-trivial running stats
            norm.running_mean[...] = rng.standard_normal(norm.dim)
            norm.running_var[...] = rng.uniform(0.5, 2.0, size=norm.dim)
    return enc


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("dims, use_norm", [
    ([6, 4], False), ([6, 5, 5, 4], False), ([6, 5, 5, 4], True),
], ids=["one-layer", "linear", "norm"])
def test_encoder_backward_on_a_name_set_equals_the_full_backward(dims, use_norm, mode):
    rng = np.random.default_rng(13)
    enc = _varied_encoder(dims, use_norm, rng)
    x = rng.standard_normal((9, dims[0]))
    upstream = rng.standard_normal((9, dims[-1]))
    enc.encode(x, mode=mode, retain_cache=True)
    full = enc.backward(upstream)
    names = [n for n, _ in enc.parameters()]
    subsets = [[], names, [n for n, _ in enc.norm_parameters()],
               [n for n in names if n.startswith(f"enc.{len(dims) - 2}.")]]
    subsets += [[n] for n in names]
    for held in subsets:
        grads = enc.backward(upstream, frozenset(held))
        assert sorted(grads) == sorted(held)
        for name in held:
            npt.assert_array_equal(grads[name], full[name], err_msg=name)


def test_one_name_set_serves_encoders_of_different_depths():
    # the per-layer split of a name set depends on the layer count too
    rng = np.random.default_rng(15)
    names = frozenset({"enc.0.gamma", "enc.1.beta", "enc.2.w"})
    for dims in ([6, 5, 5, 4], [6, 5, 4], [6, 5, 5, 5, 4], [6, 5, 4]):
        enc = _varied_encoder(dims, True, rng)
        enc.encode(rng.standard_normal((9, 6)), mode="train", retain_cache=True)
        upstream = rng.standard_normal((9, 4))
        full = enc.backward(upstream)
        for held in (names, set(names), sorted(names)):
            grads = enc.backward(upstream, held)
            assert sorted(grads) == sorted(names & set(full))
            for name in grads:
                npt.assert_array_equal(grads[name], full[name], err_msg=name)


def test_norm_only_backward_computes_no_weight_gradient(monkeypatch):
    # Tent's name set: the pass stops at the lowest norm's gamma and beta
    rng = np.random.default_rng(14)
    enc = _varied_encoder([6, 5, 5, 4], True, rng)
    enc.encode(rng.standard_normal((9, 6)), mode="train", retain_cache=True)
    calls = []
    for name in ("linear_param_grads", "linear_input_grad",
                 "batchnorm_backward", "batchnorm_param_grads"):
        original = getattr(model, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(model, name, counted)
    held = frozenset(n for n, _ in enc.norm_parameters())
    grads = enc.backward(rng.standard_normal((9, 4)), held)
    assert sorted(grads) == sorted(held)
    assert calls == ["linear_input_grad", "batchnorm_backward",
                     "linear_input_grad", "batchnorm_param_grads"]


def test_classifier_backward_on_a_name_set():
    rng = np.random.default_rng(15)
    z = rng.standard_normal((7, 5))
    up = rng.standard_normal((7, 3))
    for bias in (True, False):
        clf = LinearClassifier.create(5, 3, seed=2, with_bias=bias)
        gz, full = clf.backward(z, up)
        for held in ([], ["clf.w"], ["clf.b"], ["clf.w", "clf.b"]):
            hz, grads = clf.backward(z, up, frozenset(held))
            npt.assert_array_equal(hz, gz)
            assert sorted(grads) == sorted(n for n in held if n in full)
            for name in grads:
                npt.assert_array_equal(grads[name], full[name])


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("use_norm", [False, True], ids=["linear", "norm"])
def test_stacked_encode_and_logits_equal_their_per_batch_calls(use_norm, mode):
    rng = np.random.default_rng(16)
    enc = _varied_encoder([6, 5, 5, 4], use_norm, rng)
    clf = LinearClassifier.create(4, 3, seed=4)
    x = rng.standard_normal((5, 9, 6))
    feats = enc.encode(x, mode=mode, retain_cache=True)
    logits = clf.logits(feats)
    # a stack keeps no backward cache, in the encoder or its norm layers
    with pytest.raises(StateError):
        enc.backward(np.zeros((9, 4)))
    if use_norm:
        with pytest.raises(StateError, match="update_running_stats"):
            enc.update_running_stats()
    for i in range(x.shape[0]):
        one = enc.encode(x[i], mode=mode)
        npt.assert_array_equal(feats[i], one)
        npt.assert_array_equal(logits[i], clf.logits(one))
    with pytest.raises(DimensionError, match="expected a 2-D or 3-D array"):
        enc.encode(x[None], mode=mode)


def test_a_forward_that_does_not_retain_caches_nothing():
    rng = np.random.default_rng(17)
    enc = _varied_encoder([6, 5, 5, 4], True, rng)
    x = rng.standard_normal((9, 6))
    forwards = [
        ("eval", x, None, enc.encode(x, mode="eval", retain_cache=True)),
        ("train", x, False, enc.encode(x, mode="train", retain_cache=True)),
        ("train", np.stack([x, x]), True, None),
    ]
    for mode, xs, retain, want in forwards:
        # a retaining forward first, so that there is a cache to drop
        enc.encode(x, mode="train", retain_cache=True)
        feats = enc.encode(xs, mode=mode, retain_cache=retain)
        if want is not None:
            npt.assert_array_equal(feats, want)
        assert enc._cache is None
        assert all(norm.cache is None for norm in enc.norms)
        with pytest.raises(StateError, match="update_running_stats"):
            enc.update_running_stats()


@pytest.mark.parametrize("use_norm", [False, True], ids=["linear", "norm"])
def test_an_accuracy_pass_holds_few_activations_and_keeps_none(use_norm):
    rng = np.random.default_rng(18)
    rows, width = 2000, 256
    enc = _varied_encoder([16, width, width, width], use_norm, rng)
    clf = LinearClassifier.create(width, 4, seed=18)
    x = rng.standard_normal((rows, 16))
    y = rng.integers(0, 4, rows)
    classification_accuracy(enc, clf, x, y)  # numpy's one-time allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        classification_accuracy(enc, clf, x, y)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    activation = rows * width * 8
    # a layer's input and output and the output's finiteness mask (1/8 of
    # it), plus inside a norm layer its centred input; numpy keeps ~100
    # bytes of its own between calls
    assert peak < (3.5 if use_norm else 2.5) * activation
    assert kept < 1024


def test_encoder_backward_requires_cache():
    enc = MlpEncoder.create([4, 3], seed=7)
    enc.encode(np.zeros((2, 4)), mode="eval")  # eval drops the cache by default
    with pytest.raises(StateError):
        enc.backward(np.zeros((2, 3)))


def test_encoder_cache_survives_multiple_backwards():
    enc = MlpEncoder.create([4, 3], seed=8)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 4))
    enc.encode(x, mode="train")
    g1 = enc.backward(np.ones((5, 3)))
    g2 = enc.backward(np.ones((5, 3)))
    assert g1.keys() == g2.keys()
    for name in g1:
        npt.assert_array_equal(g1[name], g2[name])


def test_classifier_backward_matches_fd():
    rng = np.random.default_rng(9)
    for with_bias in (True, False):
        clf = LinearClassifier.create(5, 3, seed=10, with_bias=with_bias)
        z = rng.standard_normal((6, 5))
        r = rng.standard_normal((6, 3))
        gz, grads = clf.backward(z, r)
        assert rel_error(gz, numeric_grad(lambda: np.sum(r * clf.logits(z)), z)) < 1e-6
        assert rel_error(grads["clf.w"], numeric_grad(lambda: np.sum(r * clf.logits(z)), clf.omega)) < 1e-6
        if with_bias:
            assert rel_error(grads["clf.b"], numeric_grad(lambda: np.sum(r * clf.logits(z)), clf.bias)) < 1e-6
        else:
            assert "clf.b" not in grads


def test_clone_freezes_source_and_frees_adapted():
    enc = MlpEncoder.create([4, 3], use_norm=False, seed=11)
    clf = LinearClassifier.create(3, 2, seed=12)
    pair = clone_for_adaptation(enc, clf)
    with pytest.raises(ValueError):
        pair.source_encoder.weights[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        pair.source_classifier.omega[0, 0] = 1.0
    pair.adapted_encoder.weights[0][0, 0] = 1.0  # adapted copy stays writable
    assert enc.weights[0][0, 0] == 1.0 or True  # source object is the frozen one


def test_clone_fingerprints_start_equal_then_diverge():
    enc = MlpEncoder.create([4, 3], seed=13)
    clf = LinearClassifier.create(3, 2, seed=14)
    pair = clone_for_adaptation(enc, clf)
    assert pair.source_fingerprint() == pair.adapted_fingerprint()
    pair.adapted_classifier.omega[0, 0] += 1.0
    assert pair.source_fingerprint() != pair.adapted_fingerprint()


def test_reinitialized_changes_weights_but_not_shape():
    enc = MlpEncoder.create([6, 5, 4], use_norm=True, seed=17)
    fresh = enc.reinitialized(seed=99)
    assert fresh.layer_dims == enc.layer_dims
    assert model_fingerprint(fresh) != model_fingerprint(enc)
    npt.assert_array_equal(
        MlpEncoder.create([6, 5, 4], use_norm=True, seed=99).weights[0], fresh.weights[0]
    )


def test_encoder_refuses_arrays_that_do_not_match_layer_dims():
    enc = MlpEncoder.create([6, 5, 4], use_norm=True, seed=0)
    parts = dict(weights=enc.weights, biases=enc.biases, norms=enc.norms)
    MlpEncoder([6, 5, 4], **parts)
    for dims in ([6, 7, 4], [6, 5, 3], [5, 5, 4]):
        with pytest.raises(DimensionError, match="layer 0|layer 1"):
            MlpEncoder(dims, **parts)
    with pytest.raises(DimensionError, match="layer 1"):
        MlpEncoder([6, 5, 4], **{**parts, "biases": [enc.biases[0], np.zeros(5)]})
    with pytest.raises(DimensionError, match="norm 0"):
        MlpEncoder([6, 5, 4], **{**parts, "norms": [NormLayerState.create(4)]})


def test_classification_accuracy_on_separable_points():
    clf = LinearClassifier(np.array([[1.0, -1.0]]), np.zeros(2))
    enc = MlpEncoder([1, 1], [np.eye(1)], [np.zeros(1)], [])
    x = np.array([[2.0], [-3.0], [4.0]])
    y = np.array([0, 1, 0])
    assert classification_accuracy(enc, clf, x, y) == 1.0
    assert classification_accuracy(enc, clf, x, np.array([1, 0, 1])) == 0.0


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    enc = MlpEncoder.create([6, 5, 4], use_norm=True, seed=18)
    clf = LinearClassifier.create(4, 3, seed=19)
    # make running stats nontrivial before saving
    enc.encode(np.random.default_rng(18).standard_normal((16, 6)), mode="train")
    enc.update_running_stats()
    path = tmp_path / "model.json"
    save_checkpoint(path, enc, clf, seed=18)
    enc2, clf2, meta = load_checkpoint(path)
    assert meta["seed"] == 18
    assert model_fingerprint(enc, clf) == model_fingerprint(enc2, clf2)
    # save -> load -> save is byte-stable
    path2 = tmp_path / "again.json"
    save_checkpoint(path2, enc2, clf2, seed=18)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_bad_schema(tmp_path):
    enc = MlpEncoder.create([4, 3], seed=20)
    clf = LinearClassifier.create(3, 2, seed=21)
    path = tmp_path / "model.json"
    save_checkpoint(path, enc, clf)
    blob = path.read_text().replace('"format_version": 1', '"format_version": 99')
    bad = tmp_path / "bad.json"
    bad.write_text(blob)
    with pytest.raises(SchemaError):
        load_checkpoint(bad)


def test_logits_reject_a_non_finite_output():
    enc = MlpEncoder.create([4, 3], seed=22)
    clf = LinearClassifier.create(3, 2, seed=23)
    pair = clone_for_adaptation(enc, clf)
    pair.adapted_classifier.omega[0, 0] = np.inf
    x = np.random.default_rng(22).standard_normal((6, 4))
    feats = pair.adapted_encoder.encode(x, mode="eval")
    with pytest.raises(NumericalFailure, match="logits"):
        pair.adapted_classifier.logits(feats)


def test_checkpoint_rejects_non_finite_arrays_naming_the_field(tmp_path):
    enc = MlpEncoder.create([4, 3, 2], use_norm=True, seed=24)
    clf = LinearClassifier.create(2, 2, seed=25)
    path = tmp_path / "model.json"
    save_checkpoint(path, enc, clf)
    doc = json.loads(path.read_text())
    doc["encoder"]["weights"][1][0][0] = float("nan")
    doc["classifier"]["bias"][0] = float("inf")
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"encoder\.weights\[1\] contains NaN or Inf"):
        load_checkpoint(path)
    doc["encoder"]["weights"][1][0][0] = 0.0
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"classifier\.bias contains NaN or Inf"):
        load_checkpoint(path)
