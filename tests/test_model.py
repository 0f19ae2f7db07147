"""Encoder/classifier mechanics: shapes, gradients, freezing, checkpoints."""

import inspect
import json
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import backward_grads, numeric_grad, rel_error
from marginadapt import model
from marginadapt.numeric import (
    NORM_EPS,
    NORM_MOMENTUM,
    NormLayerState,
    batchnorm_backward,
    batchnorm_forward,
    linear_backward,
    linear_forward,
    relu_backward,
    relu_forward,
    update_running_stats,
)
from marginadapt import (
    ConfigError,
    DataError,
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
    pack,
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
        _, grads = backward_grads(enc, r)
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
    _, grads = backward_grads(enc, r)
    for name, p in enc.parameters():
        assert rel_error(grads[name], numeric_grad(loss, p)) < 1e-4, name


def reference_encoder_grads(enc, x, mode, upstream):
    """Forward and backward through the numeric ops, with linear_backward at
    every layer, the first included: the oracle MlpEncoder.backward, which
    skips the first layer's input gradient, must match bit for bit."""
    last = len(enc.weights) - 1
    inputs, acts, stats = [], [], []
    h = x
    for i, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        inputs.append(h)
        h = linear_forward(h, w, b)
        if i < last:
            s = None
            if enc.norms[i] is not None:
                h, s = batchnorm_forward(h, enc.norms[i], mode=mode)
            stats.append(s)
            acts.append(h)
            h = relu_forward(h)
    grads = {}
    g = upstream
    for i in range(last, -1, -1):
        if i < last:
            g = relu_backward(acts[i], g)
            if enc.norms[i] is not None:
                g, grads[f"enc.{i}.gamma"], grads[f"enc.{i}.beta"] = batchnorm_backward(
                    enc.norms[i], stats[i], g)
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
    _, grads = backward_grads(enc, upstream)
    want = reference_encoder_grads(enc, x, mode, upstream)
    assert [n for n, _ in enc.gradients()] == [n for n, _ in enc.parameters()]
    assert sorted(grads) == sorted(want) == sorted(name for name, _ in enc.parameters())
    for name in want:
        npt.assert_array_equal(grads[name], want[name], err_msg=name)


def _varied_encoder(dims, use_norm, rng):
    enc = MlpEncoder.create(dims, use_norm=use_norm, seed=12)
    for norm in enc.norms:
        if norm is not None:  # eval mode reads non-trivial running stats
            norm.running_mean[...] = rng.standard_normal(norm.dim)
            norm.running_var[...] = rng.uniform(0.5, 2.0, size=norm.dim)
    return enc


def _upper_norm_only(enc):
    """The encoder with its lowest hidden layer's norm removed."""
    return MlpEncoder(enc.layer_dims, enc.weights, enc.biases, [None] + enc.norms[1:])


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("dims, norms", [
    ([6, 4], None), ([6, 5, 5, 4], None), ([6, 5, 5, 4], "all"), ([6, 5, 5, 5, 4], "all"),
    ([6, 5, 5, 4], "upper"),
], ids=["one-layer", "linear", "norm", "norm-deep", "norm-upper"])
def test_encoder_backward_under_norm_only_equals_the_full_backward(dims, norms, mode):
    # gamma and beta as the full backward computes them; no other array written
    rng = np.random.default_rng(13)
    enc = _varied_encoder(dims, norms is not None, rng)
    if norms == "upper":
        enc = _upper_norm_only(enc)
    x = rng.standard_normal((9, dims[0]))
    upstream = rng.standard_normal((9, dims[-1]))
    enc.encode(x, mode=mode, retain_cache=True)
    _, full = backward_grads(enc, upstream)
    _, grads = backward_grads(enc, upstream, norm_only=True)
    assert sorted(grads) == sorted(n for n, _ in enc.norm_parameters())
    for name in grads:
        npt.assert_array_equal(grads[name], full[name], err_msg=name)


@pytest.mark.parametrize("norms, want", [
    ("all", ["linear_input_grad", "batchnorm_backward",
             "linear_input_grad", "batchnorm_param_grads"]),
    ("upper", ["linear_input_grad", "batchnorm_param_grads"]),
], ids=["norm", "norm-upper"])
def test_norm_only_backward_computes_no_weight_gradient(norms, want, monkeypatch):
    # Tent's pass stops at the lowest norm's gamma and beta
    rng = np.random.default_rng(14)
    enc = _varied_encoder([6, 5, 5, 4], True, rng)
    if norms == "upper":
        enc = _upper_norm_only(enc)
    enc.encode(rng.standard_normal((9, 6)), mode="train", retain_cache=True)
    calls = []
    for name in ("linear_param_grads", "linear_input_grad",
                 "batchnorm_backward", "batchnorm_param_grads"):
        original = getattr(model, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(model, name, counted)
    _, grads = backward_grads(enc, rng.standard_normal((9, 4)), norm_only=True)
    assert sorted(grads) == sorted(n for n, _ in enc.norm_parameters())
    assert calls == want


def test_classifier_backward_under_norm_only_writes_no_gradient():
    rng = np.random.default_rng(15)
    z = rng.standard_normal((7, 5))
    up = rng.standard_normal((7, 3))
    clf = LinearClassifier.create(5, 3, seed=2)
    gz, full = backward_grads(clf, z, up)
    assert sorted(full) == ["clf.b", "clf.w"]
    hz, grads = backward_grads(clf, z, up, norm_only=True)
    npt.assert_array_equal(hz, gz)
    assert grads == {}


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("use_norm", [False, True], ids=["linear", "norm"])
def test_stacked_encode_and_logits_equal_their_per_batch_calls(use_norm, mode):
    rng = np.random.default_rng(16)
    enc = _varied_encoder([6, 5, 5, 4], use_norm, rng)
    clf = LinearClassifier.create(4, 3, seed=4)
    x = rng.standard_normal((5, 9, 6))
    feats = enc.encode(x, mode=mode, retain_cache=True)
    logits = clf.logits(feats)
    # a stack keeps no backward cache
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


def test_update_running_stats_requires_a_train_mode_cache():
    enc = MlpEncoder.create([4, 3, 3], use_norm=True, seed=7)
    with pytest.raises(StateError, match="^update_running_stats: no train-mode forward cached$"):
        enc.update_running_stats()
    enc.encode(np.ones((2, 4)), mode="eval", retain_cache=True)
    with pytest.raises(StateError, match="^update_running_stats: no train-mode forward cached$"):
        enc.update_running_stats()
    npt.assert_array_equal(enc.norms[0].running_mean, np.zeros(3))
    npt.assert_array_equal(enc.norms[0].running_var, np.ones(3))


def test_encoder_cache_survives_multiple_backwards():
    enc = MlpEncoder.create([4, 3], seed=8)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 4))
    enc.encode(x, mode="train")
    _, g1 = backward_grads(enc, np.ones((5, 3)))
    _, g2 = backward_grads(enc, np.ones((5, 3)))
    assert g1.keys() == g2.keys()
    for name in g1:
        npt.assert_array_equal(g1[name], g2[name])


def test_classifier_backward_matches_fd():
    rng = np.random.default_rng(9)
    clf = LinearClassifier.create(5, 3, seed=10)
    z = rng.standard_normal((6, 5))
    r = rng.standard_normal((6, 3))
    gz, grads = backward_grads(clf, z, r)
    assert rel_error(gz, numeric_grad(lambda: np.sum(r * clf.logits(z)), z)) < 1e-6
    assert rel_error(grads["clf.w"], numeric_grad(lambda: np.sum(r * clf.logits(z)), clf.omega)) < 1e-6
    assert rel_error(grads["clf.b"], numeric_grad(lambda: np.sum(r * clf.logits(z)), clf.bias)) < 1e-6


@pytest.mark.parametrize("use_norm", [False, True], ids=["linear", "norm"])
def test_pack_lays_the_parameters_out_norm_first_and_backward_fills_the_gradients(use_norm):
    rng = np.random.default_rng(19)
    enc = _varied_encoder([6, 5, 5, 4], use_norm, rng)
    clf = LinearClassifier.create(4, 3, seed=5)
    x, up = rng.standard_normal((9, 6)), rng.standard_normal((9, 3))
    ref_enc, ref_clf = enc.copy(), clf.copy()
    fingerprint = model_fingerprint(enc, clf)
    flat = pack(enc, clf)
    assert model_fingerprint(enc, clf) == fingerprint
    params = enc.parameters() + clf.parameters()
    norm = [p for _, p in enc.norm_parameters()]
    linear = [p for n, p in enc.parameters() if n.endswith((".w", ".b"))]
    layout = norm + linear + [p for _, p in clf.parameters()]
    npt.assert_array_equal(flat.values, np.concatenate([p.ravel() for p in layout]))
    assert flat.values.size == flat.grads.size == sum(p.size for _, p in params)
    assert flat.norm == slice(0, sum(p.size for p in norm))
    for _, p in params:  # each parameter is a view of the vector
        assert p.base is flat.values
    # backward writes each gradient into the matching view of `grads`,
    # with the values of an unpacked model's backward
    for e, c in ((enc, clf), (ref_enc, ref_clf)):
        e.backward(c.backward(e.encode(x, mode="train"), up))
    ref = dict(ref_enc.gradients() + ref_clf.gradients())
    names = ([n for n, _ in enc.norm_parameters()]
             + [n for n, _ in enc.parameters() if n.endswith((".w", ".b"))]
             + [n for n, _ in clf.parameters()])
    npt.assert_array_equal(flat.grads, np.concatenate([ref[n].ravel() for n in names]))
    for (_, p), (_, g) in zip(params, enc.gradients() + clf.gradients()):
        assert g.base is flat.grads and g.shape == p.shape


def test_clone_freezes_source_and_frees_adapted():
    enc = MlpEncoder.create([4, 3, 3], use_norm=True, seed=11)
    clf = LinearClassifier.create(3, 2, seed=12)
    pair = clone_for_adaptation(enc, clf)
    with pytest.raises(ValueError):
        pair.source_encoder.weights[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        pair.source_classifier.omega[0, 0] = 1.0
    pair.adapted_encoder.weights[0][0, 0] = 1.0  # adapted copy stays writable
    # the caller's model is the frozen source, every state array of it
    assert pair.source_encoder is enc and pair.source_classifier is clf
    source = enc.state_arrays() + clf.parameters()
    adapted = pair.adapted_encoder.state_arrays() + pair.adapted_classifier.parameters()
    assert len(source) == len(adapted) == 10
    assert not any(a.flags.writeable for _, a in source)
    assert all(a.flags.writeable for _, a in adapted)


def test_a_pair_refuses_the_source_as_its_own_adapted_half():
    enc = MlpEncoder.create([4, 3], seed=15)
    clf = LinearClassifier.create(3, 2, seed=16)
    for halves in ((enc, clf.copy()), (enc.copy(), clf)):
        with pytest.raises(ConfigError, match="^ModelPair: the adapted halves must be copies"):
            model.ModelPair(enc, clf, *halves)


def test_clone_fingerprints_start_equal_then_diverge():
    enc = MlpEncoder.create([4, 3], seed=13)
    clf = LinearClassifier.create(3, 2, seed=14)
    pair = clone_for_adaptation(enc, clf)
    assert pair.source_fingerprint() == pair.adapted_fingerprint()
    pair.adapted_classifier.omega[0, 0] += 1.0
    assert pair.source_fingerprint() != pair.adapted_fingerprint()


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


def test_norm_layers_run_with_the_package_eps_and_momentum(tmp_path):
    # no encoder, op or checkpoint carries a pair of its own
    for fn in (MlpEncoder, MlpEncoder.create, batchnorm_forward, update_running_stats):
        assert not {"eps", "momentum"} & set(inspect.signature(fn).parameters), fn
    enc = MlpEncoder.create([6, 5, 4], use_norm=True, seed=0)
    assert not hasattr(enc, "eps") and not hasattr(enc, "momentum")
    x = np.random.default_rng(0).standard_normal((8, 6))
    enc.encode(x)
    enc.update_running_stats()
    a = linear_forward(x, enc.weights[0], enc.biases[0])
    var = a.var(axis=0)
    npt.assert_allclose(enc.norms[0].running_var, (1 - NORM_MOMENTUM) + NORM_MOMENTUM * var,
                        rtol=1e-14)
    z = linear_forward(relu_forward((a - a.mean(axis=0)) / np.sqrt(var + NORM_EPS)),
                       enc.weights[1], enc.biases[1])
    npt.assert_allclose(enc.encode(x), z, rtol=1e-12)
    path = tmp_path / "model.json"
    clf = LinearClassifier.create(4, 3, seed=1)
    save_checkpoint(path, enc, clf)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 3
    assert sorted(doc) == ["arrays", "format_version", "layer_dims", "seed"]
    assert sorted(doc["arrays"]) == sorted(n for n, _ in enc.state_arrays() + clf.parameters())


@pytest.mark.parametrize("setting", [dict(eps=1e-5, momentum=0.1), dict(eps=1e-3, momentum=0.5)],
                         ids=["defaults", "other"])
def test_a_version_1_checkpoint_is_refused(setting, tmp_path):
    # a version 1 file carries its own eps and momentum, which a load would
    # drop; it is refused even when they equal the constants
    path = tmp_path / "model.json"
    save_checkpoint(path, MlpEncoder.create([4, 3, 2], use_norm=True),
                    LinearClassifier.create(2, 2))
    doc = json.loads(path.read_text())
    doc["format_version"] = 1
    doc.update(setting)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"^checkpoint .*: format_version 1 not supported$"):
        load_checkpoint(path)


@pytest.mark.parametrize("eps, written", [(np.inf, "Infinity"), (np.nan, "NaN")])
@pytest.mark.parametrize("where", ["key", "array"])
def test_a_checkpoint_with_a_non_finite_eps_is_refused_at_load(where, eps, written, tmp_path):
    # a version 3 file has no eps; one added by hand, as a top-level key or
    # as a layer's array, is refused by name, not dropped for NORM_EPS
    path = tmp_path / "model.json"
    save_checkpoint(path, MlpEncoder.create([4, 3, 2], use_norm=True),
                    LinearClassifier.create(2, 2))
    doc = json.loads(path.read_text())
    name = "eps" if where == "key" else "enc.0.eps"
    (doc if where == "key" else doc["arrays"])[name] = eps
    path.write_text(json.dumps(doc))
    assert f'"{name}": {written}' in path.read_text()
    with pytest.raises(SchemaError, match=rf"^checkpoint .*: unknown {where} {re.escape(name)}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, error", [
    (lambda doc: doc["arrays"].pop("enc.1.w"), r"missing or malformed field \('enc\.1\.w'\)"),
    (lambda doc: doc["arrays"].pop("clf.b"), r"missing or malformed field \('clf\.b'\)"),
    (lambda doc: doc["arrays"].pop("enc.0.beta"), r"missing or malformed field \('enc\.0\.beta'\)"),
    # without its gamma a layer has no norm, so its other arrays are unknown
    (lambda doc: doc["arrays"].pop("enc.0.gamma"), r"unknown array enc\.0\.beta"),
    (lambda doc: doc["arrays"].update({"enc.2.w": [[1.0]]}), r"unknown array enc\.2\.w"),
    (lambda doc: doc.pop("layer_dims"), r"missing or malformed field \('layer_dims'\)"),
    (lambda doc: doc.update(arrays=[]), r"missing or malformed field \(arrays is a list"),
    # refused by the model's own constructors, still named as the checkpoint's
    (lambda doc: doc.update(layer_dims=[4]), r"missing or malformed field \(layer_dims needs"),
    (lambda doc: doc["arrays"]["enc.0.running_var"].__setitem__(0, -1.0),
     r"missing or malformed field \(running_var must be nonnegative\)"),
], ids=["weight", "classifier-bias", "beta", "gamma", "extra-layer", "layer-dims", "arrays-list",
        "one-layer-dim", "negative-running-var"])
def test_a_checkpoint_missing_or_adding_an_array_is_refused_naming_it(edit, error, tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(path, MlpEncoder.create([4, 3, 2], use_norm=True),
                    LinearClassifier.create(2, 2))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=rf"^checkpoint .*: {error}"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classifier_refuses_a_non_finite_bias(bad):
    with pytest.raises(NumericalFailure, match="^bias: contains NaN or Inf$"):
        LinearClassifier(np.ones((3, 2)), [bad, 0.0])
    with pytest.raises(DimensionError, match="^bias length must equal the number of classes$"):
        LinearClassifier(np.ones((3, 2)), [0.0, 0.0, 0.0])


def test_classification_accuracy_on_separable_points():
    clf = LinearClassifier(np.array([[1.0, -1.0]]), np.zeros(2))
    enc = MlpEncoder([1, 1], [np.eye(1)], [np.zeros(1)], [])
    x = np.array([[2.0], [-3.0], [4.0]])
    y = np.array([0, 1, 0])
    assert classification_accuracy(enc, clf, x, y) == 1.0
    assert classification_accuracy(enc, clf, x, np.array([1, 0, 1])) == 0.0


def test_classification_accuracy_refuses_no_rows():
    enc = MlpEncoder.create([3, 4], seed=0)
    clf = LinearClassifier.create(4, 2, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^classification_accuracy: no rows to score$"):
            classification_accuracy(enc, clf, np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("labels", [[0], [0] * 4, [0] * 6, [[0]] * 5, 0],
                         ids=["one", "short", "long", "column", "scalar"])
def test_classification_accuracy_refuses_labels_that_are_not_one_per_row(labels):
    # numpy would broadcast them: five rows against [0] scored 1.0
    enc = MlpEncoder.create([3, 4], seed=0)
    clf = LinearClassifier(np.zeros((4, 2)), np.zeros(2))
    shape = np.shape(labels)
    with pytest.raises(DimensionError,
                       match=rf"^classification_accuracy: labels shape {re.escape(str(shape))} != \(5,\)$"):
        classification_accuracy(enc, clf, np.ones((5, 3)), labels)


@pytest.mark.parametrize("norms", [None, "all", "upper"], ids=["linear", "norm", "norm-upper"])
def test_checkpoint_round_trip_is_bit_exact(norms, tmp_path):
    # a load finds each layer's norm from the array names
    enc = MlpEncoder.create([6, 5, 5, 4], use_norm=norms is not None, seed=18)
    if norms == "upper":
        enc = _upper_norm_only(enc)
    clf = LinearClassifier.create(4, 3, seed=19)
    # make running stats nontrivial before saving
    enc.encode(np.random.default_rng(18).standard_normal((16, 6)), mode="train")
    enc.update_running_stats()
    path = tmp_path / "model.json"
    save_checkpoint(path, enc, clf, seed=18)
    enc2, clf2, meta = load_checkpoint(path)
    assert meta["seed"] == 18
    assert [n is None for n in enc2.norms] == [n is None for n in enc.norms]
    assert model_fingerprint(enc, clf) == model_fingerprint(enc2, clf2)
    # save -> load -> save is byte-stable
    path2 = tmp_path / "again.json"
    save_checkpoint(path2, enc2, clf2, seed=18)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("version", [1, 2, 99])
def test_checkpoint_rejects_bad_schema(version, tmp_path):
    enc = MlpEncoder.create([4, 3], seed=20)
    clf = LinearClassifier.create(3, 2, seed=21)
    path = tmp_path / "model.json"
    save_checkpoint(path, enc, clf)
    doc = json.loads(path.read_text())
    doc["format_version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=rf"^checkpoint .*: format_version {version} not supported$"):
        load_checkpoint(path)


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
    doc["arrays"]["enc.1.w"][0][0] = float("nan")
    doc["arrays"]["clf.b"][0] = float("inf")
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"enc\.1\.w contains NaN or Inf"):
        load_checkpoint(path)
    doc["arrays"]["enc.1.w"][0][0] = 0.0
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"clf\.b contains NaN or Inf"):
        load_checkpoint(path)
    # every classifier has a bias; numpy would read null as NaN
    doc["arrays"]["clf.b"] = None
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=r"^checkpoint .*: clf\.b is null$"):
        load_checkpoint(path)
