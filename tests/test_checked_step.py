"""Checked steps: a trainer's step is checked by floating-point flags, not by
a scan of every op's output, and fails with the message the scan gives."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import marginadapt
from marginadapt import (
    Adam,
    AdaptConfig,
    LinearClassifier,
    MemoryBank,
    MlpEncoder,
    NormLayerState,
    NumericalFailure,
    ShiftSpec,
    TrainConfig,
    clone_for_adaptation,
    compute_prototypes,
    gen_synthetic_shift,
    refresh_classifier,
    run_method,
    stream_batches,
    train_source_erm,
)
from marginadapt import adapt, memory, model, numeric, train
from marginadapt.numeric import batchnorm_forward, update_running_stats


def _task(seed, dims=(16, 12, 12), use_norm=True):
    sources, target = gen_synthetic_shift(
        ShiftSpec(samples_per_domain=200, num_source_domains=2, seed=seed))
    enc = MlpEncoder.create(list(dims), use_norm=use_norm, seed=seed)
    clf = LinearClassifier.create(dims[-1], 4, seed=seed + 1)
    return sources, target, enc, clf


def _failure(run):
    """The NumericalFailure that run() raises, with every warning an error:
    a checked step fails by its flags, with no overflow warning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure) as err:
            run()
    return err.value


def _erm(sources, enc, clf, **cfg):
    return lambda: train_source_erm(enc, clf, sources, TrainConfig(**{"seed": 0, **cfg}))


def _pass(enc, clf, target, **cfg):
    pair = clone_for_adaptation(enc, clf)
    return lambda: run_method(pair, target, AdaptConfig(**{"seed": 0, **cfg}))


# -- every overflow site in a checked step names itself -----------------------
#
# Each spy hands its op values that overflow inside it, and only inside a
# checked step, so the op must turn the flag into its own NumericalFailure.

def _huge(a):
    return np.full_like(a, 1e308)


def _spread(z):  # a logit range past the float range: z - max overflows
    out = _huge(z)
    out[..., 0] = -1e308
    return out


_SITES = {
    "linear_forward": (model, "linear_forward", "linear_forward",
                       lambda f: lambda x, w, b: f(_huge(x), np.ones_like(w), b)),
    "linear_param_grads": (model, "linear_param_grads", "linear_backward",
                           lambda f: lambda x, w, up, out=None: f(_huge(x), w, np.ones_like(up), out)),
    "linear_input_grad": (model, "linear_input_grad", "linear_backward",
                          lambda f: lambda w, up: f(np.ones_like(w), _huge(up))),
    "batchnorm_forward": (model, "batchnorm_forward", "batchnorm_forward",
                          lambda f: lambda x, state, **kw: f(_huge(x), state, **kw)),
    "batchnorm_backward": (model, "batchnorm_backward", "batchnorm_backward",
                           lambda f: lambda state, stats, up, out=None: f(state, stats, _huge(up), out)),
    "logits": (LinearClassifier, "logits", "logits",
               lambda f: lambda self, z: f(LinearClassifier(np.ones_like(self.omega), self.bias),
                                           _huge(z))),
    "softmax_rows": (None, "softmax_rows", "softmax_rows", lambda f: lambda z: f(_spread(z))),
    "marginal_loss": (adapt, "marginal_loss", "marginal_loss",
                      lambda f: lambda a, s, sigma: f(_huge(a), np.full_like(s, -1e308), sigma)),
    "Adam.step": (Adam, "step", "Adam.step",
                  lambda f: lambda self: (self.grads.fill(1e200), f(self))[1]),
    "compute_prototypes": (memory, "compute_prototypes", "compute_prototypes",
                           lambda f: lambda bank: (bank.features.fill(1e308), f(bank))[1]),
}

_CASES = [(site, "erm") for site in _SITES if site not in ("marginal_loss", "compute_prototypes")]
_CASES += [(site, "unidg") for site in _SITES]


@pytest.mark.parametrize("site, trainer", _CASES)
def test_an_overflow_at_each_site_of_a_checked_step_names_the_op_and_the_step(
        site, trainer, monkeypatch):
    owner, attr, op, make_spy = _SITES[site]
    if owner is None:  # softmax_rows, as the trainer's module imported it
        owner = train if trainer == "erm" else adapt
    original = getattr(owner, attr)
    spy = make_spy(original)

    def checked_only(*args, **kwargs):
        if numeric._CHECKED.get():
            return spy(*args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, checked_only)
    sources, target, enc, clf = _task(3)
    if trainer == "erm":
        run, wrap = _erm(sources, enc, clf, epochs=1), "training aborted at epoch 0, step 0: "
    else:
        run, wrap = _pass(enc, clf, target, method=trainer), "adaptation aborted at step 0: "
    err = _failure(run)
    what = "non-finite value" if op == "marginal_loss" else "produced non-finite values"
    assert str(err) == f"{wrap}{op}: {what}"
    assert isinstance(err.__cause__.__cause__, FloatingPointError)  # the flag, not a scan


def test_the_running_stats_fold_is_no_overflow_site():
    # with NORM_MOMENTUM fixed the fold is a convex combination: an inf
    # variance folds to inf, and the largest finite values stay finite, with
    # no flag raised (a checked forward fails on an inf variance first)
    big = np.finfo(np.float64).max
    state = NormLayerState(np.ones(2), np.zeros(2), np.full(2, -big), np.full(2, big))
    with np.errstate(all="raise"):
        update_running_stats(state, np.array([big, -big]), np.array([np.inf, big]))
    assert state.running_var.tolist() == [np.inf, big]
    assert np.isfinite(state.running_mean).all()


def test_arithmetic_between_the_ops_fails_the_step_as_a_numerical_failure(monkeypatch):
    def overflow(self, upstream, norm_only=False):
        np.multiply(upstream, 1e308) * 1e308

    monkeypatch.setattr(MlpEncoder, "backward", overflow)
    sources, _, enc, clf = _task(4)
    err = _failure(_erm(sources, enc, clf, epochs=1))
    assert str(err) == ("training aborted at epoch 0, step 0: "
                        "non-finite step arithmetic: overflow encountered in multiply")


def _overflow_at_call(n):
    """An encoder backward whose n-th call overflows in arithmetic that no op
    names; every other call is the real backward."""
    original = MlpEncoder.backward
    calls = []

    def backward(self, upstream, norm_only=False):
        calls.append(None)
        if len(calls) == n:
            np.multiply(upstream, 1e308) * 1e308
        return original(self, upstream, norm_only)

    return backward


@pytest.mark.parametrize("trainer, call, wrap", [
    ("erm", 13, "training aborted at epoch 1, step 2: "),
    ("pseudo_label", 4, "adaptation aborted at step 3: "),
    ("unidg", 8, "adaptation aborted at step 7: "),
])
def test_arithmetic_between_the_ops_mid_epoch_or_run_names_its_step(
        trainer, call, wrap, monkeypatch):
    # ERM runs 10 steps an epoch; the 200-row stream's runs are steps 0-5
    # and 6 in batches of 32, and one run of steps 0-9 in batches of 20
    monkeypatch.setattr(MlpEncoder, "backward", _overflow_at_call(call))
    sources, target, enc, clf = _task(4)
    if trainer == "erm":
        run = _erm(sources, enc, clf, epochs=2)
    else:
        run = _pass(enc, clf, target, method=trainer, batch_size=20 if trainer == "unidg" else 32)
    err = _failure(run)
    assert str(err) == f"{wrap}non-finite step arithmetic: overflow encountered in multiply"


def test_a_trainer_enters_the_flags_once_per_epoch_or_run_of_steps(monkeypatch):
    entered = []
    original = numeric.checked_step.__enter__

    def enter(self):
        entered.append(None)
        return original(self)

    monkeypatch.setattr(numeric.checked_step, "__enter__", enter)
    sources, target, enc, clf = _task(13)
    train_source_erm(enc, clf, sources, TrainConfig(epochs=3, seed=0))
    assert len(entered) == 3
    # the 200-row stream is 6 batches of 32 and one of 8: runs 0-5 and 6, or
    # under a budget of 5 steps, 0-4 (stepping), 5 and 6 (scored only)
    counts = []
    for steps in (None, 5, 0):
        entered.clear()
        run_method(clone_for_adaptation(enc, clf), target,
                   AdaptConfig(method="unidg", steps=steps, seed=0))
        counts.append(len(entered))
    assert counts == [2, 1, 0]


def test_a_checked_step_does_not_scan_its_rows_and_a_direct_encode_does():
    # the trainer scanned the rows as it started, so a checked step takes
    # them as they are: a NaN spreads without a flag
    enc = MlpEncoder.create([4, 3], seed=0)
    x = np.ones((5, 4))
    x[2, 1] = np.nan
    with numeric.checked_step():
        out = enc.encode(x, mode="eval")
    assert np.isnan(out[2]).all() and np.isfinite(np.delete(out, 2, axis=0)).all()
    with pytest.raises(NumericalFailure, match=r"^x: contains NaN or Inf$"):
        enc.encode(x, mode="eval")


@pytest.mark.parametrize("trainer", ["entropy_norm", "pseudo_label", "unidg", "none"])
def test_a_nan_target_row_fails_its_step_by_the_encoders_scan(trainer):
    # the pass finds the NaN as it starts and lets every op and input scan
    _, target, enc, clf = _task(14)
    target.features[stream_batches(target.n, 32, 0)[3][5]] = np.nan
    with pytest.raises(NumericalFailure) as err:
        _pass(enc, clf, target, method=trainer)()
    assert str(err.value) == "adaptation aborted at step 3: x: contains NaN or Inf"


def test_a_nan_in_the_frozen_source_is_named_by_the_op_that_reads_it():
    # the run's stacked source forward fails, so each batch's source
    # features are encoded inside the run's step: the pass scanned the
    # source's parameters as it started and lets every op scan
    _, target, enc, clf = _task(15)
    source = enc.copy()
    source.weights[1][0, 0] = np.nan
    pair = model.ModelPair(source, clf.copy(), enc, clf)
    with pytest.raises(NumericalFailure) as err:
        run_method(pair, target, AdaptConfig(method="unidg", seed=0))
    assert str(err.value) == "adaptation aborted at step 0: linear_forward: produced non-finite values"


# -- real overflows: the messages a scan gives, with no warning first ----------


def test_an_overflowing_target_row_fails_its_step_without_a_warning():
    sources, target, enc, clf = _task(5)
    train_source_erm(enc, clf, sources, TrainConfig(lr=1e-2, epochs=2, seed=5))
    cfg = dict(method="pseudo_label", seed=1)
    target.features[stream_batches(target.n, 32, 1)[4][7]] = 1e308
    enc.weights[0][...] = 1.0  # so that every row sum of it overflows
    err = _failure(_pass(enc, clf, target, **cfg))
    assert str(err) == "adaptation aborted at step 4: linear_forward: produced non-finite values"


def test_erm_at_a_huge_lr_fails_its_second_step_without_a_warning():
    sources, _, enc, clf = _task(6, dims=(16, 16), use_norm=False)
    err = _failure(_erm(sources, enc, clf, lr=1e300, epochs=2, seed=6))
    assert str(err) == "training aborted at epoch 0, step 1: logits: produced non-finite values"


# -- the overflows that now fail where they happen -----------------------------


def test_an_adam_moment_that_overflows_fails_the_step():
    # the features, and with them the classifier's gradients, are near 1e160,
    # so their squares overflow Adam's second moment (a scan of its output
    # sees no inf: an inf moment freezes the coordinate)
    sources, _, enc, clf = _task(7, dims=(16, 16), use_norm=False)
    enc.biases[0][...] = 1e160
    err = _failure(_erm(sources, enc, clf, epochs=1))
    assert str(err) == "training aborted at epoch 0, step 0: Adam.step: produced non-finite values"


def test_a_column_variance_that_overflows_fails_the_step_and_keeps_the_running_stats():
    # pre-norm values near 1e155: their batch variance overflows (a scan of
    # the output sees the column normalised to 0, and an inf would go into
    # running_var)
    sources, _, enc, clf = _task(8)
    enc.weights[0] *= 1e155
    err = _failure(_erm(sources, enc, clf, epochs=1))
    assert str(err) == ("training aborted at epoch 0, step 0: "
                        "batchnorm_forward: produced non-finite values")
    assert all(np.isfinite(n.running_var).all() for n in enc.norms)


def test_a_bank_prototype_sum_that_overflows_fails_the_step():
    # every feature row is 5e307 and lands in one class: the sum of its rows
    # overflows here (a scan would first see the inf in the next logits)
    _, target, enc, clf = _task(9, dims=(16, 24), use_norm=False)
    enc.biases[0][...] = 5e307
    clf.omega[...] *= 1e-3
    err = _failure(_pass(enc, clf, target, method="unidg"))
    assert str(err) == ("adaptation aborted at step 0: "
                        "compute_prototypes: produced non-finite values")


# -- the scan path fails where the flag path fails ------------------------------
#
# Outside a checked step (a direct call, or a trainer whose products are past
# the gate's bound) an op also scans the intermediate whose overflow its
# output would hide.


def _column_of_huge_values():
    x = np.random.default_rng(0).standard_normal((6, 3))
    x[:, 1] = np.resize([1e200, -1e200], 6)  # its variance overflows
    return x


def _bank_whose_sum_overflows():
    bank = MemoryBank(2, 3, capacity_per_class=2)
    bank.features[0] = 1e308
    bank.counts[0] = 2
    return bank


@pytest.mark.parametrize("op, call", [
    ("batchnorm_forward", lambda: batchnorm_forward(_column_of_huge_values(),
                                                    NormLayerState.create(3))),
    ("batchnorm_forward", lambda: batchnorm_forward(_column_of_huge_values()[None],
                                                    NormLayerState.create(3))),
    ("Adam.step", lambda: Adam(np.zeros(3), np.array([0.1, 1e160, 0.1]), lr=1e-3).step()),
    ("Adam.step", lambda: Adam(np.zeros(3), np.array([0.1, 1e10, 0.1]), lr=1e300).step()),
    ("compute_prototypes", lambda: compute_prototypes(_bank_whose_sum_overflows())),
], ids=["batchnorm_forward", "batchnorm_forward-stacked", "Adam.step-moment",
        "Adam.step-update", "compute_prototypes"])
def test_a_direct_call_fails_where_its_intermediate_overflows(op, call):
    # a scan of the outputs alone sees only a RuntimeWarning: the column
    # normalised to 0, the coordinate frozen by its inf moment, an inf
    # parameter, inf prototypes
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure) as err:
        call()
    assert str(err.value) == f"{op}: produced non-finite values"


def test_a_prototype_sum_that_overflows_leaves_the_classifier_as_it_was():
    bank = _bank_whose_sum_overflows()
    clf = LinearClassifier.create(3, 2, seed=0)
    omega, bias = clf.omega.copy(), clf.bias.copy()
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure):
        refresh_classifier(bank, clf)
    assert (clf.omega == omega).all() and (clf.bias == bias).all()


def _huge_variance(enc, clf):  # pre-norm values near 1e155
    enc.weights[0] *= 1e155


def _huge_moment(enc, clf):
    # features near 1e160 through a tiny omega: finite logits, and omega
    # gradients whose squares overflow Adam's second moment
    enc.biases[-1][...] = 1e160
    clf.omega *= 1e-160


def _huge_prototype(enc, clf):  # every feature row is 5e307 and lands in one class
    enc.biases[-1][...] = 5e307
    clf.omega *= 1e-3


@pytest.mark.parametrize("op, plant, trainer, settings", [
    ("batchnorm_forward", _huge_variance, "erm", {}),
    ("batchnorm_forward", _huge_variance, "unidg", dict(enable_lm=False)),
    ("Adam.step", _huge_moment, "erm", {}),
    ("Adam.step", _huge_moment, "unidg", dict(enable_bank=False)),
    ("compute_prototypes", _huge_prototype, "unidg", {}),
], ids=["variance-erm", "variance-unidg", "moment-erm", "moment-unidg", "prototypes-unidg"])
def test_a_scanned_step_names_the_op_that_a_checked_step_names(op, plant, trainer, settings):
    # batches of 32 rows are checked by flags; batches of 1024 put the
    # [16, 48, 48] model's products past the gate's bound, so every op scans
    messages = []
    for batch_size, checked in ((32, True), (1024, False)):
        sources, target, enc, clf = _task(12, dims=(16, 48, 48))
        plant(enc, clf)
        assert (model.step_context(enc, clf, batch_size, target.features) is numeric.checked_step) == checked
        if trainer == "erm":
            run = _erm(sources, enc, clf, epochs=1, batch_size=batch_size)
        else:
            run = _pass(enc, clf, target, method=trainer, batch_size=batch_size, **settings)
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure) as err:
            run()
        assert isinstance(err.value.__cause__.__cause__, FloatingPointError) == checked
        messages.append(str(err.value))
    wrap = ("training aborted at epoch 0, step 0: " if trainer == "erm"
            else "adaptation aborted at step 0: ")
    assert messages == [f"{wrap}{op}: produced non-finite values"] * 2


# -- the gate: a NaN already in the model is found by the ops' scans -----------


@pytest.mark.parametrize("where, op", [
    ("omega", "logits"),
    ("beta", "batchnorm_forward"),
    ("weights[1]", "linear_forward"),
])
@pytest.mark.parametrize("trainer", ["erm", "entropy_norm", "pseudo_label", "unidg"])
def test_a_nan_in_the_model_is_named_by_the_op_that_reads_it(where, op, trainer):
    # flags cannot see a NaN that was there before the step; the trainer
    # finds it when it starts and lets every op scan. ERM's first holdout
    # pass refuses it before any step.
    sources, target, enc, clf = _task(10)
    if trainer != "erm":
        train_source_erm(enc, clf, sources, TrainConfig(lr=1e-2, epochs=1, seed=10))
        pair = clone_for_adaptation(enc, clf)
        enc, clf = pair.adapted_encoder, pair.adapted_classifier
    {"omega": clf.omega, "beta": enc.norms[0].beta, "weights[1]": enc.weights[1]}[where][0] = np.nan
    with pytest.raises(NumericalFailure) as err:
        if trainer == "erm":
            train_source_erm(enc, clf, sources, TrainConfig(epochs=1, seed=10))
        else:
            run_method(pair, target, AdaptConfig(method=trainer, seed=1))
    wrap = "" if trainer == "erm" else "adaptation aborted at step 0: "
    assert str(err.value) == f"{wrap}{op}: produced non-finite values"


def test_the_gate_checks_by_flags_only_a_finite_model_of_small_products():
    _, target, enc, clf = _task(11, dims=(16, 48, 48))
    rows = target.features
    bound = numeric.FLAGGED_PRODUCT_MAX // (48 * 48)
    assert model.step_context(enc, clf, bound, rows) is numeric.checked_step
    assert model.step_context(enc, clf, bound + 1, rows) is not numeric.checked_step
    source = enc.copy()
    source.weights[0][0, 0] = np.nan
    assert model.step_context(enc, clf, 32, rows, source) is not numeric.checked_step
    rows = rows.copy()
    rows[7, 3] = np.inf
    assert model.step_context(enc, clf, 32, rows) is not numeric.checked_step
    clf.bias[0] = np.inf
    assert model.step_context(enc, clf, 32, target.features) is not numeric.checked_step


# -- OpenBLAS worker threads: their flags are lost, so the gate bounds products --

_BLAS_SCRIPT = """
import numpy as np
from marginadapt import (AdaptConfig, DomainDataset, LinearClassifier, MlpEncoder,
                         NumericalFailure, TrainConfig, clone_for_adaptation, run_method,
                         stream_batches, train_source_erm)
from marginadapt.numeric import FLAGGED_PRODUCT_MAX
from marginadapt.train import _pooled_splits


def dataset(seed):
    rng = np.random.default_rng(seed)
    return DomainDataset(rng.normal(size=(700, 16)), rng.integers(0, 4, 700), 4, f"d{seed}")


def model(seed):
    # a row of 1e10 in a batch of hundreds normalises to about +-25 in each
    # column, and the others to about -+0.04: through gamma 1e306 and the
    # all-ones 48x48 layer, only that row's product overflows (at eval, the
    # holdout rows stay finite too)
    enc = MlpEncoder.create([16, 48, 48], use_norm=True, seed=seed)
    enc.norms[0].gamma[...] = 1e306
    enc.weights[1][...] = 1.0
    return enc, LinearClassifier.create(48, 4, seed=seed + 1)


def expect(run, wrap):
    try:
        run()
    except NumericalFailure as e:
        assert str(e) == wrap + "linear_forward: produced non-finite values", str(e)
    else:
        raise AssertionError("no NumericalFailure")


# (b) a product at the bound with an overflow in its last row raises the flag
rows = FLAGGED_PRODUCT_MAX // (32 * 32)
assert rows * 32 * 32 == FLAGGED_PRODUCT_MAX
x = np.random.default_rng(0).uniform(-1.0, 1.0, (rows, 32))
x[-1] = 1e308
with np.errstate(over="raise"):
    try:
        x @ np.ones((32, 32))
    except FloatingPointError:
        pass
    else:
        raise AssertionError("an overflow at the bound raised no flag")

# (a) one batch of 560 (ERM) or 700 (a pass) rows, the last one overflowing
# in the 48x48 product: it is above the bound, and a worker thread computes
# that row and loses its flag
source = dataset(0)
cfg = TrainConfig(batch_size=1024, epochs=1, seed=0)
(x_train, _), _ = _pooled_splits([source], cfg)
last = x_train[np.random.default_rng(cfg.seed).permutation(x_train.shape[0])[-1]]
source.features[(source.features == last).all(axis=1)] = 1e10
expect(lambda: train_source_erm(*model(0), [source], cfg), "training aborted at epoch 0, step 0: ")

target = dataset(1)
cfg = AdaptConfig(method="pseudo_label", batch_size=1024, seed=0)
target.features[stream_batches(target.n, cfg.batch_size, cfg.seed)[0][-1]] = 1e10
pair = clone_for_adaptation(*model(2))
expect(lambda: run_method(pair, target, cfg), "adaptation aborted at step 0: ")
"""


def test_an_overflow_in_a_blas_worker_thread_is_still_caught():
    src = str(Path(marginadapt.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-W", "ignore::RuntimeWarning", "-c", _BLAS_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
