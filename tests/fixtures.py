"""Trained desk-scale models on the default shift task, cached per seed.

Training dominates test runtime, so the trained originals are memoized and
callers receive fresh copies. Never mutate the cached objects directly;
adaptation tests must go through clone_for_adaptation.
"""

from functools import lru_cache

from marginadapt import (
    LinearClassifier,
    MlpEncoder,
    ShiftSpec,
    TrainConfig,
    gen_synthetic_shift,
    train_source_erm,
)


@lru_cache(maxsize=None)
def _linear(seed):
    sources, target = gen_synthetic_shift(ShiftSpec(seed=seed))
    enc = MlpEncoder.create([16, 32], seed=seed)
    clf = LinearClassifier.create(32, 4, seed=seed + 1)
    report = train_source_erm(enc, clf, sources, TrainConfig(lr=1e-2, epochs=12, seed=seed))
    return sources, target, enc, clf, report


@lru_cache(maxsize=None)
def _norm(seed, angle_deg):
    sources, target = gen_synthetic_shift(ShiftSpec(seed=seed, angle_deg=angle_deg))
    enc = MlpEncoder.create([16, 48, 48], use_norm=True, seed=seed)
    clf = LinearClassifier.create(48, 4, seed=seed + 1)
    report = train_source_erm(enc, clf, sources, TrainConfig(lr=3e-3, epochs=15, seed=seed))
    return sources, target, enc, clf, report


def linear_fixture(seed=0):
    """(sources, target, encoder, classifier) with a trained linear encoder."""
    sources, target, enc, clf, _ = _linear(seed)
    return sources, target, enc.copy(), clf.copy()


def norm_fixture(seed=0, angle_deg=ShiftSpec.angle_deg):
    """(sources, target, encoder, classifier) with a trained norm-bearing MLP."""
    sources, target, enc, clf, _ = _norm(seed, angle_deg)
    return sources, target, enc.copy(), clf.copy()
