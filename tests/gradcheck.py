"""Central finite differences and gradient read-out shared by the gradient tests."""

import numpy as np


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f w.r.t. array x, elementwise.

    Perturbs x in place and restores it, so f may close over x directly.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_error(analytic, numeric, atol=1e-9):
    """Scale-normalized disagreement: ||a - n|| / max(||a||, ||n||, tiny).

    Gradients that are zero up to finite-difference noise (both norms below
    atol) count as exact agreement; dividing noise by noise would otherwise
    report an error of 1 for a dead parameter whose true gradient is zero.
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    na, nn = np.linalg.norm(a), np.linalg.norm(n)
    if na < atol and nn < atol:
        return 0.0
    return float(np.linalg.norm(a - n) / max(na, nn, 1e-12))


def backward_grads(model, *args, **kwargs):
    """Run model.backward(*args, **kwargs) with every gradient array of the
    model set to NaN first. Returns the backward's result and {name: copy}
    of the gradient arrays it wrote, in gradients() order; every array left
    out was not touched."""
    for _, g in model.gradients():
        g[...] = np.nan
    result = model.backward(*args, **kwargs)
    return result, {n: g.copy() for n, g in model.gradients() if not np.isnan(g).all()}
