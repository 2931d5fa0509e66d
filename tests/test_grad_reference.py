"""Losses and leaf gradients of the full model against a recorded reference.

The reference holds, for every task and seeds 0 and 1, the float64 loss and
every parameter gradient of one backward pass over ``build_gradcheck_case``
at tiny dimensions.  A change to how gradients are stored or accumulated
(not to what they are) must reproduce it bit for bit.

BLAS kernels differ between builds and CPUs, so the comparison is exact only
on the numpy/BLAS build the reference was recorded with, and within 1e-12
relative elsewhere.  To re-record from a commit whose gradients are trusted:

    PYTHONPATH=src python tests/test_grad_reference.py
"""

import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

REFERENCE = Path(__file__).resolve().parent / "data" / "grad_reference.npz"
TASKS = ("action", "trans", "count", "frame")
SEEDS = (0, 1)


def _environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return json.dumps({"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
                       "machine": platform.machine()}, sort_keys=True)


def _case(task: str, seed: int) -> dict:
    """Loss and leaf gradients of one backward pass, keyed ``task/seed/...``."""
    from comem.verification import build_gradcheck_case

    f, tensors = build_gradcheck_case(task, seed=seed)
    loss = f()
    loss.backward()
    out = {f"{task}/{seed}/loss": loss.data}
    for i, t in enumerate(tensors):
        assert t.grad is not None, f"{task} seed {seed}: parameter {i} got no gradient"
        out[f"{task}/{seed}/grad{i}"] = t.grad
    return out


def _record():
    arrays = {"environment": np.array(_environment())}
    for task in TASKS:
        for seed in SEEDS:
            arrays.update(_case(task, seed))
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE, **arrays)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("task", TASKS)
def test_losses_and_leaf_gradients_match_reference(task, seed):
    ref = np.load(REFERENCE)
    exact = str(ref["environment"]) == _environment()
    got = _case(task, seed)
    expected = sorted(k for k in ref.files if k.startswith(f"{task}/{seed}/"))
    assert sorted(got) == expected
    for key in expected:
        assert got[key].dtype == np.float64 and got[key].shape == ref[key].shape, key
        if exact:
            assert np.array_equal(got[key], ref[key]), key
        else:
            np.testing.assert_allclose(got[key], ref[key], rtol=1e-12, atol=1e-15, err_msg=key)


if __name__ == "__main__":
    _record()
    print(f"wrote {REFERENCE}", file=sys.stderr)
