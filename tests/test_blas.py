"""The process-wide BLAS rule: numpy's and scipy's OpenBLAS run on one thread
after any train call or command, read back through each library's own getter."""

import ctypes
import threading

import numpy as np
import pytest

from eegspeech import blas, cli, nn
from eegspeech.nn import training


def _thread_counts() -> dict[str, int]:
    """numpy's and scipy's OpenBLAS thread counts, through the getters their
    wheels export; the test is skipped where a getter is not found."""
    try:
        from numpy._core import _multiarray_umath
        from scipy.linalg import _fblas

        return {"numpy": ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_(),
                "scipy": ctypes.CDLL(_fblas.__file__).scipy_openblas_get_num_threads()}
    except (ImportError, OSError, AttributeError):
        pytest.skip("numpy or scipy has no scipy-openblas thread-count getter")


def _set_two_threads() -> None:
    _thread_counts()
    for library in ("numpy", "scipy"):
        blas._setter(library)(2)
    assert _thread_counts() == {"numpy": 2, "scipy": 2}


def _pairs(rng, n):
    return [(rng.standard_normal((20, 31)), 0.1 * rng.standard_normal((300, 1))) for _ in range(n)]


def test_train_leaves_openblas_at_one_thread(rng):
    _set_two_threads()
    model = nn.build_synthesis_model(seed=6, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
    nn.train(model, _pairs(rng, 2), nn.TrainConfig(epochs=1, batch_size=2, learning_rate=1e-3, seed=3))
    assert _thread_counts() == {"numpy": 1, "scipy": 1}


def test_a_command_that_does_not_train_pins_openblas(tmp_path):
    _set_two_threads()
    assert cli.main(["grad-check", "--out", str(tmp_path)]) == 0
    assert _thread_counts() == {"numpy": 1, "scipy": 1}


def test_train_without_openblas_runs_on_the_calling_thread(rng, monkeypatch):
    """Where neither library's setter is found, nothing is pinned and every
    slice of a multi-slice batch runs on the calling thread."""
    monkeypatch.setattr(blas, "_setter", lambda library: None)
    monkeypatch.setattr(training, "MICRO_BATCH_OUTPUT_STEPS", 300)
    assert not blas.numpy_pinned() and training._worker_count(4) == 1
    threads, train_slice = set(), training._train_slice

    def recording(*args, **kwargs):
        threads.add(threading.get_ident())
        return train_slice(*args, **kwargs)

    monkeypatch.setattr(training, "_train_slice", recording)
    model = nn.build_synthesis_model(seed=6, filters=(8, 4), kernel_size=3, dropout_rate=0.2)
    history = nn.train(model, _pairs(rng, 4), nn.TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, seed=3))
    assert threads == {threading.get_ident()}
    assert np.isfinite(history.final_train_loss())
