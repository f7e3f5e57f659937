import collections.abc
import multiprocessing
import os
import time

import numpy as np
import pytest

from ratecalc import FiniteDirichletForm, transforms


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running."""
    yield
    assert multiprocessing.active_children() == []


# Skips a test that needs worker processes on a machine with one usable core.
MANY_CORES = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one usable core: no workers")


@pytest.fixture()
def one_core(monkeypatch):
    """A call that makes one core usable, as far as the package can tell, for the rest of the test."""
    return lambda: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


@pytest.fixture()
def record_pids(monkeypatch, tmp_path):
    """A call that wraps module.<name> so that each call, in whatever
    process, appends that process's id to tmp_path/<name>.pids, and
    returns the reader of the ids."""

    def wrap(module, name):
        real = getattr(module, name)
        path = tmp_path / f"{name}.pids"

        def recording(*args, **kwargs):
            with open(path, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        return lambda: set(map(int, path.read_text().split())) if path.exists() else set()

    return wrap


def make_fixture_forms():
    """Six small forms: three weight graphs, two measures each."""
    return {
        "two_uniform": FiniteDirichletForm(mu=[0.5, 0.5], edges=[(0, 1, 1.0)]),
        "two_skewed": FiniteDirichletForm(mu=[0.3, 0.7], edges=[(0, 1, 1.0)]),
        "path3_uniform": FiniteDirichletForm(mu=[1 / 3, 1 / 3, 1 / 3], edges=[(0, 1, 1.0), (1, 2, 0.5)]),
        "path3_skewed": FiniteDirichletForm(mu=[0.2, 0.5, 0.3], edges=[(0, 1, 1.0), (1, 2, 0.5)]),
        "tri_uniform": FiniteDirichletForm(mu=[1 / 3, 1 / 3, 1 / 3], edges=[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]),
        "tri_skewed": FiniteDirichletForm(mu=[0.6, 0.25, 0.15], edges=[(0, 1, 0.8), (1, 2, 1.2), (0, 2, 0.4)]),
    }


@pytest.fixture(scope="session")
def fixture_forms():
    return make_fixture_forms()


@pytest.fixture(scope="session")
def two_point_uniform(fixture_forms):
    return fixture_forms["two_uniform"]


def dense_laplacian(n, triples):
    """The Laplacian of a symmetrised dense weight matrix, kept as a reference."""
    W = np.zeros((n, n))
    for i, j, w in triples:
        W[i, j] = W[j, i] = w
    W = 0.5 * (W + W.T)
    return np.diag(W.sum(axis=1)) - W


def random_form(rng: np.random.Generator, n_max: int = 8) -> FiniteDirichletForm:
    """Random connected form for property tests."""
    n = int(rng.integers(2, n_max + 1))
    mu = rng.uniform(0.1, 1.0, n)
    mu /= mu.sum()
    w = {(i, i + 1): rng.uniform(0.1, 2.0) for i in range(n - 1)}
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = rng.integers(0, n, 2)
        if i != j:
            pair = (int(min(i, j)), int(max(i, j)))
            w[pair] = w.get(pair, 0.0) + rng.uniform(0.0, 1.0)
    return FiniteDirichletForm(mu=mu, edges=[(i, j, wij) for (i, j), wij in w.items()])


class _Calls(collections.abc.Sequence):
    """The arrays saved in ``folder``, one file per call, in the order the calls began."""

    def __init__(self, folder):
        self.folder = folder

    def _paths(self):
        return sorted(self.folder.glob("*.npy"), key=lambda p: tuple(map(int, p.stem.split("-"))))

    def __iter__(self):
        return iter([np.load(p) for p in self._paths()])

    def __getitem__(self, i):
        return list(self)[i]

    def __len__(self):
        return len(self._paths())

    def clear(self):
        for p in self._paths():
            p.unlink()


@pytest.fixture()
def kernel_rows(monkeypatch, tmp_path):
    """The log(t) of every kernel row evaluated while the test runs, one
    array per kernel call, in this process or in a forked worker."""
    folder = tmp_path / "kernel_rows"
    folder.mkdir()
    real = transforms._kernel_min

    def recording(beta, log_ts, kind):
        np.save(folder / f"{time.monotonic_ns()}-{os.getpid()}.npy", np.array(log_ts, dtype=float))
        return real(beta, log_ts, kind)

    monkeypatch.setattr(transforms, "_kernel_min", recording)
    return _Calls(folder)
