import numpy as np
import pytest


def random_complex(n, m=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (n, n if m is None else m)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class Calls:
    """Counts numpy.linalg calls by name, with the shape and dtype of their first argument."""

    def __init__(self, monkeypatch, names=("svd", "eig", "eigvals")):
        self.shapes = {name: [] for name in names}
        self.dtypes = {name: [] for name in names}
        for name in names:
            monkeypatch.setattr(np.linalg, name, self._counted(name, getattr(np.linalg, name)))

    def _counted(self, name, fn):
        def counted(m, *args, **kwargs):
            self.shapes[name].append(np.shape(m))
            self.dtypes[name].append(np.asarray(m).dtype)
            return fn(m, *args, **kwargs)
        return counted

    def square(self, name, n):
        return sum(1 for shape in self.shapes[name] if shape == (n, n))


def count_norm2(monkeypatch):
    """Shapes of the matrices numpy.linalg.norm takes a 2-norm of."""
    shapes = []
    norm = np.linalg.norm

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            shapes.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return shapes
