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


class Spoiled:
    """Spoils one side's eigenvector blocks of point_spectrum's certificate.

    spoil(values, vectors) edits the columns of vectors it picks by values,
    in place, and returns the eigenvalue of A it spoiled (value).  On the
    right it spoils eig(A)'s vectors.  On the left it spoils the left
    blocks on both routes: the dual basis V^-*, the first
    np.linalg.solve(V^*, I), whose columns follow eig(A)'s values, and
    eig(A^*)'s vectors on the fallback, given the conjugates of its values.
    eigs records the shape of every eig call.
    """

    def __init__(self, monkeypatch, side, spoil):
        eig, solve = np.linalg.eig, np.linalg.solve
        self.eigs, self.value, self._values = [], None, None

        def spoiled_eig(m):
            values, vectors = eig(m)
            first = not self.eigs
            self.eigs.append(np.shape(m))
            if first:
                self._values = values
            if first == (side == "right"):
                vectors = vectors.copy()
                self.value = spoil(values if first else values.conj(), vectors)
            return values, vectors

        def spoiled_solve(m, b):
            x = solve(m, b)
            # the dual basis is the first solve against I; a later one (the residual identity's) stays
            if side == "left" and self.value is None and np.ndim(b) == 2 and np.array_equal(b, np.eye(len(b))):
                x = x.copy()
                self.value = spoil(self._values, x)
            return x

        monkeypatch.setattr(np.linalg, "eig", spoiled_eig)
        monkeypatch.setattr(np.linalg, "solve", spoiled_solve)
