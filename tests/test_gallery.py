import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biortho import (
    FAMILIES,
    FamilySpec,
    StudyError,
    Tolerance,
    generate,
    point_spectrum,
    truncation_study,
)
from biortho.gallery import _haar_unitary


def test_jordan_matrix_layout():
    m = generate(FamilySpec("jordan", 3, {"eigenvalue": 2 - 1j, "segre": (3,)}))
    assert np.allclose(np.diag(m), (2 - 1j) * np.ones(3))
    assert np.allclose(np.diag(m, k=1), [1.0, 1.0])
    assert m[2, 0] == 0


def test_jordan_segre_blocks_do_not_chain():
    m = generate(FamilySpec("jordan", 4, {"eigenvalue": 0.0, "segre": (2, 2)}))
    # no one may bridge the two blocks
    assert m[1, 2] == 0
    assert m[0, 1] == 1 and m[2, 3] == 1


def test_jordan_segre_must_sum_to_size():
    with pytest.raises(ValueError):
        generate(FamilySpec("jordan", 4, {"segre": (3,)}))
    with pytest.raises(ValueError):
        generate(FamilySpec("jordan", 2, {"segre": (2, 0)}))


def test_diag_is_linspace():
    m = generate(FamilySpec("diag", 5, {"start": -1.0, "stop": 1.0}))
    assert np.allclose(np.diag(m), np.linspace(-1, 1, 5))
    assert np.count_nonzero(m - np.diag(np.diag(m))) == 0


def test_equal_specs_generate_identical_bits():
    for name in ("random_gaussian", "random_normal", "block_jordan"):
        spec = FamilySpec(name, 5, {}, seed=42)
        a = generate(spec)
        b = generate(FamilySpec(name, 5, {}, seed=42))
        assert a.tobytes() == b.tobytes()


def test_different_seeds_differ():
    a = generate(FamilySpec("random_gaussian", 4, {}, seed=0))
    b = generate(FamilySpec("random_gaussian", 4, {}, seed=1))
    assert not np.allclose(a, b)


def test_haar_unitary_is_unitary():
    u = _haar_unitary(7, np.random.default_rng(3))
    assert np.allclose(u @ u.conj().T, np.eye(7), atol=1e-12)


def test_random_normal_commutes_with_adjoint():
    m = generate(FamilySpec("random_normal", 6, {}, seed=9))
    comm = m @ m.conj().T - m.conj().T @ m
    assert np.linalg.norm(comm) < 1e-12


def test_pt_dimer_entries():
    m = generate(FamilySpec("pt_dimer", 2, {"a": 0.6, "b": 1.0}))
    assert np.allclose(m, [[0.6j, 1.0], [1.0, -0.6j]])


def test_ep_family_interpolates_coupling():
    m = generate(FamilySpec("ep_family", 2, {"t": 0.25, "b": 2.0}))
    assert np.allclose(m, [[1.5j, 2.0], [2.0, -1.5j]])
    values = np.linalg.eigvals(m)
    assert np.allclose(sorted(values.real), [-np.sqrt(1.75), np.sqrt(1.75)])


def test_ep_family_rejects_negative_t():
    with pytest.raises(ValueError):
        generate(FamilySpec("ep_family", 2, {"t": -0.1}))


def test_dimer_families_exist_only_at_size_two():
    with pytest.raises(ValueError):
        generate(FamilySpec("pt_dimer", 3, {}))
    with pytest.raises(ValueError):
        generate(FamilySpec("ep_family", 1, {}))


def test_shift_trunc_superdiagonal():
    m = generate(FamilySpec("shift_trunc", 4, {}))
    assert np.allclose(m, np.eye(4, k=1))


def test_weighted_shift_entries_decay_geometrically():
    m = generate(FamilySpec("weighted_shift_trunc", 5, {"ratio": 0.5}))
    assert np.allclose(np.diag(m, k=1), [0.5**j for j in range(1, 5)])


def test_block_jordan_recovers_prescribed_spectrum():
    blocks = ((1.0, (2,)), (-1.0, (1, 1)))
    m = generate(FamilySpec("block_jordan", 4, {"blocks": blocks, "cond": 30.0}, seed=5))
    # defective eigenvalues scatter far beyond machine precision under a
    # conditioned similarity, so cluster at a matching radius
    ps = point_spectrum(m, Tolerance(cluster_eps=1e-2))
    assert len(ps.clusters) == 2
    by_value = {round(c.value.real): c for c in ps.clusters}
    assert by_value[1].algebraic_multiplicity == 2
    assert by_value[1].geometric_multiplicity == 1
    assert by_value[-1].geometric_multiplicity == 2


def test_block_jordan_validates_inputs():
    with pytest.raises(ValueError):
        generate(FamilySpec("block_jordan", 3, {"blocks": ((0.0, (2,)),)}))
    with pytest.raises(ValueError):
        generate(FamilySpec("block_jordan", 2, {"blocks": ((0.0, (2,)),), "cond": 0.5}))
    with pytest.raises(ValueError, match="blocks cover 6 of 4 dimensions"):
        generate(FamilySpec("block_jordan", 4, {"blocks": ((0, (3,)), (1, (3,)))}))


def test_family_spec_validates_name_and_size():
    with pytest.raises(ValueError):
        FamilySpec("toeplitz", 3, {})
    with pytest.raises(ValueError):
        FamilySpec("diag", 0, {})


@given(st.sampled_from(FAMILIES), st.integers(0, 50))
@settings(max_examples=20, deadline=None)
def test_every_family_generates_complex_square(name, seed):
    size = 2 if name in ("pt_dimer", "ep_family") else 4
    params = {"blocks": ((0.5, (2,)), (-0.5, (2,)))} if name == "block_jordan" else {}
    m = generate(FamilySpec(name, size, params, seed=seed))
    assert m.shape == (size, size)
    assert m.dtype == complex


def test_truncation_study_constant_probe_for_diag():
    study = truncation_study(
        FamilySpec("diag", 2, {}), sizes=(2, 4, 8), probe_grid=(2.0 + 0.0j,)
    )
    assert study.sizes == (2, 4, 8)
    assert [m.size for m in study.metrics] == [2, 4, 8]
    for m in study.metrics:
        # the grid point sits at distance 1 from the diagonal's range
        assert m.sigma_min[0] == pytest.approx(1.0, rel=1e-12)
        assert m.kappa_v == pytest.approx(1.0, abs=1e-8)
        assert m.min_self_orthogonality == pytest.approx(1.0, abs=1e-8)
        assert m.verdicts["C1"] == "PASS"
        assert set(m.verdicts) == {"C1", "C2", "C3", "C4", "C2'", "C3'", "C4'"}


def test_truncation_study_rejects_bad_sizes():
    with pytest.raises(ValueError):
        truncation_study(FamilySpec("diag", 2, {}), sizes=())
    with pytest.raises(ValueError):
        truncation_study(FamilySpec("diag", 2, {}), sizes=(4, 4))
    with pytest.raises(ValueError):
        truncation_study(FamilySpec("diag", 2, {}), sizes=(4, 2))


def test_truncation_study_wraps_failures_with_size():
    with pytest.raises(StudyError) as info:
        truncation_study(FamilySpec("pt_dimer", 2, {}), sizes=(2, 3))
    assert info.value.size == 3
