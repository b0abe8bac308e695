"""Tests for the application-family generators and the named catalogue."""

import numpy as np
import pytest

from polyconv.errors import InputError
from polyconv.examples import (
    ExampleSpec,
    catalogue,
    catalogue_names,
    kolmogorov_family,
    opinion_family,
    opinion_social_family,
    persistent_input_augment,
    plant_tuning_family,
    spike_schedule_signal,
)
from polyconv.family import MatrixFamily
from polyconv.inclusion import analyze, kernel_facts
from polyconv.lasalle import lasalle_set_quadratic, weak_kernel_triviality_scan
from polyconv.linalg import kernel
from polyconv.lti import DISPROVEN, PROVEN, lti_convergent_ct
from polyconv.sim import simulate_ct

PATH_L = [[1.0, -1.0], [-1.0, 1.0]]
CYCLE_L = [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]]


def facts(fam):
    return kernel_facts(fam.matrices, fam.mode)


class TestOpinionFamily:
    def test_two_node_path_vertices(self):
        fam = opinion_family(PATH_L)
        assert fam.mode == "ct"
        np.testing.assert_allclose(fam.matrices[0], [[-1.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(fam.matrices[1], [[0.0, 0.0], [1.0, -1.0]])
        assert fam.labels == ("node1", "node2")

    def test_two_node_path_shares_kernels(self):
        fam = opinion_family(PATH_L)
        res = facts(fam)
        assert res.holds
        assert res.common_dim == 1
        ones = np.ones(2) / np.sqrt(2)
        assert facts(fam).common.distance(ones) < 1e-12

    def test_three_node_cycle_kernels_are_hyperplanes(self):
        # each vertex annihilates a whole hyperplane, so the per-vertex
        # kernels exceed the one-dimensional agreement line
        fam = opinion_family(CYCLE_L)
        res = facts(fam)
        assert not res.holds
        assert res.kernel_dims == (2, 2, 2)
        assert res.common_dim == 1
        ones = np.ones(3) / np.sqrt(3)
        for a in fam.matrices:
            assert kernel(a).distance(ones) < 1e-12
        report = analyze(fam)
        assert report.strong.status == DISPROVEN
        assert report.strong.method == "kernel-mismatch"

    def test_empty_graph_gives_zero_family(self):
        fam = opinion_family(np.zeros((2, 2)))
        for a in fam.matrices:
            np.testing.assert_allclose(a, 0.0)

    def test_rejects_bad_laplacians(self):
        with pytest.raises(InputError, match="off-diagonal"):
            opinion_family([[1.0, 1.0], [-1.0, 1.0]])
        with pytest.raises(InputError, match="sum to zero"):
            opinion_family([[1.0, -0.5], [-1.0, 1.0]])
        with pytest.raises(InputError, match="'ct'"):
            opinion_family(PATH_L, mode="dt")
        with pytest.raises(InputError, match="square"):
            opinion_family([[1.0, -1.0]])


class TestPersistentInputAugment:
    def test_ct_kernel_solves_equilibrium(self):
        fam = MatrixFamily("ct", (np.diag([-1.0, -2.0]),))
        aug = persistent_input_augment(fam, [1.0, 0.0])
        assert aug.n == 3
        ker = kernel(aug.matrices[0])
        assert ker.dim == 1
        direction = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert ker.distance(direction) < 1e-12
        report = analyze(aug)
        assert report.strong.status == PROVEN

    def test_zero_input_keeps_input_axis(self):
        fam = MatrixFamily("ct", (np.diag([-1.0, -2.0]),))
        aug = persistent_input_augment(fam, [0.0, 0.0])
        ker = kernel(aug.matrices[0])
        assert ker.distance(np.array([0.0, 0.0, 1.0])) < 1e-12

    def test_dt_fixed_space(self):
        fam = MatrixFamily("dt", ([[0.5]],))
        aug = persistent_input_augment(fam, [1.0])
        np.testing.assert_allclose(aug.matrices[0], [[0.5, 1.0], [0.0, 1.0]])
        fixed = kernel(aug.matrices[0] - np.eye(2))
        direction = np.array([2.0, 1.0]) / np.sqrt(5.0)
        assert fixed.distance(direction) < 1e-12

    def test_validation(self):
        fam = MatrixFamily("ct", (np.diag([-1.0, -2.0]),))
        with pytest.raises(InputError, match="mode"):
            persistent_input_augment(fam, [1.0, 0.0], mode="dt")
        with pytest.raises(InputError, match="length 2"):
            persistent_input_augment(fam, [1.0])
        with pytest.raises(InputError, match="finite"):
            persistent_input_augment(fam, [np.nan, 0.0])


class TestOpinionSocialFamily:
    def test_unbiased_two_node(self):
        g = [[-1.0, 1.0], [1.0, -1.0]]
        fam = opinion_social_family(np.eye(2), [g, g], 1.0, [0.5, 0.5])
        assert fam.metadata["unbiased"]
        assert fam.metadata["beta_bar"] == pytest.approx(0.5)
        expected = [[-2.0, 1.0, 0.5], [1.0, -2.0, 0.5], [0.0, 0.0, 0.0]]
        np.testing.assert_allclose(fam.matrices[0], expected)
        res = facts(fam)
        assert res.holds
        direction = np.array([0.5, 0.5, 1.0])
        direction /= np.linalg.norm(direction)
        assert facts(fam).common.distance(direction) < 1e-10

    def test_unbiased_distinct_graphs_still_share_kernel(self):
        g1 = [[-1.0, 1.0], [1.0, -1.0]]
        g2 = [[-2.0, 2.0], [2.0, -2.0]]
        fam = opinion_social_family(np.eye(2), [g1, g2], 1.0, [0.5, 0.5])
        assert fam.metadata["unbiased"]
        assert facts(fam).holds
        report = analyze(fam)
        assert report.strong.status == PROVEN

    def test_biased_input_breaks_kernel_sharing(self):
        g1 = [[-1.0, 1.0], [1.0, -1.0]]
        g2 = [[-2.0, 2.0], [2.0, -2.0]]
        fam = opinion_social_family(np.eye(2), [g1, g2], 1.0, [1.0, 0.0])
        assert not fam.metadata["unbiased"]
        res = facts(fam)
        assert not res.holds
        report = analyze(fam)
        assert report.strong.status == DISPROVEN

    def test_diagonal_matrix_delta_accepted(self):
        g = [[-1.0, 1.0], [1.0, -1.0]]
        fam = opinion_social_family(np.diag([2.0, 2.0]), [g], 1.0,
                                    [1.0, 1.0])
        assert fam.metadata["unbiased"]
        assert fam.metadata["beta_bar"] == pytest.approx(0.5)

    def test_validation(self):
        g = [[-1.0, 1.0], [1.0, -1.0]]
        with pytest.raises(InputError, match="positive"):
            opinion_social_family([1.0, 0.0], [g], 1.0, [0.5, 0.5])
        with pytest.raises(InputError, match="diagonal"):
            opinion_social_family([[1.0, 0.5], [0.0, 1.0]], [g], 1.0,
                                  [0.5, 0.5])
        with pytest.raises(InputError, match="rows"):
            opinion_social_family(np.eye(2), [[[-1.0, 1.0], [0.5, -1.0]]],
                                  1.0, [0.5, 0.5])
        with pytest.raises(InputError, match="off-diagonal"):
            opinion_social_family(np.eye(2), [[[1.0, -1.0], [-1.0, 1.0]]],
                                  1.0, [0.5, 0.5])
        with pytest.raises(InputError, match="intensity"):
            opinion_social_family(np.eye(2), [g], 0.0, [0.5, 0.5])
        with pytest.raises(InputError, match="length"):
            opinion_social_family(np.eye(2), [g], 1.0, [0.5])
        with pytest.raises(InputError, match="at least one"):
            opinion_social_family(np.eye(2), [], 1.0, [0.5, 0.5])


class TestKolmogorovFamily:
    ROW_PAIR = ([[-1.0, 1.0], [2.0, -2.0]], [[-3.0, 3.0], [1.0, -1.0]])

    def test_row_case_strongly_convergent(self):
        fam = kolmogorov_family("row", self.ROW_PAIR)
        assert fam.metadata["stochasticity"] == "row"
        report = analyze(fam)
        assert report.strong.status == PROVEN
        ones = np.ones(2) / np.sqrt(2)
        assert report.facts.common.distance(ones) < 1e-12

    def test_row_case_is_infinity_norm_nonexpansive(self):
        fam = kolmogorov_family("row", self.ROW_PAIR)
        tau = 1e-3
        for a in fam.matrices:
            step = np.eye(2) + tau * a
            assert np.abs(step).sum(axis=1).max() == pytest.approx(1.0)

    def test_column_case_matches_catalogue_counterexample(self):
        entry = catalogue("column-stochastic-ct")
        fam = kolmogorov_family("column", entry.family.matrices)
        for built, expected in zip(fam.matrices, entry.family.matrices):
            np.testing.assert_allclose(built, expected)
        assert not facts(fam).holds

    def test_single_generator_is_convergent_lti(self):
        verdict = lti_convergent_ct(np.array(self.ROW_PAIR[0]))
        assert verdict.status == PROVEN

    def test_validation(self):
        with pytest.raises(InputError, match="row.*column|'row' or 'column'"):
            kolmogorov_family("both", self.ROW_PAIR)
        with pytest.raises(InputError, match="Metzler"):
            kolmogorov_family("row", ([[-1.0, -1.0], [2.0, -2.0]],))
        with pytest.raises(InputError, match="row-sum"):
            kolmogorov_family("row", ([[-1.0, 2.0], [2.0, -2.0]],))
        with pytest.raises(InputError, match="column-sum"):
            kolmogorov_family("column", self.ROW_PAIR)
        with pytest.raises(InputError, match="at least one"):
            kolmogorov_family("row", ())


class TestPlantTuningFamily:
    def test_vertices_and_labels(self):
        fam = plant_tuning_family((1.0, 2.0), (0.0, 1.0), 1.0)
        assert fam.m_count == 4
        assert fam.labels == ("a=1,b=0", "a=1,b=1", "a=2,b=0", "a=2,b=1")
        np.testing.assert_allclose(fam.matrices[0],
                                   [[-1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(fam.matrices[3],
                                   [[-2.0, 2.0], [2.0, -3.0]])
        assert fam.metadata["weak_limit_set"] == "y1=y2"

    def test_half_identity_lasalle_set_is_diagonal_line(self):
        fam = plant_tuning_family((1.0, 2.0), (0.0, 1.0), 1.0)
        las = lasalle_set_quadratic(fam, 0.5 * np.eye(2))
        diagonal = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert las.distance(diagonal) < 1e-10
        assert max(s.dim for s in las.subspaces) == 1
        scan = weak_kernel_triviality_scan(fam, samples=100, seed=3)
        assert not scan.likely_trivial
        assert scan.witness is not None
        w = scan.witness.x / np.linalg.norm(scan.witness.x)
        assert abs(abs(w @ diagonal) - 1.0) < 1e-8

    def test_positive_b_min_converges_strongly(self):
        fam = plant_tuning_family((1.0, 2.0), (0.5, 1.0), 1.0)
        assert "weak_limit_set" not in fam.metadata
        report = analyze(fam)
        assert report.strong.status == PROVEN

    def test_validation(self):
        with pytest.raises(InputError, match="a_min"):
            plant_tuning_family((0.0, 2.0), (0.0, 1.0), 1.0)
        with pytest.raises(InputError, match="a_min"):
            plant_tuning_family((2.0, 1.0), (0.0, 1.0), 1.0)
        with pytest.raises(InputError, match="b_min"):
            plant_tuning_family((1.0, 2.0), (-0.5, 1.0), 1.0)
        with pytest.raises(InputError, match="gain"):
            plant_tuning_family((1.0, 2.0), (0.0, 1.0), 0.0)


class TestSpikeScheduleSignal:
    def test_schedule_layout(self):
        sig = spike_schedule_signal(h_max=2)
        durations = [d for d, _ in sig.segments]
        spikes = durations[0::2]
        expected = [np.log(2.0) / 2.0 ** (h + 1) for h in range(3)]
        np.testing.assert_allclose(spikes, expected)
        for (d_spike, w_spike), (d_rest, w_rest) in zip(
                sig.segments[0::2], sig.segments[1::2]):
            assert w_spike == (0.0, 1.0)
            assert w_rest == (1.0, 0.0)
            assert d_spike + d_rest == pytest.approx(1.0)

    def test_limit_is_half_of_initial_state(self):
        fam = catalogue("spike-schedule").family
        sig = spike_schedule_signal()
        traj = simulate_ct(fam, sig, [1.0], t_end=45.0, sample_dt=0.25)
        assert abs(traj.states[-1, 0] - 0.5) < 1e-6

    def test_validation(self):
        with pytest.raises(InputError, match="h_max"):
            spike_schedule_signal(h_max=0)


class TestCatalogue:
    def test_names_listing(self):
        names = catalogue_names()
        assert len(names) == 11
        assert names == tuple(sorted(names))
        assert "scalar-half-one" in names
        assert "path-consensus" in names

    def test_unknown_name_lists_available(self):
        with pytest.raises(InputError, match="path-consensus"):
            catalogue("no-such-example")

    def test_entries_are_well_formed(self):
        for name in catalogue_names():
            entry = catalogue(name)
            assert isinstance(entry, ExampleSpec)
            assert entry.name == name
            assert entry.expected_strong in (PROVEN, DISPROVEN)
            assert entry.expected_weak in (PROVEN, DISPROVEN)
            assert entry.description

    def test_duality_pair_shares_matrices(self):
        ct_dual = catalogue("ct-duality").family
        colstoch = catalogue("column-stochastic-ct").family
        for a, b in zip(ct_dual.matrices, colstoch.matrices):
            np.testing.assert_allclose(a, b)

    @pytest.mark.parametrize("name", [
        "scalar-half-one", "pm-one-dt", "rotation-dt", "rotation-ct",
        "spike-schedule", "column-stochastic-ct", "diag-kernels",
        "dt-duality", "ct-duality", "a11-switching", "path-consensus",
    ])
    def test_analyzer_reproduces_expected_verdicts(self, name):
        entry = catalogue(name)
        report = analyze(entry.family)
        assert report.strong.status == entry.expected_strong
        assert report.weak.status == entry.expected_weak


# the deciding (status, method) of every catalogue verdict and the first
# periodic-orbit witness (cycle, dwell): a refactor of the kernel,
# decomposition, LMI or witness-search layers must leave each one in place
CATALOGUE_METHODS = {
    "a11-switching": (("Proven", "decomposition-cqlf"),
                      ("Proven", "implied-by-strong"), None),
    "column-stochastic-ct": (("Disproven", "kernel-mismatch"),
                             ("Disproven", "periodic-orbit"), ([0, 1], 0.5)),
    "ct-duality": (("Disproven", "kernel-mismatch"),
                   ("Disproven", "periodic-orbit"), ([0, 1], 0.5)),
    "diag-kernels": (("Disproven", "kernel-mismatch"),
                     ("Proven", "weak-lmi"), None),
    "dt-duality": (("Disproven", "kernel-mismatch"),
                   ("Disproven", "periodic-orbit"), ([0, 1], 1.0)),
    "path-consensus": (("Proven", "decomposition-cqlf"),
                       ("Proven", "implied-by-strong"), None),
    "pm-one-dt": (("Disproven", "vertex"), ("Disproven", "vertex"), None),
    "rotation-ct": (("Disproven", "vertex"), ("Disproven", "vertex"), None),
    "rotation-dt": (("Disproven", "vertex"), ("Disproven", "vertex"), None),
    "scalar-half-one": (("Disproven", "kernel-mismatch"),
                        ("Proven", "weak-lmi"), None),
    "spike-schedule": (("Disproven", "kernel-mismatch"),
                       ("Proven", "weak-lmi"), None),
}


def _methods(family):
    report = analyze(family)
    witness = report.witness
    return ((report.strong.status, report.strong.method),
            (report.weak.status, report.weak.method),
            None if witness is None else (witness["cycle"], witness["dwell"]))


def _seeded_orthogonal(seed, n):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestCatalogueInvariance:
    def test_table_covers_the_catalogue(self):
        assert set(CATALOGUE_METHODS) == set(catalogue_names())

    @pytest.mark.parametrize("name", sorted(CATALOGUE_METHODS))
    def test_methods_survive_similarity_and_vertex_reversal(self, name):
        fam = catalogue(name).family
        want = CATALOGUE_METHODS[name]
        assert _methods(fam) == want
        for seed in (1, 2, 3):
            q = _seeded_orthogonal(seed, fam.n)
            rotated = MatrixFamily(fam.mode,
                                   tuple(q.T @ a @ q for a in fam.matrices))
            assert _methods(rotated) == want, seed
        assert _methods(MatrixFamily(fam.mode, fam.matrices[::-1])) == want
        # a repeated vertex spans the same polytope, and the copy comes
        # last, so every witness cycle through it follows its original
        duplicated = fam.matrices + fam.matrices[:1]
        assert _methods(MatrixFamily(fam.mode, duplicated)) == want
