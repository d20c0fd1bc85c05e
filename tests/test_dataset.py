"""Tests for the .msd dataset container."""

import numpy as np
import pytest

from metricmanova.dataset import dumps_msd, load_msd, loads_msd, save_msd
from metricmanova.errors import DataError
from metricmanova.samples import GroupedMultiSample
from metricmanova.simulation import (
    Scenario1Params,
    Scenario2Params,
    gen_scenario1,
    gen_scenario2,
)
from metricmanova.spaces import custom_space, distance_matrix_space, euclidean_space


def assert_same_multisample(a: GroupedMultiSample, b: GroupedMultiSample):
    assert np.array_equal(np.asarray(a.labels, dtype=str), np.asarray(b.labels, dtype=str))
    assert a.n_spaces == b.n_spaces
    for sa, sb in zip(a.spaces, b.spaces):
        assert sa.space_id == sb.space_id
        assert sa.kind == sb.kind
        if sa.kind == "distances":
            assert np.allclose(sa.pairwise(), sb.pairwise(), atol=0, rtol=0)
        else:
            assert np.array_equal(sa.coords, sb.coords)


class TestRoundTrips:
    def test_scenario1_gaussians(self, tmp_path):
        ms = gen_scenario1(Scenario1Params.from_effect(2, 2.0, n1=6, n2=7), seed=3)
        path = tmp_path / "s1.msd"
        save_msd(path, ms)
        assert_same_multisample(ms, load_msd(path))

    def test_scenario2_laplacians_and_vectors(self, tmp_path):
        ms = gen_scenario2(Scenario2Params.from_effect(1, 2.5, n1=4, n2=4), seed=9)
        path = tmp_path / "s2.msd"
        save_msd(path, ms)
        assert_same_multisample(ms, load_msd(path))

    def test_distance_matrix_space(self):
        rng = np.random.default_rng(91)
        pts = rng.normal(size=(7, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        ms = GroupedMultiSample(
            [distance_matrix_space("D", dist)], [1, 1, 1, 2, 2, 2, 2]
        )
        back = loads_msd(dumps_msd(ms))
        assert np.allclose(back.spaces[0].pairwise(), dist, atol=1e-15)

    def test_l1_space_kind_preserved(self):
        rng = np.random.default_rng(92)
        ms = GroupedMultiSample(
            [euclidean_space("e", rng.normal(size=(5, 3)), norm="L1")], [1, 1, 1, 2, 2]
        )
        back = loads_msd(dumps_msd(ms))
        assert back.spaces[0].kind == "euclidean-l1"
        assert not back.spaces[0].has_exact_mean

    def test_serialization_is_stable(self):
        ms = gen_scenario1(Scenario1Params.from_effect(1, 0.5, n1=5, n2=5), seed=2)
        assert dumps_msd(ms) == dumps_msd(ms)

    def test_string_labels_preserved(self):
        ms = GroupedMultiSample(
            [euclidean_space("e", np.arange(4.0)[:, None])],
            ["ctl", "ctl", "trt", "trt"],
        )
        back = loads_msd(dumps_msd(ms))
        assert back.labels.tolist() == ["ctl", "ctl", "trt", "trt"]


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(DataError):
            loads_msd("nope 1\n")

    def test_truncated_file(self):
        ms = gen_scenario1(Scenario1Params.from_effect(1, 0.0, n1=3, n2=3), seed=1)
        text = dumps_msd(ms)
        lines = text.strip().splitlines()
        with pytest.raises(DataError):
            loads_msd("\n".join(lines[:-2]))

    def test_trailing_garbage(self):
        ms = gen_scenario1(Scenario1Params.from_effect(1, 0.0, n1=3, n2=3), seed=1)
        with pytest.raises(DataError):
            loads_msd(dumps_msd(ms) + "1.0 2.0\n")

    def test_wrong_label_count(self):
        text = "msd 1\nobservations 3\nspaces 1\nlabels a a\n"
        with pytest.raises(DataError):
            loads_msd(text)

    def test_unknown_space_kind(self):
        text = (
            "msd 1\nobservations 2\nspaces 1\nlabels a a\n"
            "space X hyperbolic\n0.0\n0.0\n"
        )
        with pytest.raises(DataError):
            loads_msd(text)

    def test_non_numeric_entry(self):
        text = (
            "msd 1\nobservations 2\nspaces 1\nlabels a a\n"
            "space X gaussian\n0.0 1.0\nfoo 1.0\n"
        )
        with pytest.raises(DataError):
            loads_msd(text)

    def test_custom_space_not_serializable(self):
        ms = GroupedMultiSample(
            [custom_space("c", [0.0, 1.0, 2.0, 3.0], lambda a, b: abs(a - b))],
            [1, 1, 2, 2],
        )
        with pytest.raises(DataError):
            dumps_msd(ms)

    def test_comments_and_blank_lines_ignored(self):
        ms = gen_scenario1(Scenario1Params.from_effect(1, 0.0, n1=3, n2=3), seed=4)
        text = dumps_msd(ms)
        noisy = "# header comment\n\n" + text.replace(
            "spaces 2", "spaces 2  # two spaces"
        )
        assert_same_multisample(ms, loads_msd(noisy))
