"""Tests for the .msd dataset container."""

import numpy as np
import pytest

from metricmanova.dataset import dumps_msd, load_msd, loads_msd, save_msd
from metricmanova.errors import DataError
from metricmanova.samples import GroupedMultiSample, SpaceSample
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

    @pytest.mark.parametrize("kind", ["gaussian", "laplacian"])
    def test_coordinate_tag_needs_a_width_its_reader_holds(self, kind):
        # rows of width 3 under these tags used to write a file that
        # loads_msd refused
        sp = SpaceSample("X", coords=np.random.default_rng(3).normal(size=(8, 3)), kind=kind)
        with pytest.raises(DataError, match=f"{kind} rows cannot have width 3"):
            dumps_msd(GroupedMultiSample([sp], [1] * 4 + [2] * 4))

    @pytest.mark.parametrize("kind", ["distances", "euclidean-l1"])
    def test_tag_whose_reader_takes_another_mean_is_refused(self, kind):
        # the file used to load as a medoid space where the original took the
        # centroid, and under euclidean-l1 with the L1 metric in place of L2
        sp = SpaceSample("X", coords=np.random.default_rng(4).normal(size=(8, 3)), kind=kind)
        with pytest.raises(DataError, match="loads with the medoid, not this space's centroid"):
            dumps_msd(GroupedMultiSample([sp], [1] * 4 + [2] * 4))

    def test_distance_matrix_with_rows_is_refused_as_coordinates(self):
        x = np.random.default_rng(5).normal(size=(8, 3))
        d = np.linalg.norm(x[:, None] - x[None], axis=2)
        sp = SpaceSample("X", coords=x, distances=d, kind="euclidean-l2")
        with pytest.raises(DataError, match="loads with the centroid, not this space's medoid"):
            dumps_msd(GroupedMultiSample([sp], [1] * 4 + [2] * 4))

    @pytest.mark.parametrize("kind", ["gaussian", "euclidean-l2", "euclidean-l1", "laplacian"])
    def test_coordinate_tag_without_coordinates_is_refused(self, kind):
        # a points space under a coordinate tag raised AttributeError or TypeError
        pts = list(np.random.default_rng(6).normal(size=(8, 3)))
        sp = SpaceSample("P", points=pts, distance=lambda a, b: float(np.linalg.norm(a - b)),
                         kind=kind)
        with pytest.raises(DataError, match="has no coordinate rows"):
            dumps_msd(GroupedMultiSample([sp], [1] * 4 + [2] * 4))

    def test_points_under_a_distances_tag_keep_their_medoid(self):
        pts = list(np.random.default_rng(7).normal(size=(8, 3)))
        sp = SpaceSample("P", points=pts, distance=lambda a, b: float(np.linalg.norm(a - b)),
                         kind="distances")
        ms = GroupedMultiSample([sp], [1] * 4 + [2] * 4)
        back = loads_msd(dumps_msd(ms))
        assert np.array_equal(back.spaces[0].pairwise(), sp.pairwise())
        assert not back.spaces[0].has_exact_mean

    @pytest.mark.parametrize(
        "labels, space_id, reason",
        [
            (["a#1", "a#1", "b", "b"], "X", "'#' starts a comment"),
            (["a", "a", "b", "b"], "X#1", "'#' starts a comment"),
            (["a#1", "a#1", "b", "b"], "X#1", "'#' starts a comment"),
            (["a 1", "a 1", "b", "b"], "X", "whitespace separates fields"),
            (["a", "a", "b", "b"], "X\t1", "whitespace separates fields"),
            (["", "", "b", "b"], "X", "empty"),
        ],
        ids=["hash-label", "hash-space-id", "hash-both", "blank-label", "tab-space-id", "empty-label"],
    )
    def test_unreadable_tokens_are_not_written(self, tmp_path, labels, space_id, reason):
        # a '#' in a label or space id once saved and then failed to load with
        # "expected 'labels' with 4 entries"
        ms = GroupedMultiSample([euclidean_space(space_id, np.arange(4.0)[:, None])], labels)
        path = tmp_path / "x.msd"
        with pytest.raises(DataError, match=f"cannot be written \\({reason}\\)$"):
            save_msd(path, ms)
        assert not path.exists()

    def test_comments_and_blank_lines_ignored(self):
        ms = gen_scenario1(Scenario1Params.from_effect(1, 0.0, n1=3, n2=3), seed=4)
        text = dumps_msd(ms)
        noisy = "# header comment\n\n" + text.replace(
            "spaces 2", "spaces 2  # two spaces"
        )
        assert_same_multisample(ms, loads_msd(noisy))
