"""Tests for the .msd dataset container."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metricmanova.dataset import dumps_msd, load_msd, loads_msd, save_msd
from metricmanova.errors import DataError
from metricmanova.samples import GroupedMultiSample, SpaceSample, frechet_mean
from metricmanova.simulation import (
    Scenario1Params,
    Scenario2Params,
    gen_scenario1,
    gen_scenario2,
)
from metricmanova.spaces import (
    custom_space,
    distance_matrix_space,
    euclidean_space,
    gaussian_space,
    laplacian_space,
)


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

    @pytest.mark.parametrize("norm", ["L2", "L1"])
    def test_truncated_euclidean_block_names_a_euclidean_row(self, norm):
        sp = euclidean_space("E", np.arange(8.0).reshape(4, 2), norm)
        text = dumps_msd(GroupedMultiSample([sp], ["a", "a", "b", "b"]))
        with pytest.raises(DataError, match="^unexpected end of file while reading euclidean row$"):
            loads_msd("\n".join(text.splitlines()[:-1]))

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

    @pytest.mark.parametrize(
        "kind, rows, reason",
        [
            ("gaussian", np.c_[np.arange(8.0), np.r_[np.ones(7), -1.0]], "all sigmas must be positive"),
            ("laplacian", np.random.default_rng(8).normal(size=(8, 4)), "Laplacian not symmetric"),
        ],
    )
    def test_rows_the_constructor_refuses_are_not_written(self, kind, rows, reason):
        # these used to write a file that failed to load with the same reason
        sp = SpaceSample("X", coords=rows, kind=kind)
        with pytest.raises(DataError, match=f"^space 'X': its {kind} block would not load: {reason}$"):
            dumps_msd(GroupedMultiSample([sp], [1] * 4 + [2] * 4))

    def test_medoid_space_that_loads_with_other_distances_is_refused(self):
        # rows beside their own L2 matrix and tagged euclidean-l1 used to load
        # under the L1 metric, with no error
        x = np.random.default_rng(5).normal(size=(8, 3))
        d = np.linalg.norm(x[:, None] - x[None], axis=2)
        sp = SpaceSample("X", coords=x, distances=d, kind="euclidean-l1")
        with pytest.raises(DataError, match="loads with other distances than this space's"):
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

    def test_trailing_content_names_its_line_in_the_file(self):
        ms = gen_scenario1(Scenario1Params.from_effect(1, 0.0, n1=3, n2=3), seed=1)
        text = "\n\n# comment\n" + dumps_msd(ms) + "1.0 2.0\n"
        assert text.splitlines()[-1] == "1.0 2.0"
        # the reader used to count only the lines it kept
        with pytest.raises(DataError, match=f"^trailing content at line {len(text.splitlines())}$"):
            loads_msd(text)

    def test_comments_and_blank_lines_ignored(self):
        ms = gen_scenario1(Scenario1Params.from_effect(1, 0.0, n1=3, n2=3), seed=4)
        text = dumps_msd(ms)
        noisy = "# header comment\n\n" + text.replace(
            "spaces 2", "spaces 2  # two spaces"
        )
        assert_same_multisample(ms, loads_msd(noisy))


def _valid_space(kind: str, n: int, size: int, rng) -> SpaceSample:
    """A space of ``n`` valid observations under the tag ``kind``; ``size``
    is the dimension or node count where the tag has one."""
    if kind == "gaussian":
        return gaussian_space("X", np.c_[rng.normal(size=n), rng.uniform(0.1, 3.0, n)])
    if kind in ("euclidean-l2", "euclidean-l1"):
        return euclidean_space("X", rng.normal(size=(n, size)) * 10.0, kind[-2:].upper())
    if kind == "laplacian":
        w = np.triu(rng.integers(0, 3, size=(n, size, size)), 1).astype(float)
        w += w.transpose(0, 2, 1)
        return laplacian_space("X", w.sum(axis=2)[:, :, None] * np.eye(size) - w)
    x = rng.normal(size=(n, size))
    return distance_matrix_space("X", np.linalg.norm(x[:, None] - x[None], axis=2))


class TestBlockProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["gaussian", "euclidean-l2", "euclidean-l1", "laplacian", "distances"]),
        n=st.integers(2, 9),
        size=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_valid_blocks_round_trip_with_their_mean(self, kind, n, size, seed):
        """A space built by its tag's constructor loads back with equal rows
        or an equal matrix, and the same Fréchet mean."""
        sp = _valid_space(kind, n, size, np.random.default_rng(seed))
        back = loads_msd(dumps_msd(GroupedMultiSample([sp], [0] * n))).spaces[0]
        assert back.kind == kind
        if kind == "distances":
            assert np.array_equal(back.pairwise(), sp.pairwise())
        else:
            assert np.array_equal(back.coords, sp.coords)
        mine, theirs = frechet_mean(sp), frechet_mean(back)
        assert (theirs.solver, theirs.index) == (mine.solver, mine.index)
        assert np.array_equal(np.asarray(theirs.mean), np.asarray(mine.mean))
        assert theirs.objective == mine.objective

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["gaussian", "euclidean-l2", "euclidean-l1", "laplacian"]),
        rows=arrays(float, st.tuples(st.integers(2, 5), st.integers(1, 9)),
                    elements=st.floats(allow_nan=False, allow_infinity=False)),
    )
    @example(kind="euclidean-l1", rows=np.array([[1.7e308, 0.0], [-1.7e308, 0.0]]))
    @example(kind="euclidean-l1", rows=np.array([[0.0, 9e307], [9e307, 9e307]]))
    @example(kind="laplacian", rows=np.array([[0.0, 1.7e308, -1.7e308, 0.0]] * 2))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_rows_write_only_what_loads(self, kind, rows):
        """Any finite rows under a coordinate tag are refused with DataError
        or written as text the reader accepts.  The examples overflow inside
        the constructors, which must read inf and refuse without a warning."""
        sp = SpaceSample("X", coords=rows, kind=kind)
        try:
            text = dumps_msd(GroupedMultiSample([sp], [0] * len(rows)))
        except DataError:
            return
        loads_msd(text)
