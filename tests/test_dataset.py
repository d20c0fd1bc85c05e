"""Tests for the .msd dataset container."""

import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metricmanova import dataset
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
from oracles import oracle_msd_blocks


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

    def test_subnormal_distances_round_trip(self):
        # halving before mirroring wrote 5e-324 back as 0.0 and 1.5e-323 as 2e-323
        text = _msd_text(4, [("space D distances", [["5e-324"], ["1.5e-323", "1.0"], ["2.0", "3.0", "4.0"]])])
        back = loads_msd(text)
        assert back.spaces[0].pairwise()[1:3, 0].tolist() == [5e-324, 1.5e-323]
        assert "\n5e-324\n1.5e-323 1.0\n" in dumps_msd(back)

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


def _msd_text(n, blocks, sep=" "):
    """``.msd`` text of ``n`` observations in groups a and b, each block a
    (header, rows of number tokens) pair, the tokens of a row joined by
    ``sep``."""
    lines = ["msd 1", f"observations {n}", f"spaces {len(blocks)}",
             "labels " + " ".join("ab"[i % 2] for i in range(n))]
    for head, rows in blocks:
        lines.append(head)
        lines += [sep.join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _num(x):
    return repr(float(x))


def _distance_rows(mat, fmt=_num):
    return [[fmt(v) for v in mat[i, :i]] for i in range(1, len(mat))]


def _random_distances(n, seed):
    x = np.random.default_rng(seed).normal(size=(n, 3))
    return np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=2))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def assert_loads_as_oracle(text):
    """Every block of ``text`` loads to the bits of each token read by
    ``float()``: a file's distance matrix is exactly symmetric, so its
    constructor keeps every entry."""
    expect = oracle_msd_blocks(text)
    for sp in loads_msd(text).spaces:
        got = sp.pairwise() if sp.kind == "distances" else sp.coords
        assert np.array_equal(_bits(got), _bits(expect[sp.space_id])), sp.space_id


# the whitespace str.split separates on and str.splitlines keeps in one line;
# the other str.isspace characters end a line
_INLINE_SPACES = [chr(c) for c in range(0x3001) if chr(c).isspace()
                  and len(f"1{chr(c)}2".splitlines()) == 1]
_LINE_ENDS = [chr(c) for c in range(0x3001) if chr(c).isspace()
              and len(f"1{chr(c)}2".splitlines()) == 2]
_TOKEN_FORMATS = [_num, "{:.17e}".format, "{:.3g}".format, "{:+.6f}".format]


class TestNumberReading:
    """Numbers load as ``float()`` reads each token, whatever reads the block."""

    def test_extreme_values_load_to_their_bits(self):
        edge = [0.1 + 0.2, 1 / 3, 5e-324, 1e-323, 1.7e308, -0.0, 0.0, 2.2250738585072014e-308]
        n = 40  # two chunks of distance rows
        mat = np.zeros((n, n))
        for i in range(1, n):
            for j in range(i):
                mat[i, j] = mat[j, i] = abs(edge[(i + j) % len(edge)]) if (i + j) % 5 else -0.0
        coords = np.array([[edge[(r + c) % len(edge)] * (-1) ** c for c in range(4)] for r in range(n)])
        coords[::7, 0] = -1.7e308
        lap = np.array([[v, -v, -v, v] for v in (1.7e308, 0.1 + 0.2, -0.0, 5e-324)] * (n // 4))
        gauss = np.c_[coords[:, 0], np.abs(coords[:, 2]) + 5e-324]
        text = _msd_text(n, [
            ("space D distances", _distance_rows(mat)),
            ("space E euclidean-l2 dim 4", [[_num(v) for v in row] for row in coords]),
            ("space L laplacian nodes 2", [[_num(v) for v in row] for row in lap]),
            ("space G gaussian", [[_num(v) for v in row] for row in gauss]),
        ])
        assert_loads_as_oracle(text)
        assert np.signbit(mat).any()
        assert np.array_equal(np.signbit(loads_msd(text).spaces[0].pairwise()), np.signbit(mat))

    @pytest.mark.parametrize("sep", [s * k for s in _INLINE_SPACES for k in (1, 3)]
                             + ["".join(_INLINE_SPACES)],
                             ids=lambda sep: "-".join(f"{ord(c):x}" for c in sep[:3]) + f"x{len(sep)}")
    def test_every_inline_space_separates_numbers(self, sep):
        n = 34
        mat = _random_distances(n, 1)
        rows = np.random.default_rng(2).normal(size=(n, 3))
        text = _msd_text(n, [("space D distances", _distance_rows(mat)),
                             ("space E euclidean-l2 dim 3", [[_num(v) for v in r] for r in rows])], sep)
        assert_loads_as_oracle(text)

    def test_the_c_reader_splits_fields_only_where_str_split_does(self):
        # else a row the per-row parser refuses could load through np.loadtxt;
        # every code point was checked at numpy 2.4.6, these run at the floor too
        lines = [f"1{chr(c)}2" for c in range(1, 0x3001)
                 if not chr(c).isspace() and len(f"1{chr(c)}2".splitlines()) == 1]
        assert np.loadtxt(lines, dtype=str, ndmin=2, comments=None).shape == (len(lines), 1)

    @pytest.mark.parametrize("end", _LINE_ENDS, ids=lambda c: f"{ord(c):x}")
    def test_a_line_end_between_numbers_splits_the_row(self, end):
        text = _msd_text(4, [("space G gaussian", [["0.5", "1.5"]] * 4)], end)
        with pytest.raises(DataError, match=r"^space G: expected 2 numbers, got 1$"):
            loads_msd(text)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        n=st.integers(4, 70),
        width=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        fmt=st.sampled_from(_TOKEN_FORMATS),
        sep=st.sampled_from([" ", "\t", "  \t ", "\xa0", "　 "]),
        extremes=st.lists(st.floats(-1e308, 1e308), max_size=8),
    )
    def test_random_finite_blocks_load_as_float_reads_them(self, n, width, seed, fmt, sep, extremes):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-300, 300, size=(n, width))
        rows.flat[rng.integers(0, rows.size, len(extremes))] = extremes
        mat = _random_distances(n, seed) * 10.0 ** rng.integers(-300, 300)
        mat[rng.random((n, n)) < 0.1] = 0.0
        text = _msd_text(n, [("space D distances", _distance_rows(np.minimum(mat, mat.T), fmt)),
                             (f"space E euclidean-l2 dim {width}", [[fmt(v) for v in r] for r in rows])],
                         sep)
        assert_loads_as_oracle(text)

    @pytest.mark.parametrize("token, value", [("1_0", 10.0), ("٣", 3.0), ("٣.5e-1_0", 3.5e-10)])
    def test_tokens_only_float_reads_load_with_its_value(self, token, value):
        n = 36
        mat = _random_distances(n, 3)
        rows = _distance_rows(mat)
        rows[33][17] = token
        coords = [[_num(r), "2.5"] for r in range(n)]
        coords[n - 1][1] = token
        text = _msd_text(n, [("space D distances", rows), ("space E euclidean-l2 dim 2", coords)])
        assert_loads_as_oracle(text)
        ms = loads_msd(text)
        assert ms.spaces[0].pairwise()[34, 17] == value
        assert ms.spaces[1].coords[n - 1, 1] == value


def _rows_from(tokens, lo):
    """``tokens`` as distance rows lo, lo + 1, ..: row i holds i tokens (the
    last row may be short)."""
    rows, start, i = [], 0, lo
    while start < len(tokens):
        rows.append(" ".join(tokens[start:start + i]))
        start, i = start + i, i + 1
    return rows


def _exact(tokens, lo=1):
    """The exact reader's numbers for ``tokens`` laid out as whole rows from
    row lo, or None where it declines them."""
    rows = _rows_from(tokens, lo)
    assert len(rows[-1].split()) == lo + len(rows) - 1, "tokens must fill whole rows"
    return dataset._exact_numbers(rows, lo)


def _assert_exact_reads_as_float(tokens, lo=1):
    got = _exact(tokens, lo)
    assert got is not None
    assert np.array_equal(_bits(got), _bits([float(t) for t in tokens]))


# x87 long double rounds each of these to a binary64 midpoint, and rounding
# that once more to binary64 gives the neighbour of float()'s result
_DOUBLE_ROUNDING = ["4.021236511310049", "5.87467934733121", "3.515247444886896"]


@pytest.mark.skipif(dataset._MIDPOINT is None, reason="long double cannot read decimals exactly here")
class TestExactReader:
    """The exact reader gives float()'s bits for every token it accepts, and
    declines every block it does not, which then loads as it always has."""

    def test_a_million_random_reprs_read_as_float(self):
        rng = np.random.default_rng(20261021)
        for lo in range(1000, 1020):  # 20 chunks of 50 rows, 1,001,000 tokens
            count = 50 * lo + 50 * 49 // 2
            x = rng.uniform(1.0, 10.0, count) * 10.0 ** rng.integers(-3, 15, count)
            x[rng.random(count) < 0.5] *= -1.0
            _assert_exact_reads_as_float([repr(v) for v in x.tolist()], lo)

    def test_tokens_that_round_twice_to_a_midpoint(self):
        for token in _DOUBLE_ROUNDING:
            k = len(token.split(".")[1])
            once = np.longdouble(int(token.replace(".", ""))) / dataset._POW10[k]
            if dataset._MIDPOINT[1] == 1 << 10:  # x87: plain double rounding misses
                assert float(once.astype(float)) != float(token)
        _assert_exact_reads_as_float(_DOUBLE_ROUNDING, 3)

    @pytest.mark.parametrize("token", [
        "0.0", "-0.0", "0.012129782538332311", "-0.0000123", "0.000000000000000000000000001",
        "123456789.123456789", "999999999999999999.0", "-1.00000000000000000",
        "1000000000000000000.0", "1234567890.123456789", "98765432109876543210987.654321",
        "0.0000000000000000000000000001", "1.0000000000000000000000000001",
    ], ids=lambda t: t[:24])
    def test_edge_tokens_read_as_float(self, token):
        # zeros of both signs; leading zeros, which M does not count; 18-digit
        # mantissas; M >= 10**18 (int64 parsing saturates) and k > 27, which
        # float() reads again
        tokens = [token, "1.5", token, "2.25", token, token]
        _assert_exact_reads_as_float(tokens, 1)  # bits, so -0.0 keeps its sign

    @pytest.mark.parametrize("token", ["1.5e-3", "1e5", "inf", "nan", "1_0.5", "٣.5", "+1.5", ".5", "5.",
                                       "--1.5", "1-2.5", "1.2.3", "0x1p3", "12", "1.5/2", "-"])
    def test_tokens_outside_the_grammar_are_declined(self, token):
        assert _exact(["1.5", "2.5", token]) is None
        assert _exact([token, "2.5", "3.5"]) is None

    @pytest.mark.parametrize("rows", [["1.5", "2.5\t3.5"], ["1.5", "2.5  3.5"], ["1.5", "2.5 \u00a03.5"],
                                      ["1.5", "2.5"], ["1.5", "2.5 3.5 4.5"], ["1.5 2.5", "3.5"]],
                             ids=["tab", "blank-run", "nbsp", "short", "long", "shifted"])
    def test_rows_outside_the_layout_are_declined(self, rows):
        assert dataset._exact_numbers(rows, 1) is None

    @pytest.mark.parametrize("token", ["1.5e-3", "1_0", "٣", "٣.5", "5.", ".5", "+2.5", "1e5"])
    def test_declined_tokens_load_as_before(self, token):
        n = 36
        rows = _distance_rows(_random_distances(n, 8))
        rows[30][7] = token
        text = _msd_text(n, [("space D distances", rows)])
        assert dataset._exact_distance_matrix(_rows_from_text(text), n) is None
        assert_loads_as_oracle(text)

    @pytest.mark.parametrize("change, message", [
        (lambda rows: rows[20].pop(), "space D row 22: expected 21 numbers, got 20"),
        (lambda rows: rows[20].__setitem__(4, "inf"), "space 'D': non-finite distance matrix entry"),
        (lambda rows: rows[20].__setitem__(4, "1.2.3"), "space D row 22: could not convert string to float: '1.2.3'"),
    ], ids=["short-row", "inf", "bad-token"])
    def test_declined_blocks_raise_as_before(self, change, message):
        rows = _distance_rows(_random_distances(40, 9))
        change(rows)
        text = _msd_text(40, [("space D distances", rows)])
        assert dataset._exact_distance_matrix(_rows_from_text(text), 40) is None
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            loads_msd(text)

    def test_tabs_and_blank_runs_load_as_before(self):
        for sep in ("\t", "  "):
            text = _msd_text(40, [("space D distances", _distance_rows(_random_distances(40, 10)))], sep)
            assert dataset._exact_distance_matrix(_rows_from_text(text), 40) is None
            assert_loads_as_oracle(text)

    @pytest.mark.parametrize("seed", range(4))
    def test_medoid_shaped_files_load_to_the_same_bits_without_it(self, seed, monkeypatch):
        text = _medoid_msd(seed)
        assert dataset._exact_distance_matrix(_rows_from_text(text), 300) is not None
        exact = [sp.pairwise() for sp in loads_msd(text).spaces[:2]]
        monkeypatch.setattr(dataset, "_MIDPOINT", None)
        assert dataset._exact_distance_matrix(_rows_from_text(text), 300) is None
        plain = [sp.pairwise() for sp in loads_msd(text).spaces[:2]]
        for a, b in zip(exact, plain):
            assert np.array_equal(_bits(a), _bits(b))
        assert_loads_as_oracle(text)


def test_long_double_that_can_read_decimals_is_used():
    # a wrong layout test would silently send every block to the C reader
    fits = np.finfo(np.longdouble).nmant in (63, 112) and np.dtype(np.longdouble).itemsize == 16
    assert (dataset._MIDPOINT is not None) == (fits and sys.byteorder == "little")


def _rows_from_text(text):
    """The row lines of the first distance block of ``text``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.endswith(" distances")) + 1
    n = int(lines[1].split()[1])
    return lines[start:start + n - 1]


def _medoid_msd(seed):
    """A file shaped like the benchmark's medoid input: n = 300, J = 3, an L1
    and a Chebyshev distance block and a 1-D euclidean-l1 block."""
    rng = np.random.default_rng(seed)
    n, shift = 300, np.repeat(np.arange(3) * 0.15, 100)
    u = rng.normal(size=(n, 5)) + shift[:, None]
    v = rng.normal(size=(n, 4)) * (1.0 + shift[:, None])
    w = rng.normal(size=(n, 1)) + shift[:, None]
    return _msd_text(n, [
        ("space L1 distances", _distance_rows(np.abs(u[:, None] - u[None]).sum(axis=2))),
        ("space Cheb distances", _distance_rows(np.abs(v[:, None] - v[None]).max(axis=2))),
        ("space W euclidean-l1 dim 1", [[_num(x)] for x in w[:, 0]]),
    ])


class TestReadErrors:
    """A refused block names its first bad row, as the per-row parser always has."""

    @pytest.mark.parametrize("change, message", [
        (lambda row: row[:-1], "space D row 21: expected 20 numbers, got 19"),
        (lambda row: row + ["0.5"], "space D row 21: expected 20 numbers, got 21"),
    ], ids=["short", "long"])
    def test_a_distance_row_of_another_length(self, change, message):
        rows = _distance_rows(_random_distances(40, 4))
        rows[19] = change(rows[19])
        with pytest.raises(DataError, match=f"^{message}$"):
            loads_msd(_msd_text(40, [("space D distances", rows)]))

    def test_distance_rows_all_one_number_long_are_refused(self):
        # each chunk of the C reader would come back rectangular
        rows = [row + ["0.5"] for row in _distance_rows(_random_distances(40, 4))]
        with pytest.raises(DataError, match="^space D row 2: expected 1 numbers, got 2$"):
            loads_msd(_msd_text(40, [("space D distances", rows)]))

    @pytest.mark.parametrize("head, row", [("space G gaussian", ["0.5", "1.5"]),
                                           ("space L laplacian nodes 2", ["1.0", "-1.0", "-1.0", "1.0"])])
    def test_a_bad_token_in_a_coordinate_block(self, head, row):
        rows = [list(row) for _ in range(12)]
        rows[7][1] = "1.0.0"
        rows[9][0] = "nope"
        with pytest.raises(DataError, match=f"^space {head.split()[1]}: "
                                            "could not convert string to float: '1.0.0'$"):
            loads_msd(_msd_text(12, [(head, rows)]))

    def test_a_bad_token_in_a_distance_block(self):
        rows = _distance_rows(_random_distances(40, 5))
        rows[35][3] = "0x1p3"
        with pytest.raises(DataError, match="^space D row 37: could not convert string to float: '0x1p3'$"):
            loads_msd(_msd_text(40, [("space D distances", rows)]))

    def test_a_block_cut_short_by_the_next_header(self):
        text = _msd_text(6, [("space G gaussian", [["0.5", "1.5"]] * 5),
                             ("space E euclidean-l2 dim 1", [["2.0"]] * 6)])
        with pytest.raises(DataError, match="^space G: expected 2 numbers, got 5$"):
            loads_msd(text)

    def test_a_distance_block_cut_short_by_the_next_header(self):
        text = _msd_text(40, [("space D distances", _distance_rows(_random_distances(40, 6))[:-1]),
                              ("space E euclidean-l2 dim 1", [["2.0"]] * 40)])
        with pytest.raises(DataError, match="^space D row 40: expected 39 numbers, got 5$"):
            loads_msd(text)

    @pytest.mark.parametrize("blocks, message", [
        ([("space D distances", _distance_rows(_random_distances(40, 7))[:-1])],
         "unexpected end of file: space D needs 39 distance rows"),
        ([("space G gaussian", [["0.5", "1.5"]] * 39)],
         "unexpected end of file while reading gaussian row"),
        ([("space L laplacian nodes 1", [["0.0"]] * 39)],
         "unexpected end of file while reading laplacian row"),
    ], ids=["distances", "gaussian", "laplacian"])
    def test_a_truncated_file(self, blocks, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            loads_msd(_msd_text(40, blocks))

    def test_a_truncated_block_with_a_bad_row_names_the_bad_row(self):
        rows = [["0.5", "1.5"]] * 39
        rows[3] = ["0.5"]
        with pytest.raises(DataError, match="^space G: expected 2 numbers, got 1$"):
            loads_msd(_msd_text(40, [("space G gaussian", rows)]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("head, rows", [("space D distances", []),
                                            ("space G gaussian", [["0.5", "1.5"]])])
    def test_one_observation_is_refused_without_a_warning(self, head, rows):
        text = "msd 1\nobservations 1\nspaces 1\nlabels a\n" + "\n".join([head] + [" ".join(r) for r in rows])
        with pytest.raises(DataError, match=r"^every group needs at least 2 observations; too small: \['a'\]$"):
            loads_msd(text)


class TestReadMemory:
    @pytest.mark.parametrize("n", [600, 1200])
    def test_distance_block_peak_stays_within_four_times_the_text(self, n):
        """The reader's chunks of padded rows keep the peak near the text's
        own size (3.6x with one float() per token); one call over rows all
        padded to n - 1 numbers reached 5.8x."""
        text = _msd_text(n, [("space D distances", _distance_rows(_random_distances(n, n)))])
        tracemalloc.start()
        try:
            loads_msd(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * len(text), peak / len(text)
