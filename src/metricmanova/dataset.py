"""Reading and writing the ``.msd`` dataset container.

A dataset file is line-oriented text: a header with the observation count,
space count, and group labels, followed by one block per space.  A block is
either native objects in one of the registered encodings or a dense
lower-triangular distance block::

    msd 1
    observations 4
    spaces 2
    labels a a b b
    space X1 gaussian
    <mu> <sigma>                  (one line per observation)
    space X2 distances
    <d(2,1)>                      (one line per observation after the first,
    <d(3,1)> <d(3,2)>              row i holding distances to observations 1..i-1)
    ...

Euclidean blocks are declared as ``space ID euclidean-l2 dim K`` (or
``euclidean-l1``) with K coordinates per line; Laplacian blocks as
``space ID laplacian nodes M`` with M*M row-major entries per line.
Blank lines and ``#`` comments are ignored, so labels and space ids can
contain neither whitespace nor ``#``; writing one raises ``DataError``.  All
numbers are full-precision decimal text.

Each number reads as ``float()`` reads it, whichever of three readers reads
its block:

- A distance block is read first by the exact reader (``_exact_numbers``), in
  chunks of rows.  It takes rows of ``-?D+.D+`` tokens joined by single
  spaces, each row with its own count, which is how ``dumps_msd`` writes
  numbers from 1e-4 to 1e16.  It reads each token's digits as one integer M
  and divides once by 10**k in long double.  Both operands are exact, so the
  quotient is M / 10**k correctly rounded (Clinger 1990), and rounding it to
  binary64 gives ``float()``'s correctly rounded result unless the quotient
  lies exactly on a binary64 midpoint (Figueroa 1995); such tokens are read
  again by ``float()``.  It declines a block on any other text, and on a
  platform whose long double lacks a 64- or 113-bit significand.  It skips
  coordinate blocks: their short tokens read faster in the C reader.
- numpy's C text reader (``np.loadtxt``, which converts a field with the
  routine ``float()`` uses) reads a coordinate block in one call and a
  declined distance block in chunks of rows.
- Where the C reader refuses a block, the per-row parser reads the block
  again: it accepts what ``float()`` accepts beyond the C reader (``1_0``,
  non-ASCII digits), and otherwise names the first bad row.
"""

from __future__ import annotations

import io
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .errors import DataError
from .samples import GroupedMultiSample, SpaceSample
from .spaces import (
    distance_matrix_space,
    euclidean_space,
    gaussian_space,
    laplacian_space,
)

_FORMAT_VERSION = 1


def _fmt(x: float) -> str:
    return repr(float(x))


# Every block tag, declared once for the reader and the writer: the header
# word before its count (or None), the numbers per row as a function of that
# count (None for a distance block, whose rows are the matrix's lower
# triangle), and the constructor that builds the space from (space id, rows
# or matrix, count).
_BLOCKS = {
    "gaussian": (None, lambda c: 2, lambda sid, rows, c: gaussian_space(sid, rows)),
    "euclidean-l2": ("dim", lambda c: c, lambda sid, rows, c: euclidean_space(sid, rows)),
    "euclidean-l1": ("dim", lambda c: c, lambda sid, rows, c: euclidean_space(sid, rows, "L1")),
    "laplacian": ("nodes", lambda c: c * c,
                  lambda sid, rows, c: laplacian_space(sid, rows.reshape(len(rows), c, c))),
    "distances": (None, None, lambda sid, mat, c: distance_matrix_space(sid, mat)),
}


def _mean_rule(sp: SpaceSample) -> str:
    return "centroid" if sp.embedding is not None else "solver" if sp.has_exact_mean else "medoid"


def _space_payload(sp: SpaceSample) -> tuple:
    """(header words after the tag, rows) of one space block.

    The tag's constructor rebuilds the space from exactly these rows, as the
    reader will; it must take the space's own mean, and a medoid space must
    come back with a bit-identical distance matrix.  A distance block is
    built from the whole matrix: ``pairwise()`` is exactly symmetric with a
    zero diagonal, so its lower triangle gives it back.
    """
    name = f"space {sp.space_id!r}"
    if sp.kind not in _BLOCKS:
        raise DataError(
            f"{name} of kind {sp.kind!r} has no file encoding; "
            f"the kinds that save are {', '.join(_BLOCKS)}"
        )
    word, width, build = _BLOCKS[sp.kind]
    if width is None:
        rows, count = sp.pairwise(), None
    elif sp.coords is None:
        raise DataError(f"{name} of kind {sp.kind!r} has no coordinate rows")
    else:
        rows, have = sp.coords, sp.coords.shape[1]
        # the least count whose rows are this wide; cheaper than writing a row
        count = next((c for c in range(1, have + 1) if width(c) >= have), None)
        if count is None or width(count) != have:
            raise DataError(f"{name}: {sp.kind} rows cannot have width {have}")
    try:
        back = build(sp.space_id, rows, count)
    except ValueError as exc:
        raise DataError(f"{name}: its {sp.kind} block would not load: {exc}") from exc
    own, read = _mean_rule(sp), _mean_rule(back)
    if own != read:
        raise DataError(f"{name}: a {sp.kind} block loads with the {read}, not this space's {own}")
    if own == "medoid" and not np.array_equal(back.pairwise(), sp.pairwise()):
        raise DataError(f"{name}: a {sp.kind} block loads with other distances than this space's")
    if width is None:
        rows = [rows[i, :i] for i in range(1, sp.n)]
    return ([] if word is None else [word, str(count)]), rows


def _writable(what: str, tok: str) -> str:
    """``tok`` if the reader gets it back as one field, else a DataError."""
    if not tok:
        reason = "empty"
    elif any(ch.isspace() for ch in tok):
        reason = "whitespace separates fields"
    elif "#" in tok:
        reason = "'#' starts a comment"
    else:
        return tok
    raise DataError(f"{what} {tok!r} cannot be written ({reason})")


def dumps_msd(ms: GroupedMultiSample) -> str:
    """Serialize a multisample to ``.msd`` text."""
    out = io.StringIO()
    out.write(f"msd {_FORMAT_VERSION}\n")
    out.write(f"observations {ms.n}\n")
    out.write(f"spaces {ms.n_spaces}\n")
    tokens = [_writable("label", str(lbl)) for lbl in ms.labels]
    out.write("labels " + " ".join(tokens) + "\n")
    for sp in ms.spaces:
        extra, rows = _space_payload(sp)
        head = ["space", _writable("space id", str(sp.space_id)), sp.kind] + extra
        out.write(" ".join(head) + "\n")
        for row in rows:
            out.write(" ".join(_fmt(x) for x in row) + "\n")
    return out.getvalue()


def save_msd(path, ms: GroupedMultiSample) -> None:
    text = dumps_msd(ms)  # a sample that cannot be written leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class _LineReader:
    """The text's non-blank lines, comments stripped, and their line numbers."""

    def __init__(self, text: str):
        self.lines: List[str] = []
        self.numbers: List[int] = []
        raws = text.splitlines()
        if "#" in text:  # one scan spares every line of a file without comments its split
            raws = [raw.split("#", 1)[0] for raw in raws]
        for number, raw in enumerate(raws, 1):
            line = raw.strip()
            if line:
                self.lines.append(line)
                self.numbers.append(number)
        self.pos = 0

    def next(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise DataError(f"unexpected end of file while reading {what}")
        line = self.lines[self.pos]
        self.pos += 1
        return line


def _midpoint_bits() -> Optional[Tuple[np.uint64, np.uint64]]:
    """(mask, half) such that a normal long double y lies exactly halfway
    between two binary64 values when the low word of its significand,
    ``& mask``, equals ``half``: the bits that rounding to binary64 drops.
    None where long double cannot hold every mantissa M < 10**18 and every
    10**k, k <= 27, exactly (plain double, ppc64 double-double) or where its
    words are not laid out as this test reads them."""
    drop = np.finfo(np.longdouble).nmant - 52  # 11 on x87, 60 on IEEE quad
    if drop not in (11, 60) or np.dtype(np.longdouble).itemsize != 16:
        return None
    mask, half = np.uint64((1 << drop) - 1), np.uint64(1 << (drop - 1))
    one, tie = np.longdouble(1), np.longdouble(2) ** -53
    # two midpoints, then one long-double ulp above one, and two binary64 values
    probe = np.array([one + tie, -one - tie, one + tie + tie * 2.0 ** (1 - drop), one, one + 2 * tie])
    hits = (probe.view(np.uint64)[0::2] & mask) == half
    return (mask, half) if hits.tolist() == [True, True, False, False, False] else None


_MIDPOINT = _midpoint_bits()
# 10**k for k = 0..27 by exact products: 10**27 = 2**27 * 5**27 and 5**27 < 2**63
_POW10 = np.multiply.accumulate(np.r_[1, [10] * 27].astype(np.longdouble))
_MANTISSA_LIMIT = 10**18  # every M below it fits int64 and the long double significand
# Distance numbers per chunk of the exact reader.  Its temporaries come to
# about 155 bytes per number, so 0.6 MB; on an n = 300 block (2-core VM,
# numpy 2.4.6) chunks of 2k, 4k, 8k and 16k numbers took 5.6, 5.1, 4.8 and
# 4.7 ms, against 10.3 ms for the C reader's chunks.
_EXACT_CHUNK = 4096


def _exact_numbers(lines: List[str], lo: int) -> Optional[np.ndarray]:
    """The numbers of distance rows lo, lo + 1, .. (``lines``, row i holding
    i numbers) with ``float()``'s bits, or None where a row is not i tokens
    ``-?D+.D+`` joined by single spaces (see the module docstring).  Each
    token's digits, point and sign removed, are one int64 mantissa M, parsed
    in one ``np.fromstring`` call; the checks before it let it meet digits
    only.  Tokens whose long-double quotient is a binary64 midpoint, or with
    M >= 10**18 (int64 parsing saturates above) or k > 27, are read again by
    ``float()``."""
    text = "\n" + "\n".join(lines) + "\n"
    if _MIDPOINT is None or not text.isascii():
        return None
    raw = text.encode("ascii")
    b = np.frombuffer(raw, dtype=np.uint8)
    if b.max() > 57 or b"/" in raw:  # at or above b"/" only digits
        return None
    marks = np.flatnonzero(b < 47)  # separators, signs and points
    kind = b[marks]
    signed = b"-" in raw
    if signed:
        sign = kind == 45
        if (b[marks[sign] - 1] > 32).any():  # a sign starts its token
            return None
        marks, kind = marks[~sign], kind[~sign]
    # a separator before every token and after the last, a point in each
    seps, dots, sep_kind = marks[0::2], marks[1::2], kind[0::2]
    if len(seps) != len(dots) + 1 or (kind[1::2] != 46).any():
        return None
    newlines = np.flatnonzero(sep_kind == 10)
    rows = np.arange(lo, lo + len(lines))
    if (len(newlines) != len(rows) + 1 or newlines[0] != 0
            or (newlines[1:] != np.cumsum(rows)).any()
            or np.count_nonzero(sep_kind == 32) != len(seps) - len(newlines)):
        return None
    neg = b[seps[:-1] + 1] == 45 if signed else False
    frac = seps[1:] - dots - 1
    if (dots - seps[:-1] - 1 - neg < 1).any() or (frac < 1).any():
        return None
    digits = raw.replace(b".", b"")
    if signed:
        digits = digits.replace(b"-", b"")
    mantissas = np.fromstring(digits, dtype=np.int64, sep=" ")
    quotients = mantissas.astype(np.longdouble) / _POW10[np.minimum(frac, len(_POW10) - 1)]
    out = quotients.astype(float)
    mask, half = _MIDPOINT
    redo = ((quotients.view(np.uint64)[0::2] & mask) == half) | (mantissas >= _MANTISSA_LIMIT)
    redo |= frac >= len(_POW10)
    if signed:
        np.negative(out, out=out, where=neg)
    for t in np.flatnonzero(redo):
        out[t] = float(raw[seps[t] + 1:seps[t + 1]])
    return out


def _exact_distance_matrix(lines: List[str], n: int) -> Optional[np.ndarray]:
    """The (n, n) matrix of a distance block's n - 1 row lines read by
    :func:`_exact_numbers` in chunks of about ``_EXACT_CHUNK`` numbers, or
    None where it declines a chunk."""
    mat = np.zeros((n, n), dtype=float)
    cols = np.arange(n)
    lo = 1
    while lo < n:
        hi, count = lo, 0
        while hi < n and count < _EXACT_CHUNK:
            count, hi = count + hi, hi + 1
        numbers = _exact_numbers(lines[lo - 1:hi - 1], lo)
        if numbers is None:
            return None
        lower = cols < np.arange(lo, hi)[:, None]  # row i's first i entries
        mat[lo:hi][lower] = numbers
        mat[:, lo:hi].T[lower] = numbers
        lo = hi
    return mat


# Rows per np.loadtxt call in a distance block.  Row i holds i numbers and is
# padded with "0" tokens to the width of its chunk's last row.  On a 2-core VM
# (numpy 2.4.6) an n = 600 block took 61.7, 61.5, 61.8 and 62.2 ms (medians)
# in chunks of 16, 32, 64 and 128 rows, 68.8 ms as one call over rows all
# padded to n - 1, and 80.1 ms with one float() per token.
_DISTANCE_CHUNK = 32


def _loadtxt(lines: Iterable[str], shape: Tuple[int, int]) -> Optional[np.ndarray]:
    """The block of ``shape`` in ``lines`` read by numpy's C reader, or None
    where it refuses a token or the rows have another shape.  ``lines`` must
    hold at least one line: the reader warns on no data."""
    try:
        rows = np.loadtxt(lines, dtype=float, ndmin=2, comments=None)
    except ValueError:
        return None
    return rows if rows.shape == shape else None


def _distance_matrix(lines: List[str], n: int) -> Optional[np.ndarray]:
    """The (n, n) matrix of a distance block's n - 1 row lines, read by the
    exact reader or, where it declines, by the C reader; None where the C
    reader refuses a chunk.  A padded row has its chunk's width only if it
    held its own count of numbers, so the C reader still checks each row."""
    mat = _exact_distance_matrix(lines, n)
    if mat is not None:
        return mat
    mat = np.zeros((n, n), dtype=float)
    for lo in range(1, n, _DISTANCE_CHUNK):
        hi = min(lo + _DISTANCE_CHUNK, n)
        # padded one line at a time: holding a chunk's padded lines in a list
        # left perfbench's cli_medoid peak_rss_mb 3% above the per-token parse
        padded = (lines[i - 1] + " 0" * (hi - 1 - i) for i in range(lo, hi))
        chunk = _loadtxt(padded, (hi - lo, hi - 1))
        if chunk is None:
            return None
        for i, row in zip(range(lo, hi), chunk):
            mat[i, :i] = mat[:i, i] = row[:i]
    return mat


def _floats(line: str, count: int, what: str) -> np.ndarray:
    parts = line.split()
    if len(parts) != count:
        raise DataError(f"{what}: expected {count} numbers, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts], dtype=float)
    except ValueError as exc:
        raise DataError(f"{what}: {exc}") from exc


def _positive_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise DataError(f"{what} must be a positive integer, got {text!r}") from None
    if value < 1:
        raise DataError(f"{what} must be a positive integer, got {value}")
    return value


def loads_msd(text: str) -> GroupedMultiSample:
    """Parse ``.msd`` text into a multisample."""
    rd = _LineReader(text)
    magic = rd.next("header").split()
    if len(magic) != 2 or magic[0] != "msd":
        raise DataError("not an msd file (missing 'msd <version>' header)")
    if magic[1] != str(_FORMAT_VERSION):
        raise DataError(f"unsupported msd version {magic[1]!r}")

    def _int_field(name: str) -> int:
        parts = rd.next(name).split()
        if len(parts) != 2 or parts[0] != name:
            raise DataError(f"expected '{name} <count>', got {' '.join(parts)!r}")
        return _positive_int(parts[1], name)

    n = _int_field("observations")
    n_spaces = _int_field("spaces")
    label_parts = rd.next("labels").split()
    if label_parts[0] != "labels" or len(label_parts) != n + 1:
        raise DataError(f"expected 'labels' with {n} entries")
    labels = np.array(label_parts[1:])

    spaces = []
    for _ in range(n_spaces):
        head = rd.next("space header").split()
        if len(head) < 3 or head[0] != "space":
            raise DataError(f"expected 'space <id> <kind>', got {' '.join(head)!r}")
        sid, kind = head[1], head[2]
        if kind not in _BLOCKS:
            raise DataError(f"space {sid}: unknown kind {kind!r}")
        word, width, build = _BLOCKS[kind]
        count = None
        if word is not None:
            if len(head) != 5 or head[3] != word:
                raise DataError(f"space {sid}: expected '{word} <count>' in header")
            count = _positive_int(head[4], f"space {sid}: {word}")
        elif len(head) != 3:
            raise DataError(f"space {sid}: unexpected words after '{kind}' in header")
        if width is None:  # row i + 1 holds the i distances to observations 1..i
            if len(rd.lines) - rd.pos < n - 1:
                raise DataError(
                    f"unexpected end of file: space {sid} needs {n - 1} distance rows"
                )
            rows = _distance_matrix(rd.lines[rd.pos:rd.pos + n - 1], n)
            if rows is None:  # the per-row parser names the first bad row
                rows = np.zeros((n, n), dtype=float)
                for i in range(1, n):
                    row = _floats(rd.next("distance row"), i, f"space {sid} row {i + 1}")
                    rows[i, :i] = rows[:i, i] = row
            else:
                rd.pos += n - 1
        else:
            size, what, where = width(count), f"{kind.split('-')[0]} row", f"space {sid}"
            lines = rd.lines[rd.pos:rd.pos + n]
            rows = _loadtxt(lines, (n, size)) if len(lines) == n else None
            if rows is None:  # the per-row parser names the first bad row
                rows = np.stack([_floats(rd.next(what), size, where) for _ in range(n)])
            else:
                rd.pos += n
        spaces.append(build(sid, rows, count))
    if rd.pos < len(rd.lines):
        raise DataError(f"trailing content at line {rd.numbers[rd.pos]}")
    return GroupedMultiSample(spaces, labels)


def load_msd(path) -> GroupedMultiSample:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_msd(fh.read())
