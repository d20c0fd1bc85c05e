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
Blank lines and ``#`` comments are ignored.  All numbers are full-precision
decimal text.
"""

from __future__ import annotations

import io
import math
from typing import List

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


def _space_payload(sp: SpaceSample) -> tuple:
    """(kind tag, extra header words, numeric rows) for one space block."""
    rows = sp.coords
    if sp.kind == "gaussian":
        return "gaussian", [], rows
    if sp.kind in ("euclidean-l2", "euclidean-l1"):
        return sp.kind, ["dim", str(rows.shape[1])], rows
    if sp.kind == "laplacian":
        return "laplacian", ["nodes", str(math.isqrt(rows.shape[1]))], rows
    if sp.kind == "distances":
        return "distances", [], sp.pairwise()
    raise DataError(
        f"space {sp.space_id!r} of kind {sp.kind!r} has no file encoding; "
        "only gaussian, euclidean, laplacian, and distance-matrix spaces "
        "can be saved"
    )


def dumps_msd(ms: GroupedMultiSample) -> str:
    """Serialize a multisample to ``.msd`` text."""
    out = io.StringIO()
    out.write(f"msd {_FORMAT_VERSION}\n")
    out.write(f"observations {ms.n}\n")
    out.write(f"spaces {ms.n_spaces}\n")
    tokens = [str(lbl) for lbl in ms.labels]
    for tok in tokens:
        if not tok or any(ch.isspace() for ch in tok):
            raise DataError(f"label {tok!r} cannot be written (whitespace or empty)")
    out.write("labels " + " ".join(tokens) + "\n")
    for sp in ms.spaces:
        kind, extra, rows = _space_payload(sp)
        sid = str(sp.space_id)
        if not sid or any(ch.isspace() for ch in sid):
            raise DataError(f"space id {sid!r} cannot be written (whitespace or empty)")
        head = ["space", sid, kind] + extra
        out.write(" ".join(head) + "\n")
        if kind == "distances":
            for i in range(1, ms.n):
                out.write(" ".join(_fmt(rows[i, j]) for j in range(i)) + "\n")
        else:
            for row in rows:
                out.write(" ".join(_fmt(x) for x in row) + "\n")
    return out.getvalue()


def save_msd(path, ms: GroupedMultiSample) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_msd(ms))


class _LineReader:
    def __init__(self, text: str):
        self.lines: List[str] = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                self.lines.append(line)
        self.pos = 0

    def next(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise DataError(f"unexpected end of file while reading {what}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.lines)


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
        if kind in ("euclidean-l2", "euclidean-l1", "laplacian"):
            word = "nodes" if kind == "laplacian" else "dim"
            if len(head) != 5 or head[3] != word:
                raise DataError(f"space {sid}: expected '{word} <count>' in header")
            size = _positive_int(head[4], f"space {sid}: {word}")
        if kind == "gaussian":
            rows = np.stack([_floats(rd.next("gaussian row"), 2, f"space {sid}") for _ in range(n)])
            spaces.append(gaussian_space(sid, rows))
        elif kind in ("euclidean-l2", "euclidean-l1"):
            rows = np.stack([_floats(rd.next("euclidean row"), size, f"space {sid}") for _ in range(n)])
            norm = "L2" if kind == "euclidean-l2" else "L1"
            spaces.append(euclidean_space(sid, rows, norm=norm))
        elif kind == "laplacian":
            rows = np.stack(
                [_floats(rd.next("laplacian row"), size * size, f"space {sid}") for _ in range(n)]
            )
            spaces.append(laplacian_space(sid, rows.reshape(n, size, size)))
        elif kind == "distances":
            if len(rd.lines) - rd.pos < n - 1:
                raise DataError(
                    f"unexpected end of file: space {sid} needs {n - 1} distance rows"
                )
            mat = np.zeros((n, n), dtype=float)
            for i in range(1, n):
                row = _floats(rd.next("distance row"), i, f"space {sid} row {i + 1}")
                mat[i, :i] = row
                mat[:i, i] = row
            spaces.append(distance_matrix_space(sid, mat))
        else:
            raise DataError(f"space {sid}: unknown kind {kind!r}")
    if not rd.exhausted:
        raise DataError(f"trailing content at line {rd.pos + 1}")
    return GroupedMultiSample(spaces, labels)


def load_msd(path) -> GroupedMultiSample:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_msd(fh.read())
