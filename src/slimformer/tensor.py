"""Dense matrices, named parameter bundles, and the bundle file format.

A :class:`DenseMatrix` is the universal parameter container: a 2-D array of
float64, immutable after construction, with every entry finite.  A
:class:`ParamBundle` is an ordered collection of named matrices, each tagged
with the parameter group it belongs to (embedding / encoder / classifier).

Bundle files are a text manifest followed by one concatenated binary blob:

    slimformer-bundle 1
    entry <name> <group> <rows> <cols> <byte-offset> <crc32-hex>
    ...
    blob <total-bytes>
    <raw little-endian float64 values, row-major, in entry order>

The manifest is ASCII and diffable; the blob is bit-exact on round trip.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import (
    ChecksumError,
    MalformedManifestError,
    NonFiniteError,
    ShapeError,
    TruncatedBlobError,
)

GROUPS = ("embedding", "encoder", "classifier")

_MAGIC = "slimformer-bundle 1"


class DenseMatrix:
    """Immutable 2-D matrix of 64-bit reals.

    Rows and cols are positive; all entries are finite.  The backing numpy
    array is C-contiguous and marked read-only, so instances can be shared
    freely across threads.
    """

    __slots__ = ("_a",)

    def __init__(self, values):
        a = np.array(values, dtype=np.float64, order="C", copy=True)
        if a.ndim != 2:
            raise ShapeError(f"expected a 2-D array, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
        if not np.isfinite(a).all():
            raise NonFiniteError("matrix entries must be finite (no NaN/Inf)")
        a.flags.writeable = False
        self._a = a

    @classmethod
    def from_flat(cls, rows: int, cols: int, values) -> "DenseMatrix":
        """Build from a row-major flat sequence of length rows*cols."""
        a = np.asarray(values, dtype=np.float64)
        if a.ndim != 1 or a.size != rows * cols:
            raise ShapeError(
                f"flat data length {a.size} does not equal rows*cols = {rows * cols}"
            )
        return cls(a.reshape(rows, cols))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """The backing read-only float64 array."""
        return self._a

    def tobytes(self) -> bytes:
        return self._a.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.shape == other.shape and self.tobytes() == other.tobytes()

    def __hash__(self):
        return hash((self.shape, self.tobytes()))

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


def frobenius_norm(a: DenseMatrix) -> float:
    """sqrt of the sum of squared entries."""
    return float(np.linalg.norm(a.array))


class ParamBundle:
    """Ordered, immutable map of unique names to grouped matrices.

    Iteration order is insertion order.  Names contain no whitespace so the
    manifest stays line-parseable.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[tuple[str, str, DenseMatrix]] = ()):
        seen: dict[str, tuple[str, DenseMatrix]] = {}
        for name, group, matrix in entries:
            if not name or any(ch.isspace() for ch in name):
                raise MalformedManifestError(f"invalid entry name {name!r}")
            if group not in GROUPS:
                raise MalformedManifestError(
                    f"unknown group {group!r} for entry {name!r}; expected one of {GROUPS}"
                )
            if name in seen:
                raise MalformedManifestError(f"duplicate entry name {name!r}")
            if not isinstance(matrix, DenseMatrix):
                matrix = DenseMatrix(matrix)
            seen[name] = (group, matrix)
        self._entries = seen

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def group_of(self, name: str) -> str:
        return self._entries[name][0]

    def matrix(self, name: str) -> DenseMatrix:
        return self._entries[name][1]

    def items(self) -> Iterator[tuple[str, str, DenseMatrix]]:
        for name, (group, matrix) in self._entries.items():
            yield name, group, matrix

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamBundle):
            return NotImplemented
        return list(self.items()) == list(other.items())

    def __repr__(self):
        return f"ParamBundle({len(self._entries)} entries, {param_count(self)} params)"


def param_count(bundle: ParamBundle, group: Optional[str] = None) -> int:
    """Total element count over entries matching the group filter."""
    total = 0
    for _, g, m in bundle.items():
        if group is None or g == group:
            total += m.rows * m.cols
    return total


def save_bundle(bundle: ParamBundle, path) -> None:
    """Write the manifest-plus-blob bundle format described in the module docs."""
    manifest_lines = [_MAGIC]
    blobs = []
    offset = 0
    for name, group, matrix in bundle.items():
        raw = matrix.tobytes()
        crc = zlib.crc32(raw) & 0xFFFFFFFF
        manifest_lines.append(
            f"entry {name} {group} {matrix.rows} {matrix.cols} {offset} {crc:08x}"
        )
        blobs.append(raw)
        offset += len(raw)
    manifest_lines.append(f"blob {offset}")
    header = ("\n".join(manifest_lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        for raw in blobs:
            fh.write(raw)


def load_bundle(path) -> ParamBundle:
    """Read a bundle file, validating structure, lengths and checksums."""
    with open(path, "rb") as fh:
        raw = fh.read()

    lines, blob = _split_header(raw)
    if not lines or lines[0] != _MAGIC:
        raise MalformedManifestError(f"bad magic line {lines[0]!r}" if lines else "empty file")

    declared = _parse_blob_line(lines[-1])
    if len(blob) < declared:
        raise TruncatedBlobError(
            f"manifest declares a {declared}-byte blob but only {len(blob)} bytes follow"
        )

    entries = []
    for line in lines[1:-1]:
        name, group, rows, cols, offset, crc = _parse_entry_line(line)
        nbytes = rows * cols * 8
        if offset + nbytes > declared:
            raise TruncatedBlobError(
                f"entry {name!r} needs bytes [{offset}, {offset + nbytes}) "
                f"but the blob holds {declared}"
            )
        chunk = blob[offset : offset + nbytes]
        if (zlib.crc32(chunk) & 0xFFFFFFFF) != crc:
            raise ChecksumError(f"checksum mismatch for entry {name!r}")
        values = np.frombuffer(chunk, dtype="<f8")
        entries.append((name, group, DenseMatrix.from_flat(rows, cols, values)))
    return ParamBundle(entries)


def _split_header(raw: bytes):
    # Header = ASCII lines through the "blob N" line; everything after is blob.
    lines = []
    pos = 0
    while True:
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise MalformedManifestError("no blob line found before end of file")
        try:
            line = raw[pos:nl].decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedManifestError(f"non-ASCII manifest line at byte {pos}") from exc
        lines.append(line)
        pos = nl + 1
        if line.startswith("blob"):
            return lines, raw[pos:]


def _parse_blob_line(line: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != "blob":
        raise MalformedManifestError(f"bad blob line {line!r}")
    try:
        return int(parts[1])
    except ValueError as exc:
        raise MalformedManifestError(f"bad blob length in {line!r}") from exc


def _parse_entry_line(line: str):
    parts = line.split()
    if len(parts) != 7 or parts[0] != "entry":
        raise MalformedManifestError(f"bad entry line {line!r}")
    _, name, group, rows_s, cols_s, offset_s, crc_s = parts
    if group not in GROUPS:
        raise MalformedManifestError(f"unknown group {group!r} in entry {name!r}")
    try:
        rows, cols, offset = int(rows_s), int(cols_s), int(offset_s)
        crc = int(crc_s, 16)
    except ValueError as exc:
        raise MalformedManifestError(f"bad numeric field in {line!r}") from exc
    if rows < 1 or cols < 1 or offset < 0:
        raise MalformedManifestError(f"non-positive dimensions in {line!r}")
    return name, group, rows, cols, offset, crc
