"""Named parameter bundles and the bundle file format.

Matrices throughout the library are plain 2-D float64 numpy arrays.  A
:class:`ParamBundle` is an ordered collection of named matrices, each tagged
with the parameter group it belongs to (embedding / encoder / classifier).
It is the one place that checks values: every entry is stored as a
read-only, C-contiguous float64 copy with positive dimensions and finite
entries, so a bundle can be shared freely and saved bit-exactly.

Bundle files are a text manifest followed by one concatenated binary blob:

    slimformer-bundle 1
    entry <name> <group> <rows> <cols> <byte-offset> <crc32-hex>
    ...
    blob <total-bytes>
    <raw little-endian float64 values, row-major, in entry order>

Entries are packed back to back: each offset is the summed size of the
entries before it, the blob is exactly their total, and the file ends
with the blob.  The manifest is ASCII and diffable; the blob is
bit-exact on round trip.

The text files (a model's .config, a compression plan) hold one
dataclass record each, as key=value lines named by the record's fields;
save_record and load_record are their one codec.
"""

from __future__ import annotations

import dataclasses
import zlib
from pathlib import Path
from typing import Iterable, Iterator, get_type_hints

import numpy as np

from .errors import (
    BundleFormatError,
    ChecksumError,
    InputError,
    MalformedManifestError,
    NonFiniteError,
    ShapeError,
    TruncatedBlobError,
)

GROUPS = ("embedding", "encoder", "classifier")

_MAGIC = "slimformer-bundle 1"


class ParamBundle:
    """Ordered, immutable map of unique names to grouped matrices.

    Iteration order is insertion order.  Names contain no whitespace so the
    manifest stays line-parseable.  Each matrix is copied, so the caller's
    array stays writable; raises ShapeError for an array that is not 2-D
    with positive dimensions and NonFiniteError for NaN or infinite entries.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[tuple[str, str, np.ndarray]] = ()):
        seen: dict[str, tuple[str, np.ndarray]] = {}
        for name, group, matrix in entries:
            if not name or any(ch.isspace() for ch in name):
                raise MalformedManifestError(f"invalid entry name {name!r}")
            if group not in GROUPS:
                raise MalformedManifestError(
                    f"unknown group {group!r} for entry {name!r}; expected one of {GROUPS}"
                )
            if name in seen:
                raise MalformedManifestError(f"duplicate entry name {name!r}")
            seen[name] = (group, _frozen_copy(name, matrix))
        self._entries = seen

    def names(self) -> list[str]:
        return list(self._entries)

    def matrix(self, name: str) -> np.ndarray:
        return self._entries[name][1]

    def items(self) -> Iterator[tuple[str, str, np.ndarray]]:
        for name, (group, matrix) in self._entries.items():
            yield name, group, matrix

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamBundle):
            return NotImplemented
        return [(n, g, m.shape, m.tobytes()) for n, g, m in self.items()] == [
            (n, g, m.shape, m.tobytes()) for n, g, m in other.items()
        ]

    def __repr__(self):
        params = sum(m.size for _, m in self._entries.values())
        return f"ParamBundle({len(self._entries)} entries, {params} params)"


def _frozen_copy(name: str, values) -> np.ndarray:
    a = np.array(values, dtype=np.float64, order="C", copy=True)
    if a.ndim != 2 or a.size == 0:
        raise ShapeError(f"entry {name!r} must be a 2-D array with positive "
                         f"dimensions, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteError(f"entry {name!r} holds NaN or infinite values")
    a.flags.writeable = False
    return a


def save_bundle(bundle: ParamBundle, path) -> None:
    """Write the manifest-plus-blob bundle format described in the module docs."""
    manifest_lines = [_MAGIC]
    offset = 0
    # each frozen matrix is C-contiguous, so crc32 and write read its own
    # buffer: the bytes of tobytes() without a second copy of the model
    for name, group, matrix in bundle.items():
        crc = zlib.crc32(matrix) & 0xFFFFFFFF
        manifest_lines.append(
            f"entry {name} {group} {matrix.shape[0]} {matrix.shape[1]} {offset} {crc:08x}"
        )
        offset += matrix.nbytes
    manifest_lines.append(f"blob {offset}")
    header = ("\n".join(manifest_lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        for _, _, matrix in bundle.items():
            fh.write(matrix)


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
    if len(blob) > declared:
        raise MalformedManifestError(
            f"manifest declares a {declared}-byte blob but {len(blob)} bytes follow"
        )

    entries = []
    end = 0
    for line in lines[1:-1]:
        name, group, rows, cols, offset, crc = _parse_entry_line(line)
        if offset != end:
            raise MalformedManifestError(
                f"entry {name!r} starts at byte {offset}; the entries before "
                f"it end at byte {end}"
            )
        end = offset + rows * cols * 8
        if end > declared:
            raise TruncatedBlobError(
                f"entry {name!r} needs bytes [{offset}, {end}) "
                f"but the blob holds {declared}"
            )
        chunk = blob[offset:end]
        if (zlib.crc32(chunk) & 0xFFFFFFFF) != crc:
            raise ChecksumError(f"checksum mismatch for entry {name!r}")
        values = np.frombuffer(chunk, dtype="<f8").reshape(rows, cols)
        if not np.isfinite(values).all():
            raise BundleFormatError(f"entry {name!r} holds NaN or infinite values")
        entries.append((name, group, values))
    if end != declared:
        raise MalformedManifestError(
            f"manifest declares a {declared}-byte blob but its entries "
            f"cover {end} bytes"
        )
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


def save_record(record, path, **text) -> None:
    """Write a dataclass record as key=value lines in field order; a
    value is written as its f-string text unless `text` gives it."""
    lines = [f"{f.name}={text.get(f.name, getattr(record, f.name))}\n"
             for f in dataclasses.fields(record)]
    Path(path).write_text("".join(lines), encoding="ascii")


def load_record(path, record_type, **parse):
    """Read one `record_type` dataclass record from key=value lines.

    Blank and '#' lines are skipped.  A value is converted by
    `parse[key]`, else by the field's type; a missing field takes its
    default.  Raises InputError naming the file and the key for a line
    without '=', an unknown, repeated or missing key, or a value that
    its conversion or the record rejects.
    """
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    types = get_type_hints(record_type)
    values = {}
    for line in map(str.strip, lines):
        if not line or line.startswith("#"):
            continue
        key, sep, text = line.partition("=")
        key = key.strip()
        if not sep:
            raise InputError(f"{path}: line {line!r} is not key=value")
        if key not in types:
            raise InputError(f"{path}: unknown key {key!r}")
        if key in values:
            raise InputError(f"{path}: repeated key {key!r}")
        try:
            values[key] = parse.get(key, types[key])(text.strip())
        except ValueError as exc:
            raise InputError(f"{path}: bad value for {key!r}: {exc}") from exc
    for f in dataclasses.fields(record_type):
        if (f.name not in values and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise InputError(f"{path}: missing key {f.name!r}")
    try:
        return record_type(**values)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
