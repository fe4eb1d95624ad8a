"""Bundle files of named parameter matrices, and key=value record files.

Matrices throughout the library are plain 2-D float64 numpy arrays.  A
bundle is a list of (name, group, matrix) entries, each tagged with the
parameter group it belongs to (embedding / encoder / classifier); the
model's own arrays are its entries, so nothing holds a second copy of
the weights.  Values are checked at the file boundary: save_bundle
refuses any entry that load_bundle would reject (a name with
whitespace, an unknown group, a repeated name, an array that is not 2-D
with positive dimensions, NaN or infinite values), and load_bundle
checks every file it reads.

Bundle files are a text manifest followed by one concatenated binary blob:

    slimformer-bundle 1
    entry <name> <group> <rows> <cols> <byte-offset> <crc32-hex>
    ...
    blob <total-bytes>
    <raw little-endian float64 values, row-major, in entry order>

Entries are packed back to back: each offset is the summed size of the
entries before it, the blob is exactly their total, and the file ends
with the blob.  Entry names are unique.  The manifest is ASCII and
diffable; the blob is bit-exact on round trip.

The text files (a model's .config, a compression plan) hold one
dataclass record each, as key=value lines named by the record's fields;
save_record and load_record are their one codec.
"""

from __future__ import annotations

import dataclasses
import zlib
from pathlib import Path
from typing import get_type_hints

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


def save_bundle(entries, path) -> None:
    """Write (name, group, matrix) entries in the format of the module docs.

    Every entry is checked before the file is opened: MalformedManifestError
    for a name that is empty or holds whitespace, an unknown group or a
    repeated name, ShapeError for a matrix that is not 2-D with positive
    dimensions and NonFiniteError for NaN or infinite values.  Each matrix
    is written as row-major little-endian float64: a C-contiguous float64
    array is read in place, anything else (a bool mask) is converted one
    entry at a time.
    """
    entries = list(entries)
    manifest_lines = [_MAGIC]
    seen = set()
    offset = 0
    for name, group, matrix in entries:
        _claim(name, group, seen)
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.size == 0:
            raise ShapeError(f"entry {name!r} must be a 2-D array with positive "
                             f"dimensions, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise NonFiniteError(f"entry {name!r} holds NaN or infinite values")
        crc = zlib.crc32(np.ascontiguousarray(matrix, dtype="<f8")) & 0xFFFFFFFF
        manifest_lines.append(
            f"entry {name} {group} {matrix.shape[0]} {matrix.shape[1]} {offset} {crc:08x}"
        )
        offset += matrix.size * 8
    manifest_lines.append(f"blob {offset}")
    header = ("\n".join(manifest_lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        for _, _, matrix in entries:
            fh.write(np.ascontiguousarray(matrix, dtype="<f8"))


def load_bundle(path) -> list[tuple[str, str, np.ndarray]]:
    """The (name, group, matrix) entries of a bundle file, in file order.

    The file is read once; each matrix is a read-only view of that one
    buffer.  Raises a BundleFormatError for a bad structure, length,
    checksum, repeated name or non-finite value.
    """
    with open(path, "rb") as fh:
        raw = fh.read()

    lines, start = _split_header(raw)
    if not lines or lines[0] != _MAGIC:
        raise MalformedManifestError(f"bad magic line {lines[0]!r}" if lines else "empty file")

    blob = memoryview(raw)[start:]
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
    seen = set()
    end = 0
    for line in lines[1:-1]:
        name, group, rows, cols, offset, crc = _parse_entry_line(line)
        _claim(name, group, seen)
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
    return entries


def _claim(name: str, group: str, seen: set) -> None:
    """Add an entry's name to seen; MalformedManifestError for a name
    that is empty, holds whitespace or is already in seen, or a group
    not in GROUPS."""
    if not name or any(ch.isspace() for ch in name):
        raise MalformedManifestError(f"invalid entry name {name!r}")
    if group not in GROUPS:
        raise MalformedManifestError(
            f"unknown group {group!r} for entry {name!r}; expected one of {GROUPS}"
        )
    if name in seen:
        raise MalformedManifestError(f"duplicate entry name {name!r}")
    seen.add(name)


def _split_header(raw: bytes):
    # Header = ASCII lines through the "blob N" line; everything after is
    # blob, which starts at the returned byte position.
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
            return lines, pos


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
    try:
        rows, cols, offset = int(rows_s), int(cols_s), int(offset_s)
        crc = int(crc_s, 16)
    except ValueError as exc:
        raise MalformedManifestError(f"bad numeric field in {line!r}") from exc
    if rows < 1 or cols < 1 or offset < 0:
        raise MalformedManifestError(f"non-positive dimensions in {line!r}")
    return name, group, rows, cols, offset, crc


def save_record(record, path) -> None:
    """Write a dataclass record as key=value lines in field order, each
    value as its f-string text; every field's type must read that text
    back to an equal value, as int and float (shortest repr) do."""
    lines = [f"{f.name}={getattr(record, f.name)}\n"
             for f in dataclasses.fields(record)]
    Path(path).write_text("".join(lines), encoding="ascii")


def load_record(path, record_type):
    """Read one `record_type` dataclass record from key=value lines.

    Blank and '#' lines are skipped.  A value is converted by the
    field's type; a missing field takes its default.  Raises InputError
    naming the file and the key for a line without '=', an unknown,
    repeated or missing key, or a value that its conversion or the
    record rejects.
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
            values[key] = types[key](text.strip())
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
