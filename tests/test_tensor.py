import zlib

import numpy as np
import pytest

from slimformer.errors import (
    BundleFormatError,
    ChecksumError,
    MalformedManifestError,
    NonFiniteError,
    ShapeError,
    TruncatedBlobError,
)
from slimformer.budget import ShapeTable
from slimformer.tensor import GROUPS, ParamBundle, load_bundle, save_bundle


def _one(values):
    return ParamBundle([("w", "encoder", values)])


def test_bundle_rejects_nonfinite_and_bad_shape():
    with pytest.raises(NonFiniteError):
        _one([[1.0, np.nan]])
    with pytest.raises(NonFiniteError):
        _one([[np.inf]])
    with pytest.raises(ShapeError):
        _one([1.0, 2.0])
    with pytest.raises(ShapeError):
        _one(np.zeros((0, 3)))


def test_bundle_entries_are_read_only_copies():
    src = np.array([[1.0, 2.0], [3.0, 4.0]], order="F")
    m = _one(src).matrix("w")
    with pytest.raises(ValueError):
        m[0, 0] = 2.0
    assert m.dtype == np.float64 and m.flags.c_contiguous
    src[0, 0] = 9.0  # the caller's array stays writable and unshared
    assert m[0, 0] == 1.0


def _toy_bundle():
    return ParamBundle(
        [
            ("emb", "embedding", np.arange(6.0).reshape(2, 3)),
            ("enc", "encoder", np.arange(20.0).reshape(4, 5)),
            ("head", "classifier", np.array([[1.0], [2.0]])),
        ]
    )


def test_group_counts_sum_to_total():
    rng = np.random.default_rng(3)
    entries = []
    for i in range(9):
        g = ["embedding", "encoder", "classifier"][i % 3]
        entries.append((f"m{i}", g, rng.normal(size=(i + 1, 2))))
    table = ShapeTable((n, g, *m.shape) for n, g, m in ParamBundle(entries).items())
    assert sum(table.group_total(g) for g in GROUPS) == table.group_total()


def test_bundle_rejects_bad_names_and_groups():
    m = np.array([[1.0]])
    with pytest.raises(MalformedManifestError):
        ParamBundle([("has space", "encoder", m)])
    with pytest.raises(MalformedManifestError):
        ParamBundle([("w", "decoder", m)])
    with pytest.raises(MalformedManifestError):
        ParamBundle([("w", "encoder", m), ("w", "encoder", m)])


def test_bundle_round_trip(tmp_path):
    b = _toy_bundle()
    path = tmp_path / "toy.bundle"
    save_bundle(b, path)
    assert load_bundle(path) == b


def test_round_trip_bit_exact_random_bundles(tmp_path):
    rng = np.random.default_rng(11)
    for trial in range(25):
        entries = []
        for i in range(rng.integers(1, 5)):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            g = ["embedding", "encoder", "classifier"][int(rng.integers(3))]
            vals = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 8)
            entries.append((f"t{trial}_m{i}", g, vals))
        b = ParamBundle(entries)
        path = tmp_path / f"r{trial}.bundle"
        save_bundle(b, path)
        loaded = load_bundle(path)
        for (n1, g1, m1), (n2, g2, m2) in zip(b.items(), loaded.items()):
            assert (n1, g1) == (n2, g2)
            assert m1.tobytes() == m2.tobytes()


def test_load_truncated_blob(tmp_path):
    path = tmp_path / "bad.bundle"
    header = "slimformer-bundle 1\nentry w encoder 4 4 0 00000000\nblob 128\n"
    path.write_bytes(header.encode() + b"\x00" * (12 * 8))
    with pytest.raises(TruncatedBlobError):
        load_bundle(path)


def test_load_unknown_group(tmp_path):
    b = ParamBundle([("w", "encoder", np.array([[1.0]]))])
    path = tmp_path / "g.bundle"
    save_bundle(b, path)
    data = path.read_bytes().replace(b" encoder ", b" decoder ")
    path.write_bytes(data)
    with pytest.raises(MalformedManifestError):
        load_bundle(path)


def test_load_checksum_mismatch(tmp_path):
    b = ParamBundle([("w", "encoder", np.array([[1.0, 2.0]]))])
    path = tmp_path / "c.bundle"
    save_bundle(b, path)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # corrupt the blob, keep the manifest
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumError):
        load_bundle(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "tail.bundle"
    save_bundle(_toy_bundle(), path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(MalformedManifestError):
        load_bundle(path)


def test_load_malformed_manifest(tmp_path):
    path = tmp_path / "m.bundle"
    path.write_bytes(b"not-a-bundle\nblob 0\n")
    with pytest.raises(MalformedManifestError):
        load_bundle(path)


def _rewrite_entry(path, index, offset, crc):
    """Set the offset and checksum fields of the index-th manifest entry."""
    lines = path.read_bytes().split(b"\n")
    fields = lines[1 + index].split(b" ")
    fields[5], fields[6] = str(offset).encode(), crc.encode()
    lines[1 + index] = b" ".join(fields)
    path.write_bytes(b"\n".join(lines))


def _crc_of(path, index):
    return path.read_bytes().split(b"\n")[1 + index].split(b" ")[6].decode()


def test_load_rejects_aliasing_offsets(tmp_path):
    # the second entry points at the first one's bytes, with its checksum
    b = ParamBundle([("a", "encoder", np.ones((2, 2))),
                     ("b", "encoder", np.zeros((2, 2)))])
    path = tmp_path / "alias.bundle"
    save_bundle(b, path)
    _rewrite_entry(path, 1, 0, _crc_of(path, 0))
    with pytest.raises(MalformedManifestError):
        load_bundle(path)


def test_load_rejects_gaps(tmp_path):
    b = ParamBundle([("a", "encoder", np.ones((1, 2)))])
    path = tmp_path / "gap.bundle"
    save_bundle(b, path)
    data = path.read_bytes().replace(b"blob 16\n", b"blob 24\n") + bytes(8)
    path.write_bytes(data)
    with pytest.raises(MalformedManifestError):
        load_bundle(path)


def test_load_rejects_nonfinite_payload(tmp_path):
    # a NaN under a matching checksum is a bad file, not a numeric failure
    path = tmp_path / "nan.bundle"
    save_bundle(ParamBundle([("w", "encoder", np.ones((1, 2)))]), path)
    nan = np.array([[1.0, np.nan]]).tobytes()
    data = path.read_bytes()[:-16] + nan
    path.write_bytes(data)
    _rewrite_entry(path, 0, 0, f"{zlib.crc32(nan) & 0xFFFFFFFF:08x}")
    with pytest.raises(BundleFormatError):
        load_bundle(path)
