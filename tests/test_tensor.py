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
from slimformer.tensor import GROUPS, load_bundle, save_bundle


def _refused(tmp_path, entries, error):
    """save_bundle raises `error` for entries and writes no file."""
    path = tmp_path / "refused.bundle"
    with pytest.raises(error):
        save_bundle(entries, path)
    assert not path.exists()


def test_bundle_rejects_nonfinite_and_bad_shape(tmp_path):
    for values, error in (([[1.0, np.nan]], NonFiniteError),
                          ([[np.inf]], NonFiniteError),
                          ([1.0, 2.0], ShapeError),
                          (np.zeros((0, 3)), ShapeError),
                          (np.ones((2, 2, 2)), ShapeError)):
        _refused(tmp_path, [("ok", "encoder", np.ones((1, 1))),
                            ("w", "encoder", values)], error)


def test_bundle_rejects_bad_names_and_groups(tmp_path):
    m = np.array([[1.0]])
    for entries in ([("has space", "encoder", m)],
                    [("tab\t", "encoder", m)],
                    [("", "encoder", m)],
                    [("w", "decoder", m)],
                    [("w", "encoder", m), ("w", "encoder", m)]):
        _refused(tmp_path, entries, MalformedManifestError)


def test_save_writes_any_layout_and_bool_as_float64(tmp_path):
    """A Fortran-order or strided matrix is written as its row-major
    float64 values, and a bool mask as 1.0 / 0.0; the caller's arrays
    are left as they were."""
    f = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    strided = np.arange(24.0).reshape(4, 6)[::2, ::3]
    mask = np.array([[True, False, True]])
    path = tmp_path / "layouts.bundle"
    save_bundle([("f", "encoder", f), ("s", "encoder", strided),
                 ("m", "encoder", mask)], path)
    loaded = load_bundle(path)
    assert [(n, m.tobytes()) for n, _, m in loaded] == [
        ("f", np.ascontiguousarray(f).tobytes()),
        ("s", np.ascontiguousarray(strided).tobytes()),
        ("m", np.array([[1.0, 0.0, 1.0]]).tobytes())]
    assert mask.dtype == np.bool_ and f.flags.f_contiguous


def test_loaded_entries_are_read_only_views_of_one_buffer(tmp_path):
    path = tmp_path / "views.bundle"
    save_bundle(_toy_bundle(), path)
    loaded = load_bundle(path)
    for _, _, m in loaded:
        assert m.dtype == np.float64 and m.flags.c_contiguous
        with pytest.raises(ValueError):
            m[0, 0] = 2.0
    # each entry starts where the one before it ends
    starts = [m.__array_interface__["data"][0] for _, _, m in loaded]
    assert starts[1:] == [s + m.nbytes for s, (_, _, m)
                          in zip(starts, loaded)][:-1]


def test_load_rejects_duplicate_names(tmp_path):
    path = tmp_path / "dup.bundle"
    save_bundle([("a", "encoder", np.ones((1, 2))),
                 ("b", "encoder", np.ones((1, 2)))], path)
    path.write_bytes(path.read_bytes().replace(b"entry b ", b"entry a "))
    with pytest.raises(MalformedManifestError, match="duplicate"):
        load_bundle(path)


def _toy_bundle():
    return [
        ("emb", "embedding", np.arange(6.0).reshape(2, 3)),
        ("enc", "encoder", np.arange(20.0).reshape(4, 5)),
        ("head", "classifier", np.array([[1.0], [2.0]])),
    ]


def _same(a, b):
    """Equal names, groups, shapes and bytes, entry by entry."""
    return [(n, g, m.shape, m.tobytes()) for n, g, m in a] == [
        (n, g, m.shape, m.tobytes()) for n, g, m in b]


def test_group_counts_sum_to_total():
    rng = np.random.default_rng(3)
    entries = []
    for i in range(9):
        g = ["embedding", "encoder", "classifier"][i % 3]
        entries.append((f"m{i}", g, rng.normal(size=(i + 1, 2))))
    table = ShapeTable((n, g, *m.shape) for n, g, m in entries)
    assert sum(table.group_total(g) for g in GROUPS) == table.group_total()


def test_bundle_round_trip(tmp_path):
    b = _toy_bundle()
    path = tmp_path / "toy.bundle"
    save_bundle(b, path)
    assert _same(load_bundle(path), b)


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
        path = tmp_path / f"r{trial}.bundle"
        save_bundle(entries, path)
        assert _same(load_bundle(path), entries)


def test_load_truncated_blob(tmp_path):
    path = tmp_path / "bad.bundle"
    header = "slimformer-bundle 1\nentry w encoder 4 4 0 00000000\nblob 128\n"
    path.write_bytes(header.encode() + b"\x00" * (12 * 8))
    with pytest.raises(TruncatedBlobError):
        load_bundle(path)


def test_load_unknown_group(tmp_path):
    b = [("w", "encoder", np.array([[1.0]]))]
    path = tmp_path / "g.bundle"
    save_bundle(b, path)
    data = path.read_bytes().replace(b" encoder ", b" decoder ")
    path.write_bytes(data)
    with pytest.raises(MalformedManifestError):
        load_bundle(path)


def test_load_checksum_mismatch(tmp_path):
    b = [("w", "encoder", np.array([[1.0, 2.0]]))]
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
    b = [("a", "encoder", np.ones((2, 2))),
         ("b", "encoder", np.zeros((2, 2)))]
    path = tmp_path / "alias.bundle"
    save_bundle(b, path)
    _rewrite_entry(path, 1, 0, _crc_of(path, 0))
    with pytest.raises(MalformedManifestError):
        load_bundle(path)


def test_load_rejects_gaps(tmp_path):
    b = [("a", "encoder", np.ones((1, 2)))]
    path = tmp_path / "gap.bundle"
    save_bundle(b, path)
    data = path.read_bytes().replace(b"blob 16\n", b"blob 24\n") + bytes(8)
    path.write_bytes(data)
    with pytest.raises(MalformedManifestError):
        load_bundle(path)


def test_load_rejects_nonfinite_payload(tmp_path):
    # a NaN under a matching checksum is a bad file, not a numeric failure
    path = tmp_path / "nan.bundle"
    save_bundle([("w", "encoder", np.ones((1, 2)))], path)
    nan = np.array([[1.0, np.nan]]).tobytes()
    data = path.read_bytes()[:-16] + nan
    path.write_bytes(data)
    _rewrite_entry(path, 0, 0, f"{zlib.crc32(nan) & 0xFFFFFFFF:08x}")
    with pytest.raises(BundleFormatError):
        load_bundle(path)
