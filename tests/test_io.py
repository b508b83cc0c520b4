from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btembed import (
    BTError,
    BTVector,
    DimensionTooSmallError,
    FileFormatError,
    Tree,
    bt_encode,
    load_embedding,
    load_vector,
    make_embedding,
    make_sweep_schema,
    save_embedding,
    save_vector,
)
from btembed.io import EMBEDDING_MAGIC, FORMAT_VERSION, VECTOR_MAGIC


@pytest.fixture(scope="module")
def emb():
    return make_embedding(make_sweep_schema(6, 2), 96, 31)


class TestEmbeddingFile:
    def test_round_trip(self, emb, tmp_path):
        p = tmp_path / "e.bte"
        save_embedding(emb, p)
        back = load_embedding(p)
        assert back.schema == emb.schema
        assert back.seed == emb.seed
        assert back.dim == emb.dim
        assert back.fingerprint == emb.fingerprint
        np.testing.assert_array_equal(back.token_vectors, emb.token_vectors)
        np.testing.assert_array_equal(back.attribute_matrices, emb.attribute_matrices)

    @pytest.mark.parametrize("dim", [0, 1])
    def test_dim_below_2_raises(self, tmp_path, write_bte, dim):
        # the loader gives the same error as make_embedding for a dim it refuses
        with pytest.raises(DimensionTooSmallError, match=f"got {dim}"):
            load_embedding(write_bte(tmp_path / "small.bte", dim))

    def test_loaded_arrays_are_read_only(self, emb, tmp_path):
        p = tmp_path / "e.bte"
        save_embedding(emb, p)
        back = load_embedding(p)
        with pytest.raises(ValueError):
            back.token_vectors[0, 0] = 1.0
        with pytest.raises(ValueError):
            back.attribute_matrices[0, 0, 0] = 1.0
        q = tmp_path / "v.btv"
        save_vector(bt_encode(emb, Tree(1)), q)
        with pytest.raises(ValueError):
            load_vector(q).data[0] = 1.0

    def test_header_layout(self, emb, tmp_path):
        p = tmp_path / "e.bte"
        save_embedding(emb, p)
        raw = p.read_bytes()
        assert raw[:4] == EMBEDDING_MAGIC
        version, dim, n_tokens, n_attrs, seed = struct.unpack_from("<IIIIQ", raw, 4)
        assert version == FORMAT_VERSION
        assert (dim, n_tokens, n_attrs) == (96, 8, 2)
        assert seed == 31
        (gen_len,) = struct.unpack_from("<I", raw, 28)
        assert raw[32 : 32 + gen_len] == b"philox"
        digest_off = 32 + gen_len
        assert raw[digest_off : digest_off + 32] == emb.schema.digest()

    def test_payload_is_little_endian_f64(self, emb, tmp_path):
        p = tmp_path / "e.bte"
        save_embedding(emb, p)
        raw = p.read_bytes()
        n_floats = 8 * 96 + 2 * 96 * 96
        tail = np.frombuffer(raw[-8 * n_floats :], dtype="<f8")
        np.testing.assert_array_equal(tail[: 8 * 96], emb.token_vectors.ravel())

    def test_save_is_deterministic(self, emb, tmp_path):
        a, b = tmp_path / "a.bte", tmp_path / "b.bte"
        save_embedding(emb, a)
        save_embedding(emb, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, emb, tmp_path):
        p = tmp_path / "e.bte"
        save_embedding(emb, p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            load_embedding(p)

    def test_bad_version(self, emb, tmp_path):
        p = tmp_path / "e.bte"
        save_embedding(emb, p)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<I", raw, 4, 99)
        p.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            load_embedding(p)

    def test_truncated(self, emb, tmp_path):
        p = tmp_path / "e.bte"
        save_embedding(emb, p)
        p.write_bytes(p.read_bytes()[:-17])
        with pytest.raises(FileFormatError):
            load_embedding(p)

    def test_trailing_garbage(self, emb, tmp_path):
        p = tmp_path / "e.bte"
        save_embedding(emb, p)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FileFormatError):
            load_embedding(p)

    def test_unknown_generator(self, emb, tmp_path):
        p = tmp_path / "e.bte"
        save_embedding(emb, p)
        raw = bytearray(p.read_bytes())
        raw[32 : 32 + len(b"philox")] = b"mt1993"
        p.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="generator"):
            load_embedding(p)

    def test_header_sizes_checked_before_reading(self, emb, tmp_path):
        # a dim this large would make the payload reads ask for 275 GB
        p = tmp_path / "e.bte"
        save_embedding(emb, p)
        raw = bytearray(p.read_bytes())
        struct.pack_into("<I", raw, 8, 2**32 - 1)
        p.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            load_embedding(p)

    def test_digest_mismatch(self, emb, tmp_path):
        p = tmp_path / "e.bte"
        save_embedding(emb, p)
        raw = bytearray(p.read_bytes())
        digest_off = 32 + len(b"philox")
        raw[digest_off] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError):
            load_embedding(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", ["token matrix", "attribute matrices"])
    def test_non_finite_payload(self, emb, tmp_path, bad, block):
        p = tmp_path / "e.bte"
        save_embedding(emb, p)
        raw = bytearray(p.read_bytes())
        tokens = 8 * emb.schema.n_tokens * emb.dim
        matrices = 8 * emb.schema.n_attributes * emb.dim**2
        start = {"token matrix": len(raw) - matrices - tokens, "attribute matrices": len(raw) - matrices}
        struct.pack_into("<d", raw, start[block] + 40, bad)  # the sixth entry of the block
        p.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError, match="NaN or infinite"):
            load_embedding(p)


class TestVectorFile:
    def test_round_trip(self, emb, tmp_path):
        v = bt_encode(emb, Tree.make(0, {0: Tree(1), 1: Tree(2)}))
        p = tmp_path / "v.btv"
        save_vector(v, p)
        back = load_vector(p)
        np.testing.assert_array_equal(back.data, v.data)
        assert back.fingerprint == v.fingerprint

    def test_header(self, emb, tmp_path):
        v = bt_encode(emb, Tree(3))
        p = tmp_path / "v.btv"
        save_vector(v, p)
        raw = p.read_bytes()
        assert raw[:4] == VECTOR_MAGIC
        (dim,) = struct.unpack_from("<I", raw, 4)
        assert dim == 96
        assert len(raw) == 4 + 4 + 32 + 96 * 8

    def test_bad_magic(self, emb, tmp_path):
        p = tmp_path / "v.btv"
        save_vector(bt_encode(emb, Tree(0)), p)
        p.write_bytes(b"YYYY" + p.read_bytes()[4:])
        with pytest.raises(FileFormatError):
            load_vector(p)

    def test_header_sized_payload(self, tmp_path):
        # 48 bytes that declare 2**32 - 1 floats: refused before any allocation
        p = tmp_path / "v.btv"
        p.write_bytes(VECTOR_MAGIC + struct.pack("<I", 2**32 - 1) + bytes(32) + bytes(8))
        with pytest.raises(FileFormatError):
            load_vector(p)

    def test_truncated(self, emb, tmp_path):
        p = tmp_path / "v.btv"
        save_vector(bt_encode(emb, Tree(0)), p)
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(FileFormatError):
            load_vector(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, emb, tmp_path, bad):
        data = bt_encode(emb, Tree(0)).data.copy()
        data[5] = bad
        p = tmp_path / "v.btv"
        save_vector(BTVector(data, emb.fingerprint), p)
        with pytest.raises(FileFormatError, match="NaN or infinite"):
            load_vector(p)


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    """The bytes of a d = 4 .bte and of a .btv made with it, and a directory for the cases."""
    e = make_embedding(make_sweep_schema(3, 2), 4, 17)
    root = tmp_path_factory.mktemp("fuzz")
    save_embedding(e, root / "tiny.bte")
    save_vector(bt_encode(e, Tree.make(0, {0: Tree(1)})), root / "tiny.btv")
    return root, {kind: (root / f"tiny.{kind}").read_bytes() for kind in FORMATS}


FORMATS = {"bte": (load_embedding, save_embedding), "btv": (load_vector, save_vector)}


def load_or_refuse(root, kind: str, blob: bytes) -> None:
    """Load blob: it must raise a typed error, or save back to the very same bytes."""
    load, save = FORMATS[kind]
    case, again = root / f"case.{kind}", root / f"again.{kind}"
    case.write_bytes(blob)
    try:
        loaded = load(case)
    except (BTError, ValueError):
        return
    save(loaded, again)
    assert again.read_bytes() == blob


class TestDamagedFiles:
    """Truncations and single-bit flips of both formats end in a BTError or a
    ValueError, or load to what saves back to the same bytes."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(FORMATS)), data=st.data())
    def test_truncation(self, tiny_files, kind, data):
        root, blobs = tiny_files
        cut = data.draw(st.integers(0, len(blobs[kind]) - 1))
        load_or_refuse(root, kind, blobs[kind][:cut])

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(kind=st.sampled_from(sorted(FORMATS)), data=st.data())
    def test_bit_flip(self, tiny_files, kind, data):
        root, blobs = tiny_files
        raw = bytearray(blobs[kind])
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        raw[bit // 8] ^= 1 << (bit % 8)
        load_or_refuse(root, kind, bytes(raw))
