"""Binary file formats for embeddings and vectors.

Embedding files (magic BTE1), little-endian throughout:

    4s  magic
    u32 format version (1)
    u32 dim
    u32 n_tokens
    u32 n_attributes
    u64 seed
    u32 generator name length, then that many utf-8 bytes ("philox")
    32s sha256 of the canonical schema JSON
    u32 schema JSON length, then that many utf-8 bytes
    payload: token matrix rows, then attribute matrices in schema order,
             row-major float64

Vector files (magic BTV1):

    4s magic, u32 dim, 32s embedding fingerprint, then dim float64 values.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .embedding import GENERATOR_NAME, Embedding
from .exceptions import FileFormatError
from .schema import Schema
from .vectors import BTVector

EMBEDDING_MAGIC = b"BTE1"
VECTOR_MAGIC = b"BTV1"
FORMAT_VERSION = 1


def _read_exact(f, n: int, what: str) -> bytes:
    # a header field sizes this read, so check it against the file before allocating
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise FileFormatError(f"truncated file while reading {what}")
    buf = f.read(n)
    if len(buf) != n:
        raise FileFormatError(f"truncated file while reading {what}")
    return buf


def save_embedding(e: Embedding, path: str | Path) -> None:
    schema_json = e.schema.canonical_json().encode("utf-8")
    gen = GENERATOR_NAME.encode("utf-8")
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC)
        f.write(
            struct.pack(
                "<IIIIQ",
                FORMAT_VERSION,
                e.dim,
                e.schema.n_tokens,
                e.schema.n_attributes,
                e.seed,
            )
        )
        f.write(struct.pack("<I", len(gen)))
        f.write(gen)
        f.write(e.schema.digest())
        f.write(struct.pack("<I", len(schema_json)))
        f.write(schema_json)
        f.write(np.ascontiguousarray(e.token_vectors, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(e.attribute_matrices, dtype="<f8").tobytes())


def load_embedding(path: str | Path) -> Embedding:
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != EMBEDDING_MAGIC:
            raise FileFormatError("not an embedding file (bad magic)")
        version, dim, n_tok, n_attr, seed = struct.unpack(
            "<IIIIQ", _read_exact(f, 24, "header")
        )
        if version != FORMAT_VERSION:
            raise FileFormatError(f"unsupported format version {version}")
        (gen_len,) = struct.unpack("<I", _read_exact(f, 4, "generator length"))
        if _read_exact(f, gen_len, "generator name") != GENERATOR_NAME.encode("utf-8"):
            raise FileFormatError(f"unsupported generator, expected {GENERATOR_NAME!r}")
        digest = _read_exact(f, 32, "schema digest")
        (schema_len,) = struct.unpack("<I", _read_exact(f, 4, "schema length"))
        schema_json = _read_exact(f, schema_len, "schema").decode("utf-8")
        schema = Schema.from_dict(json.loads(schema_json))
        if schema.digest() != digest:
            raise FileFormatError("schema digest does not match embedded schema")
        if schema.n_tokens != n_tok or schema.n_attributes != n_attr:
            raise FileFormatError("header counts disagree with embedded schema")
        tok = np.frombuffer(
            _read_exact(f, n_tok * dim * 8, "token matrix"), dtype="<f8"
        ).reshape(n_tok, dim)
        mats = np.frombuffer(
            _read_exact(f, n_attr * dim * dim * 8, "attribute matrices"), dtype="<f8"
        ).reshape(n_attr, dim, dim)
        if f.read(1):
            raise FileFormatError("trailing bytes after payload")
    if not (np.isfinite(tok).all() and np.isfinite(mats).all()):
        raise FileFormatError("embedding payload holds NaN or infinite values")
    return Embedding(schema=schema, seed=seed, token_vectors=tok, attribute_matrices=mats)


def save_vector(v: BTVector, path: str | Path) -> None:
    with open(path, "wb") as f:
        f.write(VECTOR_MAGIC)
        f.write(struct.pack("<I", v.dim))
        f.write(bytes.fromhex(v.fingerprint))
        f.write(np.ascontiguousarray(v.data, dtype="<f8").tobytes())


def load_vector(path: str | Path) -> BTVector:
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != VECTOR_MAGIC:
            raise FileFormatError("not a vector file (bad magic)")
        (dim,) = struct.unpack("<I", _read_exact(f, 4, "dim"))
        fingerprint = _read_exact(f, 32, "fingerprint").hex()
        data = np.frombuffer(_read_exact(f, dim * 8, "payload"), dtype="<f8")
        if f.read(1):
            raise FileFormatError("trailing bytes after payload")
    if not np.isfinite(data).all():
        raise FileFormatError("vector payload holds NaN or infinite values")
    return BTVector(data, fingerprint)
