from __future__ import annotations

import os

# one BLAS thread, as every bitwise check is made, set before numpy loads;
# an explicit setting in the environment wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import struct

import numpy as np
import pytest

from btembed import balanced_parens_grammar, balanced_parens_schema, compile_rules
from btembed import Embedding, make_embedding, make_sweep_schema, save_embedding

acceptance_lines: list[str] = []
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def record_acceptance():
    def _record(line: str) -> None:
        acceptance_lines.append(line)
        print(line)

    return _record


def pytest_terminal_summary(terminalreporter) -> None:
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    # the thread count decides which d = 1000 and 2000 embeddings get sampled
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS)
    terminalreporter.write_line(f"BLAS threads: {threads}; cpu_count={os.cpu_count()}")
    for line in acceptance_lines:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def emb_small():
    # 10 data tokens, 2 attributes, roomy enough for size <= 8 round trips
    return make_embedding(make_sweep_schema(10, 2), 512, 7)


@pytest.fixture(scope="session")
def emb_paths():
    # 30 data tokens, 3 attributes, used by transformer path tests
    return make_embedding(make_sweep_schema(30, 3), 1000, 5)


@pytest.fixture(scope="session")
def parens_embedding():
    return make_embedding(balanced_parens_schema(), 1000, 9)


@pytest.fixture(scope="session")
def parens_ruleset(parens_embedding):
    return compile_rules(parens_embedding, balanced_parens_grammar())


@pytest.fixture(scope="session")
def counting():
    """counting(e) is (e', count): e' is e with attribute matrices that add
    each matrix-vector product they run, a rotation or a bind, to count[0];
    the decoder's table builds multiply matrices by matrices and are not
    counted. e' has memos of its own, empty until used."""

    def wrap(e: Embedding) -> tuple[Embedding, list[int]]:
        count = [0]

        class Counting(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                count[0] += ufunc is np.matmul and np.ndim(inputs[1]) == 1
                return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

        return Embedding(e.schema, e.seed, e.token_vectors, e.attribute_matrices.view(Counting)), count

    return wrap


@pytest.fixture(scope="session")
def write_bte():
    """Write a well-formed .bte of any dim, which no Embedding below dim 2 can save."""

    def write(path, dim: int):
        save_embedding(make_embedding(make_sweep_schema(2, 1), 2, 0), path)
        raw = bytearray(path.read_bytes()[: -8 * (3 * 2 + 1 * 2 * 2)])  # drop the d = 2 payload
        struct.pack_into("<I", raw, 8, dim)  # after the magic and the version
        path.write_bytes(bytes(raw) + np.ones(3 * dim + 1 * dim * dim).tobytes())
        return path

    return write


@pytest.fixture(scope="session")
def rng_factory():
    def make(seed) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
