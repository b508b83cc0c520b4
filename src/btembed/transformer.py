"""A fixed-weight transformer that walks attribute paths in embedding space.

The decoder runs n slots for a length n-1 path, at most CONTEXT = 64 slots,
so a path of at most 63 steps. Slots concatenate five channels: position
code p (CONTEXT wide), working vector v, relay w, path r, and output t (d
wide each). The prompt gives each slot its own input embedding,
built outside the network: in p the one-hot code p_i = e_i = Z^(i-1) e_1,
with Z the cyclic shift, and in r the token of the attribute that leads into
slot i (zero in slot 1, the root). Slot 1's v holds the query. Every block
moves each slot's working vector one step down the path and deposits the
decoded token into the slot's output channel; slot i's token settles at block
i, so the block is applied n times. No block writes p or r. All nonlinearity
lives in the two feed-forward passes; attention only routes w forward by one
slot under a strict causal mask. It reads its queries and keys from the
state's p channel, q_i = Z^-1 p_i and k_j = p_j, as the exported Wq and Wk
do. Distinct codes are orthogonal, so q_i matches p_(i-1) alone: attention
puts weight 1.0 on it and exp(-sharpness) on each other earlier slot.

The structured evaluator computes what the dense export computes, but ffn1
takes M_j^T v only for the (slot, attribute) pairs whose gate can pass it (in
practice the one slot holding a live working vector, against its open gate);
the pairs it skips provably add exactly 0.0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .decoder import decode_token
from .embedding import Embedding
from .exceptions import PathTooLongError
from .vectors import THRESHOLD, BTVector


# Slots in the context, and the width of their one-hot position codes.
CONTEXT = 64


@dataclass(frozen=True)
class XfConfig:
    attn_sharpness: float = 100.0
    gate_constant: float = 1e4


@dataclass(frozen=True)
class SeqState:
    """Slot matrix split by channel; rows are slots."""

    pos: np.ndarray
    v: np.ndarray
    w: np.ndarray
    r: np.ndarray
    t: np.ndarray

    def as_matrix(self) -> np.ndarray:
        return np.concatenate([self.pos, self.v, self.w, self.r, self.t], axis=1)


def init_state(e: Embedding, v: BTVector, path: Sequence[int | str]) -> SeqState:
    """The prompt: one-hot codes in p, the query in slot 1's v, and in r one path token per slot.

    Slot i holds the code p_i = e_i of width CONTEXT, so any two codes are
    orthogonal; n > CONTEXT slots raise PathTooLongError. Slot i >= 2 holds in r
    the token of the (i-1)-th path attribute, gathered from the token table.
    Slot 1's r is zero, as the root label needs no step.
    """
    n = len(path) + 1
    if n > CONTEXT:
        raise PathTooLongError(f"{n} slots exceed the context of {CONTEXT}")
    data = e.check(v)
    tokens = [e.schema.attribute_token_indices[e.schema.attribute_index(a)] for a in path]
    d = e.dim
    vm = np.zeros((n, d))
    vm[0] = data
    rm = np.zeros((n, d))
    rm[1:] = e.token_vectors[tokens]
    return SeqState(pos=np.eye(n, CONTEXT), v=vm, w=np.zeros((n, d)), r=rm, t=np.zeros((n, d)))


def attention_matrix(pos: np.ndarray, cfg: XfConfig) -> np.ndarray:
    """Softmax weights over j < i for the codes in pos; row 1 is identically zero by definition."""
    n = pos.shape[0]
    queries = np.roll(pos, -1, axis=1)  # row i holds (Z^-1 p_i)^T = p_i^T Z
    logits = cfg.attn_sharpness * (queries @ pos.T)
    mask = np.tril(np.ones((n, n), dtype=bool), k=-1)
    weights = np.zeros((n, n))
    masked = np.where(mask, logits, -np.inf)[1:]
    masked -= masked.max(axis=1, keepdims=True)
    expd = np.exp(masked)
    weights[1:] = expd / expd.sum(axis=1, keepdims=True)
    return weights


def attention_step(state: SeqState, cfg: XfConfig) -> SeqState:
    """Each slot pulls its predecessor's relay into v.

    Value vectors carry (0, w_j, 0, 0, 0); the residual keeps everything else
    in place. r needs no route, as the prompt gave each slot its own path
    token. The mask is strictly causal, so slot 1 receives nothing.
    """
    return replace(state, v=state.v + attention_matrix(state.pos, cfg) @ state.w)


def ffn1(state: SeqState, e: Embedding, cfg: XfConfig) -> SeqState:
    """Gate on the path head and advance the working vector into w.

    y_j = C(<attr_j, r> - THRESHOLD) saturates each gate; the gated relu pair
    passes M_j^T v - v only where the head matches, and the trailing relu
    pair cancels the residual w exactly, so w ends as f1.

    s = M_j^T v_i is computed only for the (slot i, attribute j) pairs whose
    term relu(y + s - v) - relu(y) can be nonzero. M_j is orthogonal, so every
    entry of s - v is at most 2|v| in size (the third |v| below covers
    rounding), and the term is exactly 0.0 in floating point when the gate is
    - shut, y <= -3|v|: every relu input is negative; or
    - flat, y >= 3|v| and 3|v| < spacing(y)/4: y + s - v rounds back to y.
    A blank slot (v = 0) is always one or the other, and so is the ~1e-44
    leakage that attention's softmax leaves in v beside the live slot.
    """
    c = cfg.gate_constant
    attr_rows = e.token_vectors[list(e.schema.attribute_token_indices)]
    gates = c * (state.r @ attr_rows.T - THRESHOLD)  # slots x attributes
    f1 = np.maximum(state.v, 0.0) - np.maximum(-state.v, 0.0)
    bound = 3.0 * np.linalg.norm(state.v, axis=1, keepdims=True)
    live = (gates > -bound) & ((gates < bound) | (bound >= np.spacing(gates) / 4.0))
    for j in range(e.schema.n_attributes):
        rows = np.flatnonzero(live[:, j])
        v = state.v[rows]
        yj = gates[rows, j : j + 1]
        stepped = v @ e.attribute_matrices[j]  # rows M_j^T v_i
        f1[rows] += np.maximum(yj + stepped - v, 0.0) - np.maximum(yj, 0.0)
    return replace(state, w=f1)


def ffn2(state: SeqState, e: Embedding, cfg: XfConfig) -> SeqState:
    """Read w's token into the output channel and clear v.

    z = C(E w - THRESHOLD); relu(z+1) - relu(z) is a saturated indicator per
    token, so t gains exactly the decoded token vector. The relu pair on v
    cancels the residual, leaving v zero for the next block's delivery.
    """
    c = cfg.gate_constant
    z = c * (state.w @ e.token_vectors.T - THRESHOLD)  # slots x tokens
    indicator = np.maximum(z + 1.0, 0.0) - np.maximum(z, 0.0)
    new_t = state.t + indicator @ e.token_vectors
    new_v = state.v - np.maximum(state.v, 0.0) + np.maximum(-state.v, 0.0)
    return replace(state, v=new_v, t=new_t)


def block(state: SeqState, e: Embedding, cfg: XfConfig) -> SeqState:
    return ffn2(ffn1(attention_step(state, cfg), e, cfg), e, cfg)


def run_decoder(
    e: Embedding,
    v: BTVector,
    path: Sequence[int | str],
    cfg: XfConfig = XfConfig(),
) -> list[int | None]:
    """Decode the labels along a path with n block applications.

    Returns one entry per slot: slot 1 is the root label, slot i the label
    after following the first i-1 path attributes.
    """
    n = len(path) + 1
    state = init_state(e, v, path)
    for _ in range(n):
        state = block(state, e, cfg)
    return [decode_token(e, state.t[i]) for i in range(n)]


def export_weights(e: Embedding, cfg: XfConfig) -> dict[str, np.ndarray]:
    """Materialize the block as dense tensors over the full slot width.

    Channel layout along the width: [p | v | w | r | t]. The attention value
    map and both feed-forward affine pairs reproduce the structured evaluator
    bit for bit; x + out @ relu(lin @ x + bias) applies an FFN. Each tensor is
    dense over the slot width CONTEXT + 4d (Wv is its square), so exporting is
    meant for small d.
    """
    k, d = CONTEXT, e.dim
    n_attrs, n_tokens = e.schema.n_attributes, e.schema.n_tokens
    s = k + 4 * d
    pv, vv, wv, rv, tv = 0, k, k + d, k + 2 * d, k + 3 * d
    c = cfg.gate_constant
    attr_rows = e.token_vectors[list(e.schema.attribute_token_indices)]

    wq = np.zeros((k, s))
    wq[:, pv : pv + k] = np.roll(np.eye(k), -1, axis=0)  # Z^-1 = Z^T, Z the cyclic shift
    wk = np.zeros((k, s))
    wk[:, pv : pv + k] = np.eye(k)
    wval = np.zeros((s, s))
    wval[vv : vv + d, wv : wv + d] = np.eye(d)

    h1 = 4 * d + n_attrs * (d + 1)
    f1_lin = np.zeros((h1, s))
    f1_bias = np.zeros(h1)
    f1_out = np.zeros((s, h1))
    f1_lin[0:d, vv : vv + d] = np.eye(d)
    f1_lin[d : 2 * d, vv : vv + d] = -np.eye(d)
    f1_out[wv : wv + d, 0:d] = np.eye(d)
    f1_out[wv : wv + d, d : 2 * d] = -np.eye(d)
    row = 2 * d
    for j in range(n_attrs):
        f1_lin[row : row + d, vv : vv + d] = e.attribute_matrices[j].T - np.eye(d)
        f1_lin[row : row + d, rv : rv + d] = c * attr_rows[j]
        f1_bias[row : row + d] = -c * THRESHOLD
        f1_out[wv : wv + d, row : row + d] = np.eye(d)
        f1_lin[row + d, rv : rv + d] = c * attr_rows[j]
        f1_bias[row + d] = -c * THRESHOLD
        f1_out[wv : wv + d, row + d] = -1.0
        row += d + 1
    f1_lin[row : row + d, wv : wv + d] = np.eye(d)
    f1_out[wv : wv + d, row : row + d] = -np.eye(d)
    f1_lin[row + d : row + 2 * d, wv : wv + d] = -np.eye(d)
    f1_out[wv : wv + d, row + d : row + 2 * d] = np.eye(d)

    h2 = 2 * n_tokens + 2 * d
    f2_lin = np.zeros((h2, s))
    f2_bias = np.zeros(h2)
    f2_out = np.zeros((s, h2))
    f2_lin[0:n_tokens, wv : wv + d] = c * e.token_vectors
    f2_bias[0:n_tokens] = -c * THRESHOLD + 1.0
    f2_lin[n_tokens : 2 * n_tokens, wv : wv + d] = c * e.token_vectors
    f2_bias[n_tokens : 2 * n_tokens] = -c * THRESHOLD
    f2_out[tv : tv + d, 0:n_tokens] = e.token_vectors.T
    f2_out[tv : tv + d, n_tokens : 2 * n_tokens] = -e.token_vectors.T
    f2_lin[2 * n_tokens : 2 * n_tokens + d, vv : vv + d] = np.eye(d)
    f2_out[vv : vv + d, 2 * n_tokens : 2 * n_tokens + d] = -np.eye(d)
    f2_lin[2 * n_tokens + d : h2, vv : vv + d] = -np.eye(d)
    f2_out[vv : vv + d, 2 * n_tokens + d : h2] = np.eye(d)

    return {
        "Wq": wq,
        "Wk": wk,
        "Wv": wval,
        "f1_lin": f1_lin,
        "f1_bias": f1_bias,
        "f1_out": f1_out,
        "f2_lin": f2_lin,
        "f2_bias": f2_bias,
        "f2_out": f2_out,
    }


def save_weights(tensors: dict[str, np.ndarray], directory: str | Path) -> None:
    """Write one little-endian float64 .bin per tensor plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, arr in tensors.items():
        fname = f"{name}.bin"
        with open(directory / fname, "wb") as f:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        entries.append({"name": name, "file": fname, "shape": list(arr.shape)})
    manifest = {"byte_order": "little", "dtype": "float64", "tensors": entries}
    with open(directory / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")
