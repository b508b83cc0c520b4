"""Acceptance criteria, one test per criterion.

Every suite is preregistered: base seed 0, streams derived through the
harness seeding helpers, thresholds asserted literally. Each test records a
summary line that the terminal report prints at the end of the run.
"""

from __future__ import annotations

import ast
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import btembed.parser
from btembed import (
    BudgetExceededError,
    NoParseError,
    StepBudgetExceededError,
    SweepSpec,
    Tree,
    XfConfig,
    attach,
    balanced_parens_grammar,
    balanced_parens_schema,
    bt_encode,
    compile_rules,
    decode,
    decode_token,
    encode_list,
    make_embedding,
    make_sweep_schema,
    parse,
    push,
    random_balanced,
    random_tree,
    run_decoder,
    run_separation_probe,
    run_sweep,
    symbolic_parse,
    zero_vector,
)
from btembed.embedding import cardinality_estimate
from btembed.harness import cell_seed, separation_csv, sweep_csv, trial_rng

BASE = 0
LIST_CODE, TREE_CODE, PARSE_CODE, SEP_CODE = 1, 2, 3, 4
XF_CODE = 5  # transformer suite stream, disjoint from the harness kinds


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


@pytest.fixture(scope="module")
def emb_tree():
    return make_embedding(make_sweep_schema(100, 4), 2000, cell_seed(BASE, TREE_CODE, 2000, 16))


@pytest.fixture(scope="module")
def emb_list():
    return make_embedding(make_sweep_schema(100, 1), 1000, cell_seed(BASE, LIST_CODE, 1000, 8))


@pytest.fixture(scope="module")
def emb_parens():
    return make_embedding(balanced_parens_schema(), 1000, cell_seed(BASE, PARSE_CODE, 1000, 12))


@pytest.fixture(scope="module")
def tree_suite(emb_tree):
    """200 joint trials for the tree round trip and cardinality criteria."""
    e = emb_tree
    start = time.perf_counter()
    roundtrip = 0
    cardinality = 0
    for t in range(200):
        rng = trial_rng(BASE, TREE_CODE, 2000, 16, t)
        size = int(rng.integers(1, 17))
        tree = random_tree(size, 100, 4, rng)
        v = bt_encode(e, tree)
        try:
            decoded = decode(e, v)
        except BudgetExceededError:
            decoded = None
        roundtrip += decoded == tree
        cardinality += cardinality_estimate(v) == size
    elapsed = time.perf_counter() - start
    return {"roundtrip": roundtrip, "cardinality": cardinality, "elapsed": elapsed}


@pytest.fixture(scope="module")
def xf_suite(emb_tree):
    """200 transformer-vs-reference instances for criteria 7 and 8."""
    e = emb_tree
    start = time.perf_counter()
    trials = []
    for t in range(200):
        rng = trial_rng(BASE, XF_CODE, 2000, 10, t)
        size = int(rng.integers(1, 11))
        tree = random_tree(size, 100, 4, rng)
        v = bt_encode(e, tree)
        paths = [p for p, _ in tree.paths() if len(p) <= 5]
        path = list(paths[int(rng.integers(len(paths)))])
        got = run_decoder(e, v, path)
        ref, u = [], v.data
        ref.append(decode_token(e, u))
        for a in path:
            u = e.attribute_matrices[a].T @ u
            ref.append(decode_token(e, u))
        try:
            alg1_ok = decode(e, v) == tree
        except BudgetExceededError:
            alg1_ok = False
        trials.append({"v": v, "path": path, "got": got, "ref": ref, "alg1_ok": alg1_ok})
    elapsed = time.perf_counter() - start
    return {"trials": trials, "elapsed": elapsed}


def test_criterion_01_tree_roundtrip(tree_suite, record_acceptance):
    """Encode-decode round trip, 200 random trees, sizes 1..16, d=2000."""
    good, elapsed = tree_suite["roundtrip"], tree_suite["elapsed"]
    ok = good >= 198 and elapsed < 120.0
    record_acceptance(
        f"[c01 tree-roundtrip]     {good}/200 ok (need >=198), "
        f"{elapsed:.1f}s < 120s -> {verdict(ok)}"
    )
    assert good >= 198
    assert elapsed < 120.0


def test_criterion_02_list_roundtrip(emb_list, record_acceptance):
    """Token list round trip, 200 chains, lengths 1..8, d=1000."""
    from btembed.harness import list_roundtrip_trial

    e = emb_list
    start = time.perf_counter()
    good = 0
    for t in range(200):
        rng = trial_rng(BASE, LIST_CODE, 1000, 8, t)
        length = int(rng.integers(1, 9))
        good += list_roundtrip_trial(e, length, rng)
    elapsed = time.perf_counter() - start
    ok = good >= 198 and elapsed < 60.0
    record_acceptance(
        f"[c02 list-roundtrip]     {good}/200 ok (need >=198), "
        f"{elapsed:.1f}s < 60s -> {verdict(ok)}"
    )
    assert good >= 198
    assert elapsed < 60.0


def test_criterion_03_failure_regime(record_acceptance):
    """Far past capacity (size 25 at d=100) the round trip must break down."""
    e = make_embedding(make_sweep_schema(100, 4), 100, cell_seed(BASE, TREE_CODE, 100, 25))
    good = 0
    for t in range(100):
        rng = trial_rng(BASE, TREE_CODE, 100, 25, t)
        tree = random_tree(25, 100, 4, rng)
        try:
            good += decode(e, bt_encode(e, tree)) == tree
        except BudgetExceededError:
            pass
    rate = good / 100.0
    ok = rate < 0.5
    record_acceptance(
        f"[c03 failure-regime]     rate {rate:.2f} at d=100 size=25 (need <0.50) -> {verdict(ok)}"
    )
    assert rate < 0.5


def test_criterion_04_cardinality(tree_suite, record_acceptance):
    """Rounded squared norm equals the node count across the c01 suite."""
    good = tree_suite["cardinality"]
    ok = good >= 198
    record_acceptance(
        f"[c04 cardinality]        {good}/200 ok (need >=198) -> {verdict(ok)}"
    )
    assert good >= 198


def test_criterion_05_attach_linearity(emb_tree, record_acceptance):
    """attach on vectors equals encoding the composed tree, 100 instances."""
    e = emb_tree
    rng = np.random.default_rng([BASE, 55])
    worst = 0.0
    for _ in range(100):
        base = random_tree(int(rng.integers(1, 9)), 100, 4, rng)
        sub = random_tree(int(rng.integers(1, 7)), 100, 4, rng)
        spots = []
        for path, _ in base.paths():
            used = {a for a, _ in base.node_at(path).children}
            spots.extend((path, a) for a in range(4) if a not in used)
        path, attr = spots[int(rng.integers(len(spots)))]
        direct = bt_encode(e, base.with_subtree(path, attr, sub))
        glued = attach(e, bt_encode(e, base), path, attr, bt_encode(e, sub))
        worst = max(worst, float(np.abs(glued.data - direct.data).max()))
    ok = worst <= 1e-9
    record_acceptance(
        f"[c05 attach-linearity]   worst |diff| {worst:.2e} (need <=1e-9) -> {verdict(ok)}"
    )
    assert worst <= 1e-9


def test_criterion_06_push_fold(emb_list, record_acceptance):
    """Right-to-left push fold reproduces encode_list, 100 lists, n<=16."""
    e = emb_list
    rng = np.random.default_rng([BASE, 56])
    worst = 0.0
    for _ in range(100):
        length = int(rng.integers(1, 17))
        tokens = [int(x) for x in rng.integers(100, size=length)]
        acc = zero_vector(e)
        for tok in reversed(tokens):
            acc = push(e, acc, tok)
        ref = encode_list(e, tokens)
        worst = max(worst, float(np.abs(acc.data - ref.data).max()))
    ok = worst <= 1e-9
    record_acceptance(
        f"[c06 push-fold]          worst |diff| {worst:.2e} (need <=1e-9) -> {verdict(ok)}"
    )
    assert worst <= 1e-9


def test_criterion_07_transformer_agreement(xf_suite, record_acceptance):
    """Transformer path decode agrees with the probe reference on 200 instances."""
    trials, elapsed = xf_suite["trials"], xf_suite["elapsed"]
    agree = sum(t["got"] == t["ref"] for t in trials)
    stray = [t for t in trials if t["got"] != t["ref"] and t["alg1_ok"]]
    ok = agree >= 190 and not stray and elapsed < 300.0
    record_acceptance(
        f"[c07 transformer-agree]  {agree}/200 agree (need >=190), "
        f"{len(stray)} unexcused disagreements, {elapsed:.1f}s < 300s -> {verdict(ok)}"
    )
    assert agree >= 190
    assert not stray  # disagreements may only happen where the probe decode fails
    assert elapsed < 300.0


def test_criterion_08_gate_saturation(emb_tree, xf_suite, record_acceptance):
    """Doubling both saturation constants changes no decoded label."""
    e = emb_tree
    hard = XfConfig(attn_sharpness=200.0, gate_constant=2e4)
    changed = 0
    for t in xf_suite["trials"]:
        if run_decoder(e, t["v"], t["path"], hard) != t["got"]:
            changed += 1
    ok = changed == 0
    record_acceptance(
        f"[c08 gate-saturation]    {changed}/200 labels moved under 2x constants "
        f"(need 0) -> {verdict(ok)}"
    )
    assert changed == 0


def test_criterion_09_vector_parsing(emb_parens, record_acceptance):
    """Vector parser matches the symbolic parser, lengths 2..12, d=1000."""
    e = emb_parens
    ruleset = compile_rules(e, balanced_parens_grammar())
    grammar = balanced_parens_grammar()
    lengths = (2, 4, 6, 8, 10, 12)
    start = time.perf_counter()
    good = 0
    for t in range(200):
        length = lengths[t % len(lengths)]
        rng = trial_rng(BASE, PARSE_CODE, 1000, length, t)
        word = random_balanced(length, rng)
        reference = symbolic_parse(grammar, word, e.schema)
        try:
            decoded = decode(e, parse(e, word, ruleset))
        except (NoParseError, StepBudgetExceededError, BudgetExceededError):
            decoded = None
        good += reference is not None and decoded == reference
    elapsed = time.perf_counter() - start
    ok = good >= 198 and elapsed < 180.0
    record_acceptance(
        f"[c09 vector-parsing]     {good}/200 ok (need >=198), "
        f"{elapsed:.1f}s < 180s -> {verdict(ok)}"
    )
    assert good >= 198
    assert elapsed < 180.0


def test_criterion_10_parser_isolation(record_acceptance):
    """The rewrite engine imports nothing beyond numpy, dataclasses, and
    the package's vector and exception modules."""
    allowed_absolute = {"numpy", "dataclasses", "typing", "__future__"}
    allowed_relative = {"exceptions", "vectors"}
    offenders = []
    tree = ast.parse(Path(btembed.parser.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] not in allowed_absolute:
                    offenders.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module not in allowed_relative:
                    offenders.append(f".{node.module}")
            elif (node.module or "").split(".")[0] not in allowed_absolute:
                offenders.append(node.module)
    ok = not offenders
    record_acceptance(
        f"[c10 parser-isolation]   imports {sorted(offenders) or 'clean'} -> {verdict(ok)}"
    )
    assert not offenders


def test_criterion_11_separation(record_acceptance):
    """Pairwise overlaps of 500 depth-4 word images stay under 0.315 at
    d=2000 in at least 19 of 20 runs. The runs are independent, so two
    threads share them; with one BLAS thread each, every run samples the
    same embedding as it would alone."""
    schema = make_sweep_schema(100, 4)

    def max_abs_ip(run: int) -> float:
        e = make_embedding(schema, 2000, cell_seed(BASE, SEP_CODE, 2000, run))
        rng = trial_rng(BASE, SEP_CODE, 2000, 4, run)
        return run_separation_probe(e, 4, 500, rng).max_abs_ip

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:
        overlaps = list(pool.map(max_abs_ip, range(20)))
    in_bound = sum(ip <= 0.315 for ip in overlaps)
    worst = max(overlaps)
    elapsed = time.perf_counter() - start
    ok = in_bound >= 19
    record_acceptance(
        f"[c11 separation]         {in_bound}/20 runs under 0.315 (need >=19), "
        f"worst {worst:.4f}, {elapsed:.1f}s -> {verdict(ok)}"
    )
    assert in_bound >= 19


def test_criterion_12_csv_determinism(tmp_path, record_acceptance):
    """Sweep and separation CSV outputs are byte-identical across reruns."""
    spec = SweepSpec(kind="tree", dims=(256,), sizes=(4, 6), trials=10, base_seed=BASE)
    sweep_a = sweep_csv(run_sweep(spec))
    sweep_b = sweep_csv(run_sweep(spec))
    e = make_embedding(make_sweep_schema(100, 4), 256, cell_seed(BASE, SEP_CODE, 256, 0))
    sep_a = separation_csv([run_separation_probe(e, 2, 50, trial_rng(BASE, SEP_CODE, 256, 2, 0))])
    sep_b = separation_csv([run_separation_probe(e, 2, 50, trial_rng(BASE, SEP_CODE, 256, 2, 0))])
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    fa.write_text(sweep_a + sep_a)
    fb.write_text(sweep_b + sep_b)
    ok = fa.read_bytes() == fb.read_bytes()
    record_acceptance(
        f"[c12 csv-determinism]    sweep {'=' if sweep_a == sweep_b else '!='} rerun, "
        f"separation {'=' if sep_a == sep_b else '!='} rerun -> {verdict(ok)}"
    )
    assert fa.read_bytes() == fb.read_bytes()
