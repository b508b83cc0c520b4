"""End-to-end command flows, run in process through main().

Subcommand wiring, exit codes, and file hand-off between steps. The tests at
the bottom go through a real `python -m btembed` subprocess to cover the
console entry point.
"""

from __future__ import annotations

import json
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from btembed import (
    BTVector,
    Embedding,
    Schema,
    Tree,
    XfConfig,
    balanced_parens_grammar,
    balanced_parens_schema,
    export_weights,
    load_embedding,
    save_embedding,
    save_grammar,
    save_vector,
    symbolic_parse,
)
from btembed.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*args: str, env: dict | None = None, **kwargs) -> subprocess.CompletedProcess:
    """Run `python -m btembed` on this checkout's src, installed or not."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "btembed", *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, **(env or {})}, **kwargs,
    )


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: schema, embedding, a tree, and its vector."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "schema": root / "schema.json",
        "emb": root / "a.bte",
        "emb2": root / "b.bte",
        "tree": root / "tree.json",
        "vec": root / "tree.btv",
    }
    assert main(["gen-schema", "--tokens", "10", "--attributes", "2",
                 "-o", str(paths["schema"])]) == 0
    assert main(["embed", "--schema", str(paths["schema"]), "--dim", "256",
                 "--seed", "3", "-o", str(paths["emb"])]) == 0
    assert main(["embed", "--schema", str(paths["schema"]), "--dim", "256",
                 "--seed", "4", "-o", str(paths["emb2"])]) == 0
    tree = {
        "label": "t1",
        "children": {
            "next": {"label": "t2", "children": {}},
            "arg1": {"label": "t3", "children": {"next": {"label": "t0", "children": {}}}},
        },
    }
    paths["tree"].write_text(json.dumps(tree))
    assert main(["encode", "--embedding", str(paths["emb"]), "--tree", str(paths["tree"]),
                 "-o", str(paths["vec"])]) == 0
    paths["root"] = root
    return paths


class TestGenSchema:
    def test_output_is_valid_schema(self, ws):
        blob = json.loads(ws["schema"].read_text())
        schema = Schema.from_dict(blob)
        assert schema.n_tokens == 12
        assert schema.n_attributes == 2
        assert schema.attributes == ("next", "arg1")

    @pytest.mark.parametrize("tokens, attributes", [("3", "0"), ("3", "-1"), ("-1", "2")])
    def test_sizes_out_of_range_exit_2(self, tmp_path, capsys, tokens, attributes):
        out = tmp_path / "s.json"
        assert main(["gen-schema", "--tokens", tokens, "--attributes", attributes, "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: sweep schema needs")
        assert not out.exists()


class TestEncodeDecode:
    def test_round_trip_through_files(self, ws):
        out = ws["root"] / "decoded.json"
        rc = main(["decode", "--embedding", str(ws["emb"]), "--vector", str(ws["vec"]),
                   "-o", str(out)])
        assert rc == 0
        e = load_embedding(ws["emb"])
        got = Tree.from_dict(json.loads(out.read_text()), e.schema)
        want = Tree.from_dict(json.loads(ws["tree"].read_text()), e.schema)
        assert got == want

    def test_decode_to_stdout(self, ws, capsys):
        rc = main(["decode", "--embedding", str(ws["emb"]), "--vector", str(ws["vec"])])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["label"] == "t1"

    def test_absent_vector_exits_4(self, ws):
        e = load_embedding(ws["emb"])
        p = ws["root"] / "zero.btv"
        save_vector(BTVector(np.zeros(e.dim), e.fingerprint), p)
        assert main(["decode", "--embedding", str(ws["emb"]), "--vector", str(p)]) == 4

    def test_mismatched_embedding_exits_3(self, ws):
        rc = main(["decode", "--embedding", str(ws["emb2"]), "--vector", str(ws["vec"])])
        assert rc == 3

    def test_corrupt_vector_exits_2(self, ws):
        p = ws["root"] / "junk.btv"
        p.write_bytes(b"not a vector at all")
        assert main(["decode", "--embedding", str(ws["emb"]), "--vector", str(p)]) == 2

    def test_unknown_label_exits_2(self, ws):
        bad = ws["root"] / "bad_tree.json"
        bad.write_text('{"label": "nope", "children": {}}')
        out = ws["root"] / "bad.btv"
        rc = main(["encode", "--embedding", str(ws["emb"]), "--tree", str(bad),
                   "-o", str(out)])
        assert rc == 2

    def test_header_sized_vector_exits_2(self, ws, capsys):
        # declares 2**32 - 1 floats in 48 bytes; refused before any allocation
        p = ws["root"] / "huge.btv"
        p.write_bytes(b"BTV1" + struct.pack("<I", 2**32 - 1) + bytes(40))
        assert main(["decode", "--embedding", str(ws["emb"]), "--vector", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: truncated file")

    @pytest.mark.parametrize("command", ["decode", "transformer-query"])
    def test_wrong_dim_vector_exits_3(self, ws, capsys, command):
        # the embedding's fingerprint on 3 floats, where the embedding has 256
        e = load_embedding(ws["emb"])
        p = ws["root"] / "short.btv"
        save_vector(BTVector(np.ones(3), e.fingerprint), p)
        assert main([command, "--embedding", str(ws["emb"]), "--vector", str(p)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: vector has dim 3") and err.count("\n") == 1

    def test_non_finite_vector_exits_2(self, ws, capsys):
        e = load_embedding(ws["emb"])
        p = ws["root"] / "nan.btv"
        save_vector(BTVector(np.full(e.dim, np.nan), e.fingerprint), p)
        assert main(["decode", "--embedding", str(ws["emb"]), "--vector", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: vector payload holds NaN") and err.count("\n") == 1

    def test_non_finite_embedding_exits_2(self, ws, capsys):
        e = load_embedding(ws["emb"])
        raw = bytearray(ws["emb"].read_bytes())
        payload = 8 * (e.schema.n_tokens * e.dim + e.schema.n_attributes * e.dim**2)
        struct.pack_into("<d", raw, len(raw) - payload, np.nan)  # the first token's first entry
        p = ws["root"] / "nan.bte"
        p.write_bytes(bytes(raw))
        assert main(["decode", "--embedding", str(p), "--vector", str(ws["vec"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: embedding payload holds NaN") and err.count("\n") == 1

    @pytest.mark.parametrize("dim", [0, 1])
    def test_embedding_below_dim_2_exits_2(self, ws, capsys, tmp_path, write_bte, dim):
        p = write_bte(tmp_path / "small.bte", dim)
        assert main(["decode", "--embedding", str(p), "--vector", str(ws["vec"])]) == 2
        assert capsys.readouterr().err == f"error: dim must be at least 2, got {dim}\n"

    def test_tight_budget_exits_6(self, ws, capsys):
        # noise keeps clearing THRESHOLD past the budget min(d, 2||v||^2 + 1):
        # about 201 nodes at norm 10, and d at norm 1e200, where every entry
        # is finite and ||v||^2 is inf
        e = load_embedding(ws["emb"])
        x = np.random.default_rng(60).standard_normal(e.dim)
        p = ws["root"] / "noise.btv"
        for norm in (10.0, 1e200):
            save_vector(BTVector(x * (norm / np.linalg.norm(x)), e.fingerprint), p)
            assert main(["decode", "--embedding", str(ws["emb"]), "--vector", str(p)]) == 6
            err = capsys.readouterr().err
            assert err.startswith("error: decode accepted over") and err.count("\n") == 1


def _deep_chain(depth: int) -> str:
    text = '{"label": "t1"}'
    for _ in range(depth - 1):
        text = '{"label": "t1", "children": {"next": %s}}' % text
    return text


class TestJsonBoundary:
    """Malformed tree and schema JSON exits 2 with one error line, no traceback."""

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '{"label": "t1", "children": "x"}',
            '{"label": ["t1"]}',
            '{"label": "t1", "children": {"next": 5}}',
            _deep_chain(600),
        ],
        ids=["list", "children-string", "label-list", "child-int", "deep-chain"],
    )
    def test_bad_tree_exits_2(self, ws, capsys, text):
        bad = ws["root"] / "malformed_tree.json"
        bad.write_text(text)
        rc = main(["encode", "--embedding", str(ws["emb"]), "--tree", str(bad),
                   "-o", str(ws["root"] / "malformed.btv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_schema_exits_2(self, ws, capsys):
        bad = ws["root"] / "malformed_schema.json"
        bad.write_text('{"tokens": 5, "attributes": ["a"]}')
        rc = main(["embed", "--schema", str(bad), "--dim", "16",
                   "-o", str(ws["root"] / "malformed.bte")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def parse_ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_parse")
    schema_path = root / "parens.json"
    schema_path.write_text(json.dumps(balanced_parens_schema().to_dict()))
    rules_path = root / "rules.json"
    save_grammar(balanced_parens_grammar(), rules_path)
    emb_path = root / "parens.bte"
    assert main(["embed", "--schema", str(schema_path), "--dim", "512",
                 "--seed", "5", "-o", str(emb_path)]) == 0
    return {"root": root, "schema": schema_path, "rules": rules_path, "emb": emb_path}


class TestParse:
    def test_parse_then_decode(self, parse_ws):
        v_path = parse_ws["root"] / "word.btv"
        rc = main(["parse", "--embedding", str(parse_ws["emb"]), "--rules", str(parse_ws["rules"]),
                   "--input", "L L R R", "-o", str(v_path)])
        assert rc == 0
        e = load_embedding(parse_ws["emb"])
        out = parse_ws["root"] / "word.json"
        assert main(["decode", "--embedding", str(parse_ws["emb"]), "--vector", str(v_path),
                     "-o", str(out)]) == 0
        got = Tree.from_dict(json.loads(out.read_text()), e.schema)
        want = symbolic_parse(balanced_parens_grammar(), ["L", "L", "R", "R"], e.schema)
        assert got == want

    def test_unbalanced_exits_5(self, parse_ws):
        rc = main(["parse", "--embedding", str(parse_ws["emb"]), "--rules", str(parse_ws["rules"]),
                   "--input", "L L", "-o", str(parse_ws["root"] / "x.btv")])
        assert rc == 5

    def test_step_budget_exits_6(self, parse_ws, capsys):
        # L -> R -> L never halts; two tokens stop after (2 - 1) + 2 (2 * 2 - 1) = 7 rewrites
        cycle = parse_ws["root"] / "cycle.json"
        save_grammar([(("L",), "R"), (("R",), "L")], cycle)
        rc = main(["parse", "--embedding", str(parse_ws["emb"]), "--rules", str(cycle),
                   "--input", "L R", "-o", str(parse_ws["root"] / "y.btv")])
        assert rc == 6
        assert capsys.readouterr().err == "error: exceeded 7 rewrite steps\n"

    def test_max_steps_is_unknown(self, parse_ws, capsys):
        # every required argument is given, so the exit comes from the flag
        with pytest.raises(SystemExit) as exc:
            main(["parse", "--embedding", str(parse_ws["emb"]), "--rules", str(parse_ws["rules"]),
                  "--input", "L R", "--max-steps", "4", "-o", str(parse_ws["root"] / "y.btv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-steps 4" in capsys.readouterr().err

    def test_empty_input_exits_2(self, parse_ws):
        rc = main(["parse", "--embedding", str(parse_ws["emb"]), "--rules", str(parse_ws["rules"]),
                   "--input", "   ", "-o", str(parse_ws["root"] / "z.btv")])
        assert rc == 2


class TestGrammarBoundary:
    """A grammar file of the wrong shape exits 2 with one error line, no traceback."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"rules": [{"pattern": 5, "replacement": "E"}]},
            [],
            {"rules": "x"},
            {"rules": [{"pattern": "LR", "replacement": "E"}]},
            {"rules": [{"pattern": ["L", "R"], "replacement": 2}]},
        ],
        ids=["pattern-int", "top-level-list", "rules-string", "pattern-string", "replacement-int"],
    )
    def test_bad_grammar_exits_2(self, parse_ws, capsys, payload):
        bad = parse_ws["root"] / "malformed_rules.json"
        bad.write_text(json.dumps(payload))
        rc = main(["parse", "--embedding", str(parse_ws["emb"]), "--rules", str(bad),
                   "--input", "L R", "-o", str(parse_ws["root"] / "malformed.btv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTransformerQuery:
    def test_path_query(self, ws, capsys):
        rc = main(["transformer-query", "--embedding", str(ws["emb"]),
                   "--vector", str(ws["vec"]), "--path", "arg1,next"])
        assert rc == 0
        names = json.loads(capsys.readouterr().out)
        assert names == ["t1", "t3", "t0"]

    def test_empty_path(self, ws, capsys):
        rc = main(["transformer-query", "--embedding", str(ws["emb"]),
                   "--vector", str(ws["vec"])])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)[0] == "t1"

    def test_mismatch_exits_3(self, ws):
        rc = main(["transformer-query", "--embedding", str(ws["emb2"]),
                   "--vector", str(ws["vec"])])
        assert rc == 3

    def test_path_too_long_exits_6(self, ws, capsys):
        # 64 steps need 65 slots, one more than the context holds
        rc = main(["transformer-query", "--embedding", str(ws["emb"]),
                   "--vector", str(ws["vec"]), "--path", ",".join(["next"] * 64)])
        assert rc == 6
        assert capsys.readouterr().err == "error: 65 slots exceed the context of 64\n"

    def test_dump_weights(self, tmp_path, capsys):
        schema = tmp_path / "s.json"
        emb = tmp_path / "e.bte"
        vec = tmp_path / "v.btv"
        tree = tmp_path / "t.json"
        assert main(["gen-schema", "--tokens", "6", "--attributes", "2", "-o", str(schema)]) == 0
        assert main(["embed", "--schema", str(schema), "--dim", "48", "-o", str(emb)]) == 0
        tree.write_text('{"label": "t2", "children": {}}')
        assert main(["encode", "--embedding", str(emb), "--tree", str(tree), "-o", str(vec)]) == 0
        wdir = tmp_path / "weights"
        rc = main(["transformer-query", "--embedding", str(emb), "--vector", str(vec),
                   "--dump-weights", str(wdir)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == ["t2"]
        manifest = json.loads((wdir / "manifest.json").read_text())
        names = {t["name"] for t in manifest["tensors"]}
        assert names == {"Wq", "Wk", "Wv", "f1_lin", "f1_bias", "f1_out",
                         "f2_lin", "f2_bias", "f2_out"}
        for t in manifest["tensors"]:
            size = 8 * int(np.prod(t["shape"]))
            assert (wdir / t["file"]).stat().st_size == size

    def test_dumped_weights_use_the_query_codes(self, tmp_path):
        schema = tmp_path / "s.json"
        emb = tmp_path / "e.bte"
        vec = tmp_path / "v.btv"
        tree = tmp_path / "t.json"
        assert main(["gen-schema", "--tokens", "6", "--attributes", "2", "-o", str(schema)]) == 0
        assert main(["embed", "--schema", str(schema), "--dim", "48", "-o", str(emb)]) == 0
        tree.write_text('{"label": "t2", "children": {"next": {"label": "t4"}}}')
        assert main(["encode", "--embedding", str(emb), "--tree", str(tree), "-o", str(vec)]) == 0
        e = load_embedding(emb)

        wdir = tmp_path / "weights"
        rc = main(["transformer-query", "--embedding", str(emb), "--vector", str(vec),
                   "--path", "next", "--dump-weights", str(wdir)])
        assert rc == 0
        expected = export_weights(e, XfConfig())["Wq"]
        written = np.fromfile(wdir / "Wq.bin", dtype="<f8").reshape(expected.shape)
        np.testing.assert_array_equal(written, expected)

    def test_dumped_weights_do_not_depend_on_the_path(self, ws, tmp_path):
        # positions come from the prompt, so one set of tensors serves every
        # path that fits in the context
        dumps = []
        for path in ("", "arg1,next,next"):
            wdir = tmp_path / f"w{len(dumps)}"
            rc = main(["transformer-query", "--embedding", str(ws["emb"]), "--vector", str(ws["vec"]),
                       "--path", path, "--dump-weights", str(wdir)])
            assert rc == 0
            dumps.append({f.name: f.read_bytes() for f in wdir.iterdir()})
        assert dumps[0] == dumps[1]


class TestExperiment:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["experiment", "--kind", "list", "--dims", "128", "--sizes", "2,3",
                   "--trials", "3", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,d,l,trials,successes,success_rate,wall_time_ms"
        assert len(lines) == 3
        assert lines[1].startswith("list,128,2,3,")
        assert lines[1].endswith(",")  # timings blank by default

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["experiment", "--kind", "tree", "--dims", "128", "--sizes", "2",
                "--trials", "3"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timings_flag_fills_last_field(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["experiment", "--kind", "list", "--dims", "128", "--sizes", "2",
                   "--trials", "2", "--timings", "-o", str(out)])
        assert rc == 0
        last = out.read_text().splitlines()[1].rsplit(",", 1)[1]
        assert float(last) >= 0.0

    def test_bad_spec_exits_2(self, tmp_path):
        rc = main(["experiment", "--kind", "parse", "--dims", "128", "--sizes", "3",
                   "--trials", "2", "-o", str(tmp_path / "x.csv")])
        assert rc == 2


class TestSeparation:
    def test_probe_csv(self, tmp_path):
        out = tmp_path / "sep.csv"
        rc = main(["separation", "--dim", "128", "--depth", "2", "--samples", "30",
                   "--runs", "2", "-o", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d,depth,samples,max_abs_ip,jl_bound,violations"
        assert len(lines) == 3
        for line in lines[1:]:
            assert line.endswith(",0")  # no violations at this dimension

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_no_runs_exits_2(self, tmp_path, capsys, runs):
        out = tmp_path / "sep.csv"
        rc = main(["separation", "--dim", "128", "--runs", runs, "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: runs must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--samples", "1", "separation probe needs at least 2 samples"),
         ("--depth", "-1", "depth must be non-negative")],
    )
    def test_bad_probe_arguments_exit_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "sep.csv"
        rc = main(["separation", "--dim", "128", "--runs", "1", flag, value, "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["separation", "--dim", "128", "--depth", "2", "--samples", "30", "--runs", "2"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# Exact CSV bytes of fixed small runs; a change to any result shows here.
GOLDEN_CSV = {
    "list": (
        "kind,d,l,trials,successes,success_rate,wall_time_ms\n"
        "list,128,2,5,5,1.000000,\n"
        "list,128,4,5,5,1.000000,\n"
        "list,256,2,5,5,1.000000,\n"
        "list,256,4,5,5,1.000000,\n"
    ),
    "tree": (
        "kind,d,l,trials,successes,success_rate,wall_time_ms\n"
        "tree,128,2,5,5,1.000000,\n"
        "tree,128,4,5,1,0.200000,\n"
        "tree,256,2,5,5,1.000000,\n"
        "tree,256,4,5,5,1.000000,\n"
    ),
    "parse": (
        "kind,d,l,trials,successes,success_rate,wall_time_ms\n"
        "parse,128,2,5,5,1.000000,\n"
        "parse,128,4,5,0,0.000000,\n"
        "parse,256,2,5,5,1.000000,\n"
        "parse,256,4,5,2,0.400000,\n"
    ),
    "separation": (
        "d,depth,samples,max_abs_ip,jl_bound,violations\n"
        "128,2,40,0.293541,0.960323,0\n"
        "128,2,40,0.351201,0.960323,0\n"
        "128,2,40,0.316432,0.960323,0\n"
    ),
}


class TestGoldenCsv:
    @pytest.mark.parametrize("kind", ["list", "tree", "parse"])
    def test_sweep(self, tmp_path, kind):
        out = tmp_path / "sweep.csv"
        assert main(["experiment", "--kind", kind, "--dims", "128,256", "--sizes", "2,4",
                     "--trials", "5", "-o", str(out)]) == 0
        assert out.read_text() == GOLDEN_CSV[kind]

    def test_separation(self, tmp_path):
        out = tmp_path / "sep.csv"
        assert main(["separation", "--dim", "128", "--depth", "2", "--samples", "40",
                     "--runs", "3", "-o", str(out)]) == 0
        assert out.read_text() == GOLDEN_CSV["separation"]


class TestUsage:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--dim", "64"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, flag",
        [("decode", "--threshold"), ("decode", "--max-depth"), ("decode", "--max-nodes"),
         ("transformer-query", "--sharpness"), ("transformer-query", "--gate-constant"),
         ("transformer-query", "--k")],
    )
    def test_removed_flags_are_unknown(self, ws, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--embedding", str(ws["emb"]), "--vector", str(ws["vec"]), flag, "1"])
        assert exc.value.code == 2

    def test_missing_file_exits_2(self, tmp_path):
        rc = main(["decode", "--embedding", str(tmp_path / "none.bte"),
                   "--vector", str(tmp_path / "none.btv")])
        assert rc == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("btembed ")

    def test_json_writer_depth_limit(self, tmp_path):
        # basis-vector tokens and the cyclic shift as M_next decode an exact
        # n-node chain, three times deeper than json.dumps, at two calls per
        # node, writes under `python -m btembed`'s recursion limit of 1,000
        d, n = 1536, 1500
        schema = Schema(("a", "next"), ("next",))
        e = Embedding(schema=schema, seed=0, token_vectors=np.eye(2, d),
                      attribute_matrices=np.roll(np.eye(d), 1, axis=0)[None])
        save_embedding(e, tmp_path / "chain.bte")
        save_vector(e.wrap((np.arange(d) < n).astype(float)), tmp_path / "chain.btv")
        proc = run_module("decode", "--embedding", str(tmp_path / "chain.bte"),
                          "--vector", str(tmp_path / "chain.btv"), "-o", str(tmp_path / "chain.json"))
        assert (proc.returncode, proc.stderr) == (0, "")
        # json.loads keeps its own recursion limit and cannot read this back
        text = (tmp_path / "chain.json").read_text()
        assert text.count('"label": "a"') == n and text.count('"next": {') == n - 1
        assert text.endswith("\n" + "\n".join("  " * k + "}" for k in range(2 * n - 2, -1, -1)) + "\n")

    @pytest.mark.parametrize(
        "args",
        [
            ["embed", "--schema", "{schema}", "--dim", "1000000000", "-o", "{out}"],
            ["experiment", "--kind", "tree", "--dims", "1000000000", "--sizes", "1", "--trials", "1",
             "-o", "{out}"],
            ["separation", "--dim", "64", "--samples", "100000000", "--runs", "1", "-o", "{out}"],
        ],
        ids=["embed", "experiment", "separation"],
    )
    def test_allocation_failure_exits_2(self, ws, tmp_path, args):
        # each command asks numpy for tens of GiB or more at once; a 3 GiB
        # address-space cap makes that allocation fail before any memory fills
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        paths = {"emb": ws["emb"], "vec": ws["vec"], "schema": ws["schema"], "out": tmp_path / "out"}
        proc = run_module(*(a.format(**paths) for a in args), preexec_fn=cap_address_space,
                          env={"OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: Unable to allocate")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()
