"""Command line interface.

Exit codes: 0 success, 2 usage or input problems, an allocation too large
for memory among them, 3 schema mismatch, 4 decode came back absent, 5 no
parse, 6 a budget hit: the decoder's node budget min(d, 2|v|^2 + 1), the
parser's step budget (n - 1) + u(2n - 1) for n tokens under u unary rules, or
a transformer path longer than the 63 steps its context of 64 slots holds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .decoder import decode
from .embedding import bt_encode, make_embedding
from .exceptions import BTError, BudgetExceededError, NoParseError, SchemaMismatchError
from .grammar import compile_rules, load_grammar, parse
from .harness import (
    SWEEPS,
    SweepSpec,
    make_sweep_schema,
    run_separation,
    run_sweep,
    separation_csv,
    sweep_csv,
)
from .io import load_embedding, load_vector, save_embedding, save_vector
from .schema import Schema, Tree
from .transformer import XfConfig, export_weights, run_decoder, save_weights

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCHEMA_MISMATCH = 3
EXIT_ABSENT = 4
EXIT_NO_PARSE = 5
EXIT_BUDGET = 6


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part)


def cmd_gen_schema(args) -> int:
    schema = make_sweep_schema(args.tokens, args.attributes)
    Path(args.output).write_text(json.dumps(schema.to_dict(), indent=2) + "\n")
    return EXIT_OK


def cmd_embed(args) -> int:
    schema = Schema.from_dict(json.loads(Path(args.schema).read_text()))
    e = make_embedding(schema, args.dim, args.seed)
    save_embedding(e, args.output)
    return EXIT_OK


def cmd_encode(args) -> int:
    e = load_embedding(args.embedding)
    tree = Tree.from_dict(json.loads(Path(args.tree).read_text()), e.schema)
    save_vector(bt_encode(e, tree), args.output)
    return EXIT_OK


def cmd_decode(args) -> int:
    e = load_embedding(args.embedding)
    v = load_vector(args.vector)
    tree = decode(e, v)
    if tree is None:
        return _fail(EXIT_ABSENT, "vector decodes to absent")
    text = json.dumps(tree.to_dict(e.schema), indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_parse(args) -> int:
    e = load_embedding(args.embedding)
    grammar = load_grammar(args.rules)
    ruleset = compile_rules(e, grammar)
    tokens = args.input.split()
    if not tokens:
        return _fail(EXIT_USAGE, "empty input")
    v = parse(e, tokens, ruleset)
    save_vector(v, args.output)
    return EXIT_OK


def cmd_transformer_query(args) -> int:
    e = load_embedding(args.embedding)
    v = load_vector(args.vector)
    path = [p for p in args.path.replace(",", " ").split()] if args.path else []
    cfg = XfConfig()
    labels = run_decoder(e, v, path, cfg)
    if args.dump_weights:
        save_weights(export_weights(e, cfg), args.dump_weights)
    names = [None if i is None else e.schema.tokens[i] for i in labels]
    sys.stdout.write(json.dumps(names) + "\n")
    return EXIT_OK


def cmd_experiment(args) -> int:
    spec = SweepSpec(
        kind=args.kind,
        dims=_int_list(args.dims),
        sizes=_int_list(args.sizes),
        trials=args.trials,
        base_seed=args.base_seed,
    )
    Path(args.output).write_text(sweep_csv(run_sweep(spec), timings=args.timings))
    return EXIT_OK


def cmd_separation(args) -> int:
    rows = run_separation(args.dim, args.depth, args.samples, args.runs, args.base_seed)
    Path(args.output).write_text(separation_csv(rows))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="btembed", description=__doc__)
    ap.add_argument("--version", action="version", version=f"btembed {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-schema", help="write a schema with generated token names")
    p.add_argument("--tokens", type=int, required=True, help="number of data tokens")
    p.add_argument("--attributes", type=int, required=True, help="number of attributes")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_schema)

    p = sub.add_parser("embed", help="sample an embedding for a schema")
    p.add_argument("--schema", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("encode", help="encode a tree JSON file into a vector")
    p.add_argument("--embedding", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a vector back into tree JSON")
    p.add_argument("--embedding", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("parse", help="parse a token string into a vector")
    p.add_argument("--embedding", required=True)
    p.add_argument("--rules", required=True, help="grammar rules JSON")
    p.add_argument("--input", required=True, help="whitespace separated tokens")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("transformer-query", help="decode a path with the fixed-weight transformer")
    p.add_argument("--embedding", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--path", default="", help="attribute names, comma or space separated")
    p.add_argument("--dump-weights", metavar="DIR", help="write dense block tensors and a manifest")
    p.set_defaults(func=cmd_transformer_query)

    p = sub.add_parser("experiment", help="run a round-trip sweep and write CSV")
    p.add_argument("--kind", choices=tuple(SWEEPS), required=True)
    p.add_argument("--dims", required=True, help="comma separated dimensions")
    p.add_argument("--sizes", required=True, help="comma separated sizes")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--timings", action="store_true", help="write measured wall times")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("separation", help="run the pairwise separation probe and write CSV")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_separation)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SchemaMismatchError as err:
        return _fail(EXIT_SCHEMA_MISMATCH, str(err))
    except NoParseError as err:
        return _fail(EXIT_NO_PARSE, str(err))
    except BudgetExceededError as err:
        return _fail(EXIT_BUDGET, str(err))
    except (BTError, OSError, KeyError, ValueError, RecursionError, MemoryError) as err:
        return _fail(EXIT_USAGE, str(err) or type(err).__name__)


def main_entry() -> None:
    raise SystemExit(main())
