from __future__ import annotations

import math

import numpy as np
import pytest

from btembed import (
    CellResult,
    InvalidSpecError,
    SeparationResult,
    SweepSpec,
    make_embedding,
    make_sweep_schema,
    random_tree,
    run_separation,
    run_separation_probe,
    run_sweep,
)
from btembed import harness
from btembed.harness import (
    SEPARATION_CSV_HEADER,
    SWEEP_CSV_HEADER,
    cell_seed,
    chain_tree,
    compile_rules,
    jl_bound,
    separation_csv,
    sweep_csv,
    trial_rng,
)


class TestSweepSchema:
    def test_shape(self):
        s = make_sweep_schema(5, 2)
        assert s.tokens == ("t0", "t1", "t2", "t3", "t4", "next", "arg1")
        assert s.attributes == ("next", "arg1")

    def test_single_attribute(self):
        s = make_sweep_schema(3, 1)
        assert s.attributes == ("next",)

    def test_no_tokens_is_allowed(self):
        assert make_sweep_schema(0, 1).tokens == ("next",)

    @pytest.mark.parametrize("n_tokens, n_attributes", [(3, 0), (3, -2), (-1, 1)])
    def test_sizes_out_of_range_rejected(self, n_tokens, n_attributes):
        with pytest.raises(ValueError, match="sweep schema needs"):
            make_sweep_schema(n_tokens, n_attributes)


class TestSweepSpec:
    def test_valid(self):
        spec = SweepSpec(kind="list", dims=[64, 128], sizes=[2, 4], trials=5)
        assert spec.dims == (64, 128)
        assert spec.sizes == (2, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="blob", dims=(64,), sizes=(2,), trials=1),
            dict(kind="list", dims=(), sizes=(2,), trials=1),
            dict(kind="list", dims=(1,), sizes=(2,), trials=1),
            dict(kind="list", dims=(64,), sizes=(), trials=1),
            dict(kind="list", dims=(64,), sizes=(0,), trials=1),
            dict(kind="parse", dims=(64,), sizes=(3,), trials=1),
            dict(kind="list", dims=(64,), sizes=(2,), trials=0),
            dict(kind="list", dims=(64,), sizes=(2,), trials=1, base_seed=-1),
            dict(kind="parse", dims=(64,), sizes=(72,), trials=1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidSpecError):
            SweepSpec(**kwargs)


class TestSeeding:
    def test_cell_seed_deterministic_and_distinct(self):
        assert cell_seed(0, 2, 512, 8) == cell_seed(0, 2, 512, 8)
        seeds = {
            cell_seed(0, 2, 512, 8),
            cell_seed(0, 2, 512, 9),
            cell_seed(0, 2, 256, 8),
            cell_seed(0, 1, 512, 8),
            cell_seed(1, 2, 512, 8),
        }
        assert len(seeds) == 5

    def test_trial_rng_streams(self):
        a = trial_rng(0, 1, 64, 2, 0).integers(1 << 30, size=4)
        b = trial_rng(0, 1, 64, 2, 0).integers(1 << 30, size=4)
        c = trial_rng(0, 1, 64, 2, 1).integers(1 << 30, size=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


class TestGenerators:
    def test_random_tree_size(self):
        rng = np.random.default_rng(120)
        for size in (1, 2, 5, 12):
            t = random_tree(size, 10, 3, rng)
            assert t.node_count() == size

    def test_random_tree_respects_attribute_count(self):
        rng = np.random.default_rng(121)
        t = random_tree(20, 10, 2, rng)
        for path, _ in t.paths():
            assert all(a < 2 for a in path)

    def test_single_attribute_gives_chains(self):
        rng = np.random.default_rng(122)
        t = random_tree(6, 10, 1, rng)
        depths = [len(p) for p, _ in t.paths()]
        assert sorted(depths) == [0, 1, 2, 3, 4, 5]

    def test_deep_chain_builds(self):
        t = random_tree(5000, 10, 1, np.random.default_rng(124))
        assert t.node_count() == 5000
        assert max(len(p) for p, _ in t.paths()) == 4999

    @pytest.mark.parametrize(
        "size, n_labels, n_attributes, name",
        [(0, 5, 2, "size"), (-3, 5, 2, "size"), (3, 0, 2, "n_labels"), (3, 5, 0, "n_attributes")],
    )
    def test_random_tree_rejects_sizes_it_cannot_make(self, size, n_labels, n_attributes, name):
        rng = np.random.default_rng(125)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"{name} >= 1"):
            random_tree(size, n_labels, n_attributes, rng)
        assert rng.bit_generator.state == state  # rejected before the first draw

    def test_deterministic(self):
        a = random_tree(8, 10, 3, np.random.default_rng(123))
        b = random_tree(8, 10, 3, np.random.default_rng(123))
        assert a == b

    def test_chain_tree(self):
        e = make_embedding(make_sweep_schema(6, 1), 32, 0)
        t = chain_tree(e, [3, 1, 2])
        nxt = e.schema.attribute_index("next")
        assert t.label == 3
        assert t.child(nxt).label == 1
        assert t.child(nxt).child(nxt).label == 2
        assert t.node_count() == 3


class TestSweeps:
    def test_list_sweep_clean_regime(self):
        spec = SweepSpec(kind="list", dims=(256,), sizes=(2, 4), trials=6)
        results = run_sweep(spec)
        assert len(results) == 2
        for r in results:
            assert r.kind == "list"
            assert r.d == 256
            assert r.trials == 6
            assert r.successes == 6
            assert r.wall_time_ms >= 0.0

    def test_tree_sweep_clean_regime(self):
        spec = SweepSpec(kind="tree", dims=(256,), sizes=(2, 3), trials=6)
        for r in run_sweep(spec):
            assert r.successes == 6

    def test_parse_sweep_clean_regime(self):
        spec = SweepSpec(kind="parse", dims=(512,), sizes=(2, 4), trials=6)
        for r in run_sweep(spec):
            assert r.successes == 6

    def test_parse_cell_compiles_one_rule_set(self, monkeypatch):
        # every trial of a cell parses with the rule set its set-up compiled
        compiled = []

        def compile_once(e, grammar):
            compiled.append(e)
            return compile_rules(e, grammar)

        monkeypatch.setattr(harness, "compile_rules", compile_once)
        run_sweep(SweepSpec(kind="parse", dims=(128, 256), sizes=(2, 4), trials=5))
        assert len(compiled) == len(set(compiled)) == 4

    def test_tree_sweep_noise_regime(self):
        # far past the capacity boundary the round trip must mostly fail
        spec = SweepSpec(kind="tree", dims=(64,), sizes=(20,), trials=6)
        (r,) = run_sweep(spec)
        assert r.successes / r.trials < 0.5


class TestSeparation:
    def test_jl_bound_values(self):
        assert jl_bound(0, 60, 512) == pytest.approx(4.0 * math.sqrt(math.log(60) / 512))
        assert jl_bound(3, 60, 512) == pytest.approx(math.sqrt(32.0 * math.log(60) / 512))
        # a depth-0 probe gets the tighter plain constant
        assert jl_bound(0, 60, 512) < jl_bound(1, 60, 512)

    def test_probe_in_bounds(self):
        e = make_embedding(make_sweep_schema(8, 3), 512, 40)
        for depth in (0, 3):
            r = run_separation_probe(e, depth, 60, np.random.default_rng(41))
            assert r.d == 512
            assert r.samples == 60
            assert 0.0 < r.max_abs_ip < jl_bound(depth, 60, 512)
            assert r.violations == 0

    def test_probe_deterministic(self):
        e = make_embedding(make_sweep_schema(8, 3), 256, 42)
        a = run_separation_probe(e, 2, 40, np.random.default_rng(43))
        b = run_separation_probe(e, 2, 40, np.random.default_rng(43))
        assert a == b

    def test_probe_validation(self):
        e = make_embedding(make_sweep_schema(8, 3), 64, 44)
        with pytest.raises(InvalidSpecError):
            run_separation_probe(e, 2, 1, np.random.default_rng(0))
        with pytest.raises(InvalidSpecError):
            run_separation_probe(e, -1, 10, np.random.default_rng(0))
        for runs in (0, -3):
            with pytest.raises(InvalidSpecError, match="runs must be positive"):
                run_separation(64, 2, 10, runs)

    @pytest.mark.parametrize(
        "depth, samples, message",
        [(4, 1, "at least 2 samples"), (-1, 500, "depth must be non-negative")],
    )
    def test_run_separation_checks_before_embedding(self, monkeypatch, depth, samples, message):
        # the probe's own checks, made before the first embedding is sampled
        def no_embedding(*args):
            raise AssertionError("make_embedding called")

        monkeypatch.setattr(harness, "make_embedding", no_embedding)
        with pytest.raises(InvalidSpecError, match=message):
            run_separation(1000, depth, samples, 1)


class TestCsv:
    ROWS = [
        CellResult("tree", 128, 4, 10, 9, 12.3456),
        CellResult("tree", 128, 8, 10, 10, 7.0),
    ]

    def test_sweep_csv_golden(self):
        assert sweep_csv(self.ROWS) == (
            SWEEP_CSV_HEADER + "\n"
            "tree,128,4,10,9,0.900000,\n"
            "tree,128,8,10,10,1.000000,\n"
        )

    def test_sweep_csv_with_timings(self):
        out = sweep_csv(self.ROWS, timings=True)
        assert "tree,128,4,10,9,0.900000,12.346\n" in out

    def test_separation_csv_golden(self):
        # the bound column is jl_bound(3, 60, 512), computed as the row is written
        rows = [SeparationResult(512, 3, 60, 0.1234567, 0)]
        assert separation_csv(rows) == (
            SEPARATION_CSV_HEADER + "\n" + "512,3,60,0.123457,0.505862,0\n"
        )

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = SweepSpec(kind="list", dims=(128,), sizes=(2, 3), trials=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(sweep_csv(run_sweep(spec)))
        b.write_text(sweep_csv(run_sweep(spec)))
        assert a.read_bytes() == b.read_bytes()

    def test_separation_rerun_byte_identical(self, tmp_path):
        e = make_embedding(make_sweep_schema(8, 3), 128, 45)
        rows_a = [run_separation_probe(e, 2, 30, np.random.default_rng(46))]
        rows_b = [run_separation_probe(e, 2, 30, np.random.default_rng(46))]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(separation_csv(rows_a))
        b.write_text(separation_csv(rows_b))
        assert a.read_bytes() == b.read_bytes()
