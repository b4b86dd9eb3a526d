import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sl1 import matio
from sl1.cli import build_parser, main
from sl1.generators import load_bundle


def _files(directory):
    return sorted(os.listdir(directory))


def _read_all(directory):
    return {name: (directory / name).read_bytes() for name in _files(directory)}


def _digests(directory):
    return {name: hashlib.sha256(data).hexdigest()[:16]
            for name, data in _read_all(directory).items()}


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def _strict_json(path):
    """Parse a file as RFC 8259 JSON: Infinity, -Infinity and NaN raise."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


@pytest.fixture
def bundle(tmp_path):
    path = tmp_path / "bundle"
    code = main(["gen", "--out", str(path), "--n", "10", "--m", "12", "--k", "2",
                 "--noise", "sparse", "--s", "2", "--seed", "21"])
    assert code == 0
    return path


class TestGen:
    def test_writes_complete_bundle(self, bundle):
        assert _files(bundle) == ["meta.json", "n.csv", "phi.bin", "x.csv", "y.csv"]
        inst = load_bundle(bundle)
        assert inst.n == 10 and inst.m == 12 and inst.k == 2

    def test_missing_output_directory_created(self, tmp_path):
        nested = tmp_path / "a" / "b" / "c"
        assert main(["gen", "--out", str(nested), "--n", "4", "--m", "3",
                     "--k", "1", "--seed", "1"]) == 0
        assert nested.is_dir()

    def test_rerun_is_byte_identical(self, tmp_path, bundle):
        first = _read_all(bundle)
        assert main(["gen", "--config", str(bundle / "meta.json")]) == 0
        assert _read_all(bundle) == first

    def test_invalid_k_exits_2_with_named_precondition(self, tmp_path, capsys):
        code = main(["gen", "--out", str(tmp_path / "x"), "--n", "3", "--m", "3",
                     "--k", "7", "--seed", "0"])
        assert code == 2
        assert "k" in capsys.readouterr().err

    def test_missing_required_parameter_exits_2(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "x")]) == 2
        assert "missing required parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3"])
    def test_config_that_is_not_an_object_exits_3(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert main(["gen", "--config", str(config)]) == 3
        assert "must be a JSON object" in capsys.readouterr().err

    # sha256 prefixes of the five bundle files, recorded before the
    # instance spec moved into generators.make_instance (x86-64 Linux,
    # numpy 2.4).  Each bundle is also replayed from its meta.json.
    @pytest.mark.parametrize("flags, digests", [
        ("--noise none",
         {"meta.json": "4840eb38d4b70ab8", "n.csv": "34dc805caeaea7d4",
          "phi.bin": "9b49a9095421c117", "x.csv": "99d3c2269d94953f",
          "y.csv": "b7b221dd524bb088"}),
        ("--amplitude gaussian --noise sparse --s 3 --scale 2.5",
         {"meta.json": "a7b7ad13db49df9b", "n.csv": "34ea99123da86b75",
          "phi.bin": "9b49a9095421c117", "x.csv": "db6710a9db97088b",
          "y.csv": "7a3712d61d7b59dd"}),
        ("--amplitude uniform:0.5:1.0 --noise sparse --s 3 --epsilon 0.7",
         {"meta.json": "a40e4909451bf94d", "n.csv": "b4c3dac785385557",
          "phi.bin": "9b49a9095421c117", "x.csv": "5fc232ddc3a3d6b1",
          "y.csv": "46914bc62c29e45a"}),
        ("--signal compressible --p 1.5 --noise laplacian --quantile 0.9",
         {"meta.json": "c2f137aeb06685e6", "n.csv": "2aa34030f6f8d491",
          "phi.bin": "9b49a9095421c117", "x.csv": "16ad3ece5f276696",
          "y.csv": "f3e15b0f226816f3"}),
    ])
    def test_bundle_bytes_pinned(self, tmp_path, monkeypatch, flags, digests):
        monkeypatch.chdir(tmp_path)  # meta.json echoes the relative --out
        bundle = tmp_path / "b"
        assert main(["gen", "--out", "b", "--n", "24", "--m", "32", "--k", "2",
                     "--seed", "7", *flags.split()]) == 0
        assert _digests(bundle) == digests
        assert main(["gen", "--config", "b/meta.json"]) == 0
        assert _digests(bundle) == digests

    @pytest.mark.parametrize("config, flags, named", [
        ({"signal": "bogus"}, [], "unknown signal kind 'bogus'"),
        ({"noise": "bogus"}, [], "unknown noise kind 'bogus'"),
        ({}, ["--noise", "sparse", "--s", "0"], "s=0"),
        ({}, ["--noise", "sparse", "--s", "0", "--epsilon", "0.5"], "s=0"),
        ({}, ["--noise", "sparse", "--s", "11", "--m", "10"], "s=11"),
    ])
    def test_invalid_instance_spec_exits_2_without_bundle(self, tmp_path, capsys,
                                                          config, flags, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"out": str(tmp_path / "out"), "n": 12, "m": 8, "k": 1,
                                    **config}))
        assert main(["gen", "--config", str(path), *flags]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_laplacian_and_compressible_options(self, tmp_path):
        path = tmp_path / "lap"
        assert main(["gen", "--out", str(path), "--n", "8", "--m", "6", "--k", "2",
                     "--signal", "compressible", "--p", "1.5",
                     "--noise", "laplacian", "--quantile", "0.9", "--seed", "3"]) == 0
        meta = matio.read_json(path / "meta.json")
        assert meta["noise"]["kind"] == "laplacian"
        assert "exceeded_quantile" in meta["noise"]


class TestSolve:
    def test_methods_agree_on_bundle(self, bundle, tmp_path):
        out_lp = tmp_path / "lp.json"
        out_fo = tmp_path / "fo.json"
        assert main(["solve", "--bundle", str(bundle), "--out", str(out_lp),
                     "--method", "lp-exact"]) == 0
        assert main(["solve", "--bundle", str(bundle), "--out", str(out_fo),
                     "--method", "first-order"]) == 0
        lp = matio.read_json(out_lp)
        fo = matio.read_json(out_fo)
        assert abs(lp["objective"] - fo["objective"]) <= 1e-6 * (1 + lp["objective"])
        assert lp["config"]["method"] == "lp-exact"
        assert set(fo) == {"config", "objective", "residual_l1", "status", "iters", "u_star",
                           "certificate"}

    def test_zero_solution_when_epsilon_dominates(self, tmp_path):
        # a bundle whose epsilon exceeds ||y||_1 admits u = 0
        import dataclasses
        from sl1.core import norm_lp
        from sl1.generators import make_instance, save_bundle
        from sl1.rng import RngSpec
        inst = make_instance(6, 4, 1, {"kind": "none"},
                             {"kind": "sparse", "amplitude": "unit"}, RngSpec(5))
        inst = dataclasses.replace(inst, epsilon=2.0 * norm_lp(inst.y, 1))
        path = tmp_path / "easy"
        save_bundle(path, inst)
        out = tmp_path / "res.json"
        assert main(["solve", "--bundle", str(path), "--out", str(out)]) == 0
        doc = matio.read_json(out)
        assert doc["objective"] == 0.0
        assert all(v == 0.0 for v in doc["u_star"])

    def test_rerun_from_embedded_config_identical(self, bundle, tmp_path):
        out = tmp_path / "res.json"
        assert main(["solve", "--bundle", str(bundle), "--out", str(out)]) == 0
        first = out.read_bytes()
        assert main(["solve", "--config", str(out)]) == 0
        assert out.read_bytes() == first

    def test_corrupt_magic_exits_3_without_output(self, bundle, tmp_path):
        blob = bytearray((bundle / "phi.bin").read_bytes())
        blob[:4] = b"EVIL"
        (bundle / "phi.bin").write_bytes(bytes(blob))
        out = tmp_path / "never.json"
        assert main(["solve", "--bundle", str(bundle), "--out", str(out)]) == 3
        assert not out.exists()

    def test_missing_bundle_exits_3(self, tmp_path):
        assert main(["solve", "--bundle", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "r.json")]) == 3

    @pytest.mark.parametrize("name, edit, message", [
        ("x.csv", lambda v: v[:-1], "dimensions"),
        ("y.csv", lambda v: [v[0] + 1.0] + v[1:], "measurements"),
        ("meta.json", {"k": 0}, "k must be in"),
        ("meta.json", {"k": 11}, "k must be in"),
        ("meta.json", {"k": 2.7}, "k must be an integer"),
        ("meta.json", {"k": True}, "k must be an integer"),
        ("meta.json", {"k": "2"}, "k must be an integer"),
        ("meta.json", {"epsilon": -1.0}, "epsilon must be nonnegative"),
        ("meta.json", {"epsilon": 0.0}, "noise l1 mass"),
        ("meta.json", {"epsilon": None}, "inconsistent instance bundle"),
        ("meta.json", {"epsilon": float("nan")}, "NaN is not a JSON number"),
        ("meta.json", {"epsilon": float("inf")}, "Infinity is not a JSON number"),
        ("meta.json", {"epsilon": True}, "epsilon must be a number"),
        ("meta.json", {"epsilon": "1.0"}, "epsilon must be a number"),
        ("meta.json", {"epsilon": 10 ** 400}, "too large to convert to float"),
        ("meta.json", "1e400", "1e400 is beyond float range"),
    ], ids=["short-x", "edited-y", "k-0", "k-above-n", "k-fraction", "k-boolean", "k-string",
            "negative-epsilon", "epsilon-below-noise", "null-epsilon", "nan-epsilon",
            "infinite-epsilon", "epsilon-boolean", "epsilon-string", "epsilon-beyond-float",
            "epsilon-overflow"])
    @pytest.mark.parametrize("method", ["first-order", "lp-exact"])
    def test_hand_edited_bundle_exits_3_without_output(self, bundle, tmp_path, capsys,
                                                       name, edit, message, method):
        path = bundle / name
        if isinstance(edit, str):  # epsilon's raw text: no float dumps as 1e400
            meta = json.loads(path.read_text())
            path.write_text(json.dumps({**meta, "epsilon": "RAW"}).replace('"RAW"', edit))
        elif name == "meta.json":
            # json.dumps writes NaN and Infinity as the bare tokens
            path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        else:
            values = edit(matio.read_vector_csv(path).tolist())
            path.write_text("".join(f"{v!r}\n" for v in values))
        out = tmp_path / "never.json"
        assert main(["solve", "--bundle", str(bundle), "--out", str(out),
                     "--method", method]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_nonconvergence_exits_4_but_writes_result(self, bundle, tmp_path):
        out = tmp_path / "res.json"
        assert main(["solve", "--bundle", str(bundle), "--out", str(out),
                     "--max-iters", "3"]) == 4
        assert matio.read_json(out)["status"] == "iteration-limit"

    def test_infeasible_lp_exact_exits_4(self, tmp_path, monkeypatch):
        # a valid bundle always admits its own x, so the loader is replaced
        # by one returning a tall phi that cannot reach y within epsilon
        from types import SimpleNamespace
        from sl1 import cli
        from sl1.rng import RngSpec, Stream
        st = Stream(RngSpec(17))
        inst = SimpleNamespace(phi=st.normal(48).reshape(12, 4), y=st.normal(12), epsilon=0.01)
        monkeypatch.setattr(cli, "load_bundle", lambda path: inst)
        out = tmp_path / "res.json"
        assert main(["solve", "--bundle", "unused", "--out", str(out),
                     "--method", "lp-exact"]) == 4
        # the infinite objective and residual are JSON null, and a solve
        # without a certificate writes none
        doc = _strict_json(out)
        assert set(doc) == {"config", "objective", "residual_l1", "status", "iters", "u_star"}
        assert doc["status"] == "infeasible-detected"
        assert doc["objective"] is None and doc["residual_l1"] is None
        assert doc["u_star"] == [0.0] * 4

    def test_first_order_output_independent_of_blas_threads(self, tmp_path):
        # The smallest bundle found on which a first-order solve that took
        # its step from an SVD norm and polished through an early pinv
        # wrote different bytes under one and two BLAS threads; fresh
        # processes, as the thread count is fixed at import.
        import sl1
        assert main(["gen", "--out", str(tmp_path / "b"), "--n", "384", "--m", "192",
                     "--k", "8", "--noise", "sparse", "--s", "4", "--seed", "7"]) == 0
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.path.dirname(os.path.dirname(sl1.__file__)))
            subprocess.run([sys.executable, "-m", "sl1", "solve", "--bundle", "b",
                            "--method", "first-order", "--out", "fo.json"],
                           cwd=tmp_path, env=env, check=True, capture_output=True)
            outputs.append((tmp_path / "fo.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_lp_exact_output_independent_of_blas_threads(self, tmp_path):
        # a 256x128 bundle: each pivot's update is a (768 x 2) @ (2 x 130)
        # product, the largest the suite's lp-exact solves make (four times
        # the exact grid's 384 x 66); its bytes must not depend on how the
        # BLAS splits it
        import sl1
        assert main(["gen", "--out", str(tmp_path / "b"), "--n", "256", "--m", "128",
                     "--k", "5", "--noise", "sparse", "--s", "5", "--seed", "11"]) == 0
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.path.dirname(os.path.dirname(sl1.__file__)))
            subprocess.run([sys.executable, "-m", "sl1", "solve", "--bundle", "b",
                            "--method", "lp-exact", "--out", "lp.json"],
                           cwd=tmp_path, env=env, check=True, capture_output=True)
            outputs.append((tmp_path / "lp.json").read_bytes())
        assert outputs[0] == outputs[1]
        assert matio.read_json(tmp_path / "lp.json")["status"] == "optimal"


class TestConditions:
    def test_report_on_bundle(self, bundle, tmp_path):
        out = tmp_path / "cond.json"
        assert main(["conditions", "--bundle", str(bundle), "--out", str(out),
                     "--supports", "8", "--pairs", "8", "--seed", "2",
                     "--exhaustive-cap", "0"]) == 0
        doc = matio.read_json(out)
        assert doc["verdict"] in ("satisfied", "violated", "inconclusive")
        assert doc["estimate"]["k"] == 2

    def test_zero_budget_gives_inconclusive_zero_estimates(self, bundle, tmp_path):
        out = tmp_path / "cond0.json"
        assert main(["conditions", "--bundle", str(bundle), "--out", str(out),
                     "--supports", "0", "--pairs", "0"]) == 0
        doc = matio.read_json(out)
        assert doc["verdict"] == "inconclusive"
        assert doc["estimate"]["norm_dev_lower"] == 0.0
        assert doc["estimate"]["cross_dev_lower"] == 0.0
        assert doc["estimate"]["samples"] == 0

    @pytest.mark.parametrize("flag, value", [
        ("--supports", "-5"), ("--starts", "-1"), ("--steps", "-3"),
        ("--overlap-share", "1.5")])
    def test_out_of_range_budget_exits_2(self, bundle, tmp_path, flag, value):
        out = tmp_path / "cond.json"
        assert main(["conditions", "--bundle", str(bundle), "--out", str(out),
                     flag, value]) == 2
        assert not out.exists()

    def test_matrix_file_input(self, bundle, tmp_path):
        out = tmp_path / "cond.json"
        assert main(["conditions", "--matrix", str(bundle / "phi.bin"),
                     "--k", "1", "--out", str(out), "--supports", "4",
                     "--pairs", "4"]) == 0
        assert matio.read_json(out)["estimate"]["k"] == 1

    def test_non_finite_matrix_file_exits_3(self, tmp_path, capsys):
        import struct
        path = tmp_path / "nan.bin"
        path.write_bytes(b"SL1M" + struct.pack("<II", 2, 2)
                         + np.array([1.0, np.nan, 0.5, 2.0]).astype("<f8").tobytes())
        out = tmp_path / "cond.json"
        assert main(["conditions", "--matrix", str(path), "--k", "1", "--out", str(out)]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_neither_bundle_nor_matrix_exits_2(self, tmp_path, capsys):
        out = tmp_path / "cond.json"
        assert main(["conditions", "--k", "1", "--out", str(out)]) == 2
        assert "bundle or matrix" in capsys.readouterr().err
        assert not out.exists()

    def test_output_independent_of_threads_flag(self, bundle, tmp_path):
        out = tmp_path / "cond.json"
        args = ["conditions", "--bundle", str(bundle), "--out", str(out),
                "--supports", "8", "--pairs", "8", "--seed", "2",
                "--exhaustive-cap", "0"]
        assert main(["--threads", "1", *args]) == 0
        first = out.read_bytes()
        assert main(["--threads", "2", *args]) == 0
        assert out.read_bytes() == first

    def test_replays_config_with_retired_workers_key(self, bundle, tmp_path):
        out = tmp_path / "cond.json"
        assert main(["conditions", "--bundle", str(bundle), "--out", str(out),
                     "--supports", "4", "--pairs", "4", "--exhaustive-cap", "0"]) == 0
        first = out.read_bytes()
        doc = json.loads(first)
        doc["config"]["workers"] = 2
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        assert main(["conditions", "--config", str(old)]) == 0
        assert out.read_bytes() == first


    # sha256 prefixes of the two searches' JSON (sort_keys) on the
    # benchmark's two 60x200 k = 3 matrices.  The norm search's were
    # recorded before its lanes were batched across supports and must not
    # move; the cross search's come from its pair draws, made in pair order
    # on one stream (re-pinned from "a166afc506ab4638", "6f0f869ab53d3b40"
    # and files "780cffcf17e7a4a2", "83472ffb74487c09" when the per-pair
    # keyed streams went).
    NORM_SEARCH = ["0345a4ede5717829", "0f88ccc2be8dc96c"]
    CROSS_SEARCH = ["ec31e5b811bdcb80", "37223dcbb3d57663"]
    K3_FILES = ["dc94b77184951e38", "2e0fddba42bbc036"]

    @staticmethod
    def _k3_bench_outputs(tmp_path, monkeypatch):
        from sl1.generators import gen_gaussian_matrix
        from sl1.rng import RngSpec
        monkeypatch.chdir(tmp_path)  # the echoed paths are relative
        for t in range(2):
            matio.write_matrix_bin(f"gauss{t}.bin",
                                   gen_gaussian_matrix(60, 200, RngSpec(17320, t)))
            assert main(["conditions", "--matrix", f"gauss{t}.bin", "--k", "3",
                         "--seed", "60222", "--stream", str(t), "--out", f"gauss{t}.json"]) == 0
            yield (tmp_path / f"gauss{t}.json").read_bytes()

    @staticmethod
    def _part_digest(data, part):
        doc = json.loads(data)["estimate"][part]
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]

    def test_k3_sampled_norm_search_pinned(self, tmp_path, monkeypatch):
        digests = [self._part_digest(data, "norm_search")
                   for data in self._k3_bench_outputs(tmp_path, monkeypatch)]
        assert digests == self.NORM_SEARCH

    def test_k3_sampled_cross_search_pinned(self, tmp_path, monkeypatch):
        outputs = list(self._k3_bench_outputs(tmp_path, monkeypatch))
        assert [self._part_digest(data, "cross_search") for data in outputs] == self.CROSS_SEARCH
        assert [hashlib.sha256(data).hexdigest()[:16] for data in outputs] == self.K3_FILES

    # sha256 prefixes of the JSON on the benchmark's two 400x8 toy matrices
    # (k = 1, exhaustive): the exact arc sweeps' witness coefficients.
    K1_FILES = ["64dc7beea6970482", "6b819898024f958a"]

    @staticmethod
    def _k1_bench_outputs(tmp_path, monkeypatch):
        from sl1.generators import make_instance
        from sl1.rng import RngSpec
        monkeypatch.chdir(tmp_path)
        for t in range(2):
            toy = make_instance(8, 400, 1, {"kind": "sparse", "s": 40, "scale": 1.0},
                                {"kind": "sparse", "amplitude": "gaussian"}, RngSpec(60221, t))
            matio.write_matrix_bin(f"toy{t}.bin", toy.phi)
            assert main(["conditions", "--matrix", f"toy{t}.bin", "--k", "1",
                         "--seed", "60222", "--stream", str(t), "--out", f"toy{t}.json"]) == 0
            yield (tmp_path / f"toy{t}.json").read_bytes()

    def test_k1_exhaustive_files_pinned(self, tmp_path, monkeypatch):
        outputs = self._k1_bench_outputs(tmp_path, monkeypatch)
        assert [hashlib.sha256(data).hexdigest()[:16] for data in outputs] == self.K1_FILES

    def test_k1_output_independent_of_block_size(self, tmp_path, monkeypatch):
        from sl1 import conditions
        default = list(self._k1_bench_outputs(tmp_path, monkeypatch))
        monkeypatch.setattr(conditions, "BLOCK", 1)
        assert list(self._k1_bench_outputs(tmp_path, monkeypatch)) == default

    def test_k3_output_independent_of_block_size(self, tmp_path, monkeypatch):
        from sl1 import conditions
        default = list(self._k3_bench_outputs(tmp_path, monkeypatch))
        monkeypatch.setattr(conditions, "BLOCK", 1)
        assert list(self._k3_bench_outputs(tmp_path, monkeypatch)) == default

    def test_k3_output_independent_of_blas_threads(self, tmp_path):
        # fresh processes, as the BLAS thread count is fixed at import
        import sl1
        from sl1.generators import gen_gaussian_matrix
        from sl1.rng import RngSpec
        matio.write_matrix_bin(str(tmp_path / "phi.bin"),
                               gen_gaussian_matrix(200, 400, RngSpec(17321)))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.path.dirname(os.path.dirname(sl1.__file__)))
            subprocess.run([sys.executable, "-m", "sl1", "conditions", "--matrix", "phi.bin",
                            "--k", "3", "--seed", "8", "--out", "cond.json"],
                           cwd=tmp_path, env=env, check=True, capture_output=True)
            outputs.append((tmp_path / "cond.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_k1_exhaustive_is_exact_and_replays(self, tmp_path):
        bundle, out = str(tmp_path / "b"), tmp_path / "cond.json"
        assert main(["gen", "--out", bundle, "--n", "8", "--m", "40", "--k", "1",
                     "--seed", "5"]) == 0
        assert main(["conditions", "--bundle", bundle, "--out", str(out)]) == 0
        estimate = matio.read_json(out)["estimate"]
        assert estimate["refinement"] == "exact-arcs" and estimate["exhaustive"]
        first = out.read_bytes()
        assert main(["conditions", "--config", str(out)]) == 0
        assert out.read_bytes() == first


class TestTrace:
    def test_noiseless_bundle_all_rows_hold(self, tmp_path):
        path = tmp_path / "clean"
        assert main(["gen", "--out", str(path), "--n", "8", "--m", "12", "--k", "1",
                     "--noise", "none", "--seed", "8"]) == 0
        out = tmp_path / "trace.json"
        assert main(["trace", "--bundle", str(path), "--out", str(out),
                     "--supports", "8", "--pairs", "8"]) == 0
        doc = matio.read_json(out)
        assert all(row["holds"] for row in doc["trace"]["rows"]
                   if not row["conditional"])
        assert doc["trace"]["rows"][0]["name"] == "error-triangle"

    def test_trace_embeds_config_and_solver_summary(self, bundle, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "--bundle", str(bundle), "--out", str(out),
                     "--supports", "4", "--pairs", "4",
                     "--exhaustive-cap", "0"]) == 0
        doc = matio.read_json(out)
        assert doc["config"]["bundle"] == str(bundle)
        assert doc["solver"]["status"] == "optimal"

    def test_unconverged_solve_exits_4_and_writes_nothing(self, bundle, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "--bundle", str(bundle), "--out", str(out),
                     "--max-iters", "3"]) == 4
        assert not out.exists()


class TestGrid:
    def test_smoke_grid(self, tmp_path):
        out = tmp_path / "grid"
        assert main(["grid", "--out", str(out), "--n", "8",
                     "--m-values", "10,12", "--k-values", "1,2",
                     "--s-values", "0,1", "--trials", "3", "--seed", "4"]) == 0
        csv_lines = (out / "trials.csv").read_text().splitlines()
        assert csv_lines[0] == "N,M,K,s,eps,seed,status,err_l2,e0,bound,bound_holds,iters,runtime_ms"
        assert len(csv_lines) == 1 + 2 * 2 * 2 * 3
        summary = matio.read_json(out / "summary.json")
        assert len(summary["cells"]) == 8

    def test_rerun_identical_up_to_runtime_column(self, tmp_path):
        out = tmp_path / "grid"
        args = ["grid", "--out", str(out), "--n", "6", "--m-values", "8",
                "--k-values", "1", "--s-values", "1", "--trials", "2", "--seed", "6"]
        assert main(args) == 0
        first_csv = (out / "trials.csv").read_text()
        first_summary = (out / "summary.json").read_bytes()
        assert main(["grid", "--config", str(out / "summary.json")]) == 0
        second_csv = (out / "trials.csv").read_text()

        def strip_runtime(text):
            return [",".join(line.split(",")[:-1]) for line in text.splitlines()]

        assert strip_runtime(first_csv) == strip_runtime(second_csv)
        assert (out / "summary.json").read_bytes() == first_summary

    def test_output_independent_of_threads_flag(self, tmp_path):
        out = tmp_path / "grid"
        args = ["grid", "--out", str(out), "--n", "8", "--m-values", "10",
                "--k-values", "1,2", "--s-values", "1", "--trials", "2", "--seed", "13"]

        def outputs():
            lines = (out / "trials.csv").read_text().splitlines()
            return ([line.rsplit(",", 1)[0] for line in lines],
                    (out / "summary.json").read_bytes())

        assert main(["--threads", "1", *args]) == 0
        first = outputs()
        assert main(["--threads", "2", *args]) == 0
        assert outputs() == first

    # sha256 of the first 12 columns (runtime_ms cut) of trials.csv of the
    # 40-trial lp-exact grid at 128x64, k = s = 4, seed 14142, recorded
    # since solve_lp_exact keeps the dual's residual multiplier free: the
    # pivot counts moved and err_l2 moved in its last bits (1,561 pivots;
    # 2,330 with the multiplier split in two, 2,489 before the power-of-two
    # scaling) (x86-64 Linux, numpy 2.4)
    EXACT_TRIALS = "33e7539bfc684294320871670a6746e54b947f723070a6e47459ae12f5b6e5f0"

    def test_lp_exact_grid_bytes_pinned(self, tmp_path):
        out = tmp_path / "exact"
        assert main(["grid", "--out", str(out), "--n", "128", "--m-values", "64",
                     "--k-values", "4", "--s-values", "4", "--trials", "40",
                     "--seed", "14142", "--method", "lp-exact", "--max-iters", "2000"]) == 0
        lines = (out / "trials.csv").read_text().splitlines()
        cut = "".join(",".join(line.split(",")[:12]) + "\n" for line in lines)
        assert hashlib.sha256(cut.encode()).hexdigest() == self.EXACT_TRIALS

    # the same for the first-order grid at 256 x {96, 128}, k = 5,
    # s in {0, 5}, 30 trials per cell, seed 14142, recorded since the
    # finish on the active set runs once the sign pattern of u holds for
    # solver.SETTLE iterations, not at the next gap check, and solves its
    # two least-squares systems from one QR factorisation (numpy 2.4)
    FIRST_ORDER_TRIALS = "4e2be6b93d16349e1e20a34822669d829a885a6cc7d8d5041a5dbb45e3ab14e3"

    def test_first_order_grid_bytes_pinned(self, tmp_path):
        out = tmp_path / "grid"
        assert main(["grid", "--out", str(out), "--n", "256", "--m-values", "96,128",
                     "--k-values", "5", "--s-values", "0,5", "--trials", "30",
                     "--seed", "14142"]) == 0
        lines = (out / "trials.csv").read_text().splitlines()
        cut = "".join(",".join(line.split(",")[:12]) + "\n" for line in lines)
        assert hashlib.sha256(cut.encode()).hexdigest() == self.FIRST_ORDER_TRIALS
        # 8,160 before the least-squares finish, 4,930 while it waited for
        # the sign pattern of u to repeat at two gap checks
        assert sum(int(line.split(",")[11]) for line in lines[1:]) == 3_538

    def test_uniform_amplitude_flag_runs_and_replays(self, tmp_path):
        out = tmp_path / "grid"
        assert main(["grid", "--out", str(out), "--n", "8", "--m-values", "10",
                     "--k-values", "2", "--s-values", "1", "--trials", "2", "--seed", "5",
                     "--amplitude", "uniform:0.5:1.0"]) == 0
        first_csv = (out / "trials.csv").read_text()
        first_summary = (out / "summary.json").read_bytes()
        assert matio.read_json(out / "summary.json")["config"]["amplitude"] == ["uniform", 0.5, 1.0]
        assert main(["grid", "--config", str(out / "summary.json")]) == 0

        def strip_runtime(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        assert strip_runtime((out / "trials.csv").read_text()) == strip_runtime(first_csv)
        assert (out / "summary.json").read_bytes() == first_summary

    @pytest.mark.parametrize("amplitude", ["uniform:0.5", "uniform:a:b", "bogus",
                                           ["uniform", 0.5], ["gaussian"]])
    def test_malformed_amplitude_exits_2(self, tmp_path, amplitude):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out": str(tmp_path / "g"), "n": 8, "m_values": [10],
                                      "k_values": [2], "s_values": [1], "trials": 1,
                                      "amplitude": amplitude}))
        assert main(["grid", "--config", str(config)]) == 2

    def test_negative_trials_exits_2(self, tmp_path):
        out = tmp_path / "g"
        assert main(["grid", "--out", str(out), "--n", "8", "--m-values", "10",
                     "--k-values", "1", "--s-values", "0", "--trials", "-2"]) == 2
        assert not out.exists()

    def test_zero_trials_summary_is_strict_json_and_replays(self, tmp_path):
        out = tmp_path / "g"
        assert main(["grid", "--out", str(out), "--n", "8", "--m-values", "10",
                     "--k-values", "1", "--s-values", "0", "--trials", "0"]) == 0
        first = (out / "summary.json").read_bytes()
        doc = _strict_json(out / "summary.json")
        cell = doc["cells"][0]
        # a cell without trials has no rates or mean, not zero ones
        assert cell["trials"] == 0
        for key in ("err_median", "err_q90", "bound_rate", "exact_rate", "solved_rate",
                    "mean_iters", "iters_p50", "iters_p90", "iters_max"):
            assert cell[key] is None, key
        assert matio.dump_json(doc).encode() == first
        assert main(["grid", "--config", str(out / "summary.json")]) == 0
        assert (out / "summary.json").read_bytes() == first

    def test_bad_values_exit_2(self, tmp_path, capsys):
        # k > n is rejected with the spec, before any trial runs or any
        # file is written; a malformed flag value is a usage error too
        assert main(["grid", "--out", str(tmp_path / "g"), "--n", "6",
                     "--m-values", "8", "--k-values", "9", "--s-values", "0",
                     "--trials", "1", "--seed", "0"]) == 2
        assert "need 1 <= k <= n" in capsys.readouterr().err
        assert not (tmp_path / "g" / "trials.csv").exists()
        assert main(["grid", "--out", str(tmp_path / "g2"), "--n", "6",
                     "--m-values", "abc", "--k-values", "1", "--s-values", "0",
                     "--trials", "1", "--seed", "0"]) == 2


class TestImport:
    def test_package_imports_no_scipy(self):
        # scipy costs about 0.3 s and 17 MB of peak RSS at import; only the
        # Laplacian noise generator loads it, when called
        import sl1
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sl1.__file__)))
        code = "import sys, sl1, sl1.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


_SOLVER_ECHO = {"feasibility_tol": 1e-08, "max_iters": 50000, "method": "first-order",
                "objective_tol": 1e-07}
_SEARCH_ECHO = {"exhaustive_cap": 10000, "overlap_share": 0.5, "pairs": 128, "seed": 0,
                "starts": 6, "steps": 40, "stream": 0, "supports": 64}


class TestConfig:
    # Recorded before the solver, search and grid defaults moved out of
    # the CLI into SolverConfig, SearchBudget and GridSpec.
    ECHOES = {
        "gen": {"amplitude": "unit", "epsilon": None, "k": 1, "m": 8, "n": 6, "noise": "none",
                "p": 1.0, "quantile": 0.99, "s": 1, "scale": 1.0, "seed": 0,
                "signal": "sparse", "stream": 0},
        "solve": {"bundle": "BUNDLE", **_SOLVER_ECHO},
        "conditions": {"bundle": "BUNDLE", "k": 1, "matrix": None, **_SEARCH_ECHO},
        "trace": {"bundle": "BUNDLE", **_SOLVER_ECHO, **_SEARCH_ECHO},
        "grid": {"amplitude": "gaussian", "k_values": [1], "m_values": [6], "n": 4,
                 "s_values": [0], "seed": 0, "spike_scale": 1.0, "stream": 0, "trials": 10,
                 **_SOLVER_ECHO},
    }

    @staticmethod
    def _default_echo(tmp_path, command):
        """The config echo of command run with its required flags only."""
        bundle, out = str(tmp_path / "bundle"), str(tmp_path / "out")
        assert main(["gen", "--out", bundle, "--n", "6", "--m", "8", "--k", "1"]) == 0
        flags = {"gen": ["--n", "6", "--m", "8", "--k", "1"],
                 "grid": ["--n", "4", "--m-values", "6", "--k-values", "1", "--s-values", "0"]}
        assert main([command, "--out", out,
                     *flags.get(command, ["--bundle", bundle])]) == 0
        written = {"gen": "meta.json", "grid": "summary.json"}.get(command)
        config = matio.read_json(os.path.join(out, written) if written else out)["config"]
        return config, bundle, out

    @pytest.mark.parametrize("command", list(ECHOES))
    def test_default_config_echo(self, tmp_path, command):
        config, bundle, out = self._default_echo(tmp_path, command)
        expected = {key: bundle if value == "BUNDLE" else value
                    for key, value in self.ECHOES[command].items()}
        expected["out"] = out
        # the JSON text tells 1 from 1.0
        assert json.dumps(config, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_no_flag_or_default_carries_over_between_calls(self, tmp_path):
        # main keeps one parser per process: a call with flags, then a call
        # of another command with none, echoes that command's defaults
        flagged = {"gen": ["--out", str(tmp_path / "g"), "--n", "5", "--m", "7", "--k", "2",
                           "--seed", "4", "--noise", "sparse", "--s", "2"],
                   "solve": ["--method", "lp-exact", "--max-iters", "77"],
                   "conditions": ["--k", "1", "--supports", "3", "--pairs", "5", "--seed", "9"],
                   "trace": ["--objective-tol", "1e-6", "--steps", "2", "--stream", "3"],
                   "grid": ["--out", str(tmp_path / "grid"), "--n", "4", "--m-values", "6",
                            "--k-values", "1", "--s-values", "0", "--trials", "2",
                            "--spike-scale", "2", "--method", "lp-exact"]}
        for command in self.ECHOES:
            for other in self.ECHOES:
                if other == command:
                    continue
                run = tmp_path / f"{other}-{command}"
                run.mkdir()
                bundle = str(run / "bundle")
                assert main(["gen", "--out", bundle, "--n", "6", "--m", "8", "--k", "1"]) == 0
                extra = [] if other in ("gen", "grid") else ["--bundle", bundle, "--out",
                                                            str(run / "flagged.json")]
                assert main([other, *flagged[other], *extra]) == 0
                config, bundle, out = self._default_echo(run, command)
                expected = {key: bundle if value == "BUNDLE" else value
                            for key, value in self.ECHOES[command].items()}
                expected["out"] = out
                assert json.dumps(config, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @pytest.mark.parametrize("command", list(ECHOES))
    def test_one_flag_per_config_key(self, tmp_path, command):
        # every setting has a flag and a config key, and nothing else does
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)).choices[command]
        dests = {action.dest for action in sub._actions if action.option_strings}
        assert dests - {"help", "config"} == set(self._default_echo(tmp_path, command)[0])

    def test_gen_epsilon_flag_echoes_a_number(self, tmp_path):
        out = tmp_path / "bundle"
        assert main(["gen", "--out", str(out), "--n", "6", "--m", "8", "--k", "1",
                     "--noise", "sparse", "--s", "2", "--epsilon", "0.75"]) == 0
        assert json.dumps(matio.read_json(out / "meta.json")["config"]["epsilon"]) == "0.75"

    @pytest.mark.parametrize("command, key, value", [
        ("gen", "k", [1]),
        ("solve", "max_iters", None),
        ("solve", "out", 5),
        ("conditions", "supports", None),
        ("trace", "steps", [40]),
        ("grid", "m_values", 5),
        ("grid", "trials", [1]),
        ("gen", "p", "abc"),
        ("solve", "feasibility_tol", "nan"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, bundle, tmp_path, capsys,
                                                 command, key, value):
        base = {"gen": {"n": 6, "m": 8, "k": 1},
                "grid": {"n": 4, "m_values": [6], "k_values": [1], "s_values": [0],
                         "trials": 1}}.get(command, {"bundle": str(bundle)})
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**base, "out": str(tmp_path / "out"), key: value}))
        before = _files(tmp_path)
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")
        assert _files(tmp_path) == before

    @pytest.mark.parametrize("command", ["gen", "solve", "conditions", "trace", "grid"])
    def test_config_holding_nan_exits_3(self, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_text('{"out": "%s", "epsilon": NaN}' % (tmp_path / "never"))
        assert main([command, "--config", str(config)]) == 3
        assert "NaN is not a JSON number" in capsys.readouterr().err
        assert _files(tmp_path) == ["config.json"]

    def test_config_number_beyond_float_range_exits_3(self, bundle, tmp_path, capsys):
        # json reads 1e400 as inf, on which this solve would run and exit 4
        config, out = tmp_path / "config.json", tmp_path / "never.json"
        config.write_text('{"bundle": "%s", "out": "%s", "feasibility_tol": 1e400}'
                          % (bundle, out))
        capsys.readouterr()
        assert main(["solve", "--config", str(config)]) == 3
        assert "1e400 is beyond float range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("gen", "m", True),
        ("grid", "trials", True),
        ("grid", "m_values", [True, 2]),
        ("solve", "feasibility_tol", False),
    ])
    def test_json_boolean_is_not_a_number(self, bundle, tmp_path, capsys, command, key, value):
        # bool is an int in Python, so a JSON boolean must be refused as
        # itself, not read as 1 or 0 (0.0 would fail later for another reason)
        base = {"gen": {"n": 6, "m": 8, "k": 1},
                "grid": {"n": 4, "m_values": [6], "k_values": [1], "s_values": [0],
                         "trials": 1}}.get(command, {"bundle": str(bundle)})
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**base, "out": str(tmp_path / "out"), key: value}))
        before = _files(tmp_path)
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and f"got {value!r}" in err
        assert _files(tmp_path) == before
