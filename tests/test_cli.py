import ast
import copy
import importlib
import inspect
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cylbill
from cylbill import builders, classify, cli, config, fileio, geometry, paths
from cylbill import torusflow as tf
from cylbill.cli import main
from cylbill.errors import DegeneracyError, InputError, LimitError, UsageError
from cylbill.model import (CylindricBilliardSystem, load_system, save_system,
                           system_to_dict)
from cylbill.paths import save_sigma
from conftest import (make_leaky_witness_system, make_malformed_axis_system,
                      make_mixed_axis_system, make_sphere_system,
                      make_thin_lattice_system, make_two_block_system)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_timestamp(text: str) -> str:
    return "\n".join(l for l in text.splitlines()
                     if not l.startswith("# generated:"))


@pytest.fixture
def hardball_file(tmp_path, capsys):
    out = tmp_path / "hb3.json"
    code, _, err = run(capsys, "build", "hardball", "--n", "3", "--nu", "2",
                       "--masses", "1,1,1", "--r", "0.1", "--out", str(out))
    assert code == 0, err
    return out


class TestBuild:
    def test_hardball_radius(self, tmp_path, capsys):
        out = tmp_path / "hb2.json"
        code, _, _ = run(capsys, "build", "hardball", "--n", "2", "--nu", "2",
                         "--masses", "1,1", "--r", "0.1", "--out", str(out))
        assert code == 0
        system = load_system(out)
        assert system.dim == 2
        assert abs(system.cylinders[0].radius - 0.1 * np.sqrt(2)) < 1e-16

    def test_directsum_orthogonal(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        fileio.dump({
            "block_dims": [2, 2],
            "bases": [[[1.0, 0, 0, 0], [0, 1.0, 0, 0]],
                      [[0, 0, 1.0, 0], [0, 0, 0, 1.0]]],
            "radii": [0.3, 0.3],
        }, params)
        out = tmp_path / "ds.json"
        code, _, _ = run(capsys, "build", "directsum",
                         "--params", str(params), "--out", str(out))
        assert code == 0
        code, text, _ = run(capsys, "classify", "--system", str(out))
        assert code == 0
        assert '"transitive": false' in text
        assert "splitting_witness" in text

    def test_directsum_skew_sum_simulates(self, tmp_path, capsys):
        # rational blocks whose axes an entry-by-entry reading of an SVD
        # basis misses
        params = tmp_path / "params.json"
        fileio.dump({
            "block_dims": [2, 2],
            "bases": [[[1, 1, 0, 0], [0, 0, 1, 2]],
                      [[1, 0, 0, 0], [0, 0, 1, 0]]],
            "radii": [0.1, 0.1],
        }, params)
        out = tmp_path / "skew.json"
        code, _, err = run(capsys, "build", "directsum",
                           "--params", str(params), "--out", str(out))
        assert code == 0, err
        assert all(c.lattice_aligned for c in load_system(out).cylinders)
        code, _, err = run(capsys, "simulate", "--system", str(out),
                           "--random", "--seed", "1", "--collisions", "100",
                           "--out", str(tmp_path / "traj.json"))
        assert code == 0, err

    @pytest.mark.parametrize("missing", ["bases", "block_dims", "radii"])
    def test_directsum_missing_key_validation_error(self, tmp_path, capsys,
                                                    missing):
        params = {
            "block_dims": [2, 2],
            "bases": [[[1.0, 0, 0, 0], [0, 1.0, 0, 0]],
                      [[0, 0, 1.0, 0], [0, 0, 0, 1.0]]],
            "radii": [0.3, 0.3],
        }
        del params[missing]
        path = tmp_path / "params.json"
        fileio.dump(params, path)
        code, _, err = run(capsys, "build", "directsum", "--params",
                           str(path), "--out", str(tmp_path / "ds.json"))
        assert code == 2
        assert err.startswith("validation failure:")
        assert repr(missing) in err
        assert len(err.strip().splitlines()) == 1

    def test_directsum_malformed_params_validation_error(self, tmp_path,
                                                         capsys):
        path = tmp_path / "params.json"
        path.write_text("{broken")
        code, _, err = run(capsys, "build", "directsum", "--params",
                           str(path), "--out", str(tmp_path / "ds.json"))
        assert code == 2
        assert err.startswith("validation failure:")

    def test_subbilliard(self, tmp_path, capsys, hardball_file):
        out = tmp_path / "sub.json"
        code, text, err = run(capsys, "build", "subbilliard",
                              "--system", str(hardball_file),
                              "--indices", "0", "--out", str(out))
        assert code == 0, err
        assert load_system(out).dim == 2
        body = report_body(text)
        assert body["drift_rank"] == 2
        assert "notes" not in body

    def test_missing_params_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "build", "hardball",
                           "--out", str(tmp_path / "x.json"))
        assert code == 4

    def test_invalid_params_validation_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "build", "hardball", "--n", "1",
                           "--nu", "2", "--masses", "1", "--r", "0.1",
                           "--out", str(tmp_path / "x.json"))
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("hardball", "--n", "3", "--nu", "2", "--masses", "1,1,1",
         "--r", "0.1", "--indices", "5", "--params", "x.json"),
        ("directsum", "--params", "x.json", "--n", "3"),
        ("subbilliard", "--system", "x.json", "--indices", "0",
         "--masses", "1"),
    ], ids=["hardball", "directsum", "subbilliard"])
    def test_option_of_another_kind_usage_error(self, capsys, tmp_path,
                                                argv):
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "build", *argv, "--out", str(out))
        assert code == 4
        assert err.startswith("usage error: unrecognized arguments: ")
        assert not out.exists()


class TestClassify:
    def test_hardball_report(self, capsys, hardball_file):
        code, text, _ = run(capsys, "classify", "--system",
                            str(hardball_file))
        assert code == 0
        assert '"transitive": true' in text
        assert '"transverse": true' in text
        assert '"commutant_dimension": 1' in text
        assert "# summary: transitive: yes" in text

    def test_graph_built_once(self, capsys, hardball_file, monkeypatch):
        # the transitivity verdict and graph_components share one graph
        built = []
        original = classify.non_orthogonality_graph
        monkeypatch.setattr(classify, "non_orthogonality_graph",
                            lambda bases: built.append(1) or original(bases))
        code, text, _ = run(capsys, "classify", "--system",
                            str(hardball_file))
        assert code == 0
        assert "# summary: graph components: 1" in text
        assert len(built) == 1

    def test_joint_span_built_once(self, capsys, hardball_file, monkeypatch):
        # the transitivity verdict and the commutant dimension share one
        # span of the whole collection
        spanned = []
        original = geometry.span_of

        def counted(subspaces, *args, **kwargs):
            subspaces = list(subspaces)
            spanned.append(len(subspaces))
            return original(subspaces, *args, **kwargs)

        for module in (classify, cli):
            monkeypatch.setattr(module, "span_of", counted)
        code, text, _ = run(capsys, "classify", "--system",
                            str(hardball_file))
        assert code == 0
        assert '"commutant_dimension": 1' in text
        assert spanned.count(3) == 1

    def test_runs_without_networkx(self, capsys):
        # ``python -m cylbill classify`` with networkx made unimportable
        # prints the body of the in-process run
        system = Path(__file__).parent / "data" / "hb_3_2.json"
        script = ("import runpy, sys; sys.modules['networkx'] = None; "
                  "sys.argv[0] = 'cylbill'; "
                  "runpy.run_module('cylbill', run_name='__main__', "
                  "alter_sys=True)")
        src = str(Path(cylbill.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, "classify", "--system",
             str(system)], capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, text, _ = run(capsys, "classify", "--system", str(system))
        assert code == 0
        assert strip_timestamp(proc.stdout) == strip_timestamp(text)

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "classify", "--system", str(bad))
        assert code == 2
        assert "validation failure" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "classify", "--system",
                         str(tmp_path / "nope.json"))
        assert code == 4  # unreadable path is a usage problem

    def test_invalid_system_rejected(self, capsys, tmp_path):
        doc = {
            "format": "cylbill-system", "version": 1, "dim": 3,
            "lattice_basis": np.eye(3).tolist(),
            "interior_connected_asserted": True,
            "cylinders": [{"radius": -0.5, "translation": [0, 0, 0],
                           "generator_coeffs": [[1], [0], [0]]}],
        }
        p = tmp_path / "bad_sys.json"
        fileio.dump(doc, p)
        code, _, err = run(capsys, "classify", "--system", str(p))
        assert code == 2


class TestDeltaRich:
    @pytest.fixture
    def sphere_file(self, tmp_path):
        p = tmp_path / "sphere.json"
        save_system(make_sphere_system(3, r=0.4, center=np.zeros(3)), p)
        return p

    @pytest.fixture
    def blocks_file(self, tmp_path):
        p = tmp_path / "blocks.json"
        save_system(make_two_block_system(), p)
        return p

    def test_rich_sphere_exit0(self, capsys, tmp_path, sphere_file):
        sig = tmp_path / "sigma.json"
        save_sigma([0], sig)
        code, text, _ = run(capsys, "rich", "--system", str(sphere_file),
                            "--sigma", str(sig), "--samples", "25",
                            "--seed", "3")
        assert code == 0
        assert '"rich": true' in text

    def test_block_sequence_exit1(self, capsys, tmp_path, blocks_file):
        sig = tmp_path / "sigma.json"
        save_sigma([0, 0], sig)
        code, text, _ = run(capsys, "rich", "--system", str(blocks_file),
                            "--sigma", str(sig), "--samples", "25",
                            "--seed", "3")
        assert code == 1
        assert '"rich": false' in text
        body = report_body(text)
        block_dim = make_two_block_system().base_space(0).dim
        assert body["bound"] == block_dim - 1
        assert body["constrained_manifold_dim"] == 4 + block_dim - 1

    def test_delta_deterministic_modulo_timestamp(self, capsys, tmp_path,
                                                  sphere_file):
        sig = tmp_path / "sigma.json"
        save_sigma([0], sig)
        args = ("delta", "--system", str(sphere_file), "--sigma", str(sig),
                "--samples", "20", "--seed", "11")
        code1, text1, _ = run(capsys, *args)
        code2, text2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert strip_timestamp(text1) == strip_timestamp(text2)
        assert text1.splitlines()[1].startswith("# generated:")

    def test_delta_reports_rejected_work(self, capsys, tmp_path,
                                         sphere_file):
        sig = tmp_path / "sigma.json"
        save_sigma([0], sig)
        code, text, _ = run(capsys, "delta", "--system", str(sphere_file),
                            "--sigma", str(sig), "--samples", "20",
                            "--seed", "11")
        assert code == 0
        body = json.loads("".join(line for line in text.splitlines(True)
                                  if not line.startswith("#")))
        assert tuple(sorted(body["rejected"])) == tuple(sorted(
            paths.REJECTION_REASONS))
        assert body["n_attempts"] == \
            sum(body["rejected"].values()) + body["n_success"]
        # no advance is drawn, so none is recorded
        assert "advance_range" not in body
        assert "# summary: candidates:" in text

    def test_box_scale_flag_is_gone(self, capsys, tmp_path, sphere_file):
        sig = tmp_path / "sigma.json"
        save_sigma([0], sig)
        code, _, err = run(capsys, "delta", "--system", str(sphere_file),
                           "--sigma", str(sig), "--samples", "5",
                           "--seed", "1", "--box-scale", "1.0")
        assert code == 4
        assert err.startswith("usage error: ")

    def test_rich_long_hard_ball_sequence(self, capsys, tmp_path):
        # every cylinder of 5 hard balls in the 2-torus, d = 8
        system = tmp_path / "hb5.json"
        code, _, err = run(capsys, "build", "hardball", "--n", "5",
                           "--nu", "2", "--masses", "1,1,1,1,1",
                           "--r", "0.05", "--out", str(system))
        assert code == 0, err
        sig = tmp_path / "sigma.json"
        save_sigma(list(range(10)) + [0, 4], sig)
        code, text, _ = run(capsys, "rich", "--system", str(system),
                            "--sigma", str(sig), "--samples", "20",
                            "--seed", "5")
        assert code == 0
        body = report_body(text)
        assert body["delta"] == body["full_target"] == 7
        assert body["n_success"] == body["n_attempts"] == 20

    @pytest.mark.parametrize("labels, bound, manifold",
                             [([0], 1, 5), ([0, 1, 2], 3, 7)])
    def test_hard_ball_bound_and_manifold_dim(self, capsys, tmp_path,
                                              labels, bound, manifold):
        system = Path(__file__).parent / "data" / "hb_3_2.json"
        sig = tmp_path / "sigma.json"
        save_sigma(labels, sig)
        code, text, _ = run(capsys, "delta", "--system", str(system),
                            "--sigma", str(sig), "--samples", "20",
                            "--seed", "1")
        assert code == 0
        body = report_body(text)
        assert body["bound"] == bound
        assert body["constrained_manifold_dim"] == manifold

    def test_malformed_sigma_validation_error(self, capsys, tmp_path,
                                              sphere_file):
        sig = tmp_path / "sigma.json"
        sig.write_text("{broken")
        code, _, err = run(capsys, "delta", "--system", str(sphere_file),
                           "--sigma", str(sig), "--samples", "5",
                           "--seed", "1")
        assert code == 2
        assert err.startswith("validation failure:")

    def test_empty_sigma_usage_error(self, capsys, tmp_path, sphere_file):
        sig = tmp_path / "sigma.json"
        sig.write_text('{"format": "cylbill-sigma", "labels": []}\n')
        code, _, _ = run(capsys, "delta", "--system", str(sphere_file),
                         "--sigma", str(sig), "--samples", "5", "--seed", "1")
        assert code == 2

    def test_seed_required(self, capsys, tmp_path, sphere_file):
        sig = tmp_path / "sigma.json"
        save_sigma([0], sig)
        code, _, _ = run(capsys, "delta", "--system", str(sphere_file),
                         "--sigma", str(sig), "--samples", "5")
        assert code == 4


class TestSimulateAndScans:
    @pytest.fixture
    def sinai_file(self, tmp_path):
        p = tmp_path / "sinai.json"
        save_system(make_sphere_system(2, r=0.3), p)
        return p

    def test_simulate_writes_record_and_table(self, capsys, tmp_path,
                                              sinai_file):
        out = tmp_path / "traj.json"
        table = tmp_path / "traj.tsv"
        code, text, _ = run(capsys, "simulate", "--system", str(sinai_file),
                            "--q", "0,0.5", "--v", "0.6,0.8",
                            "--collisions", "50", "--out", str(out),
                            "--table", str(table))
        assert code == 0
        doc = fileio.load(out)
        assert len(doc["events"]) == 50
        assert table.read_text().startswith("event\ttime")

    def test_simulate_records_its_settings(self, capsys, tmp_path,
                                           sinai_file, monkeypatch):
        """The body records the stop conditions and the horizon the flow
        used; the trajectory file holds none of them.  Without
        --collisions the flow stops at the event cap."""
        out = tmp_path / "traj.json"
        argv = ("simulate", "--system", str(sinai_file), "--q", "0,0.5",
                "--v", "0.6,0.8", "--out", str(out))
        code, text, _ = run(capsys, *argv, "--collisions", "50")
        body = report_body(text)
        assert (code, body["max_collisions"], body["max_time"]) == (0, 50,
                                                                    None)
        assert body["horizon"] == 10.0 * np.sqrt(2.0)
        assert set(fileio.load(out)) == {
            "format", "initial_q", "initial_v", "events", "symbolic",
            "flags", "final_q", "final_v", "final_wrap", "total_time"}
        code, text, _ = run(capsys, *argv, "--time", "3")
        body = report_body(text)
        assert (body["max_collisions"], body["max_time"]) == (
            tf.MAX_FLOW_EVENTS, 3.0)
        assert "event cap" not in text
        monkeypatch.setattr(tf, "MAX_FLOW_EVENTS", 4)
        code, text, _ = run(capsys, *argv, "--time", "30")
        body = report_body(text)
        assert (code, body["n_events"], body["max_collisions"]) == (0, 4, 4)
        assert body["total_time"] < 30.0
        assert "# summary: stopped at the event cap MAX_FLOW_EVENTS = 4, " \
               "before --time\n" in text

    def test_simulate_random_needs_seed(self, capsys, tmp_path, sinai_file):
        code, _, _ = run(capsys, "simulate", "--system", str(sinai_file),
                         "--random", "--collisions", "5",
                         "--out", str(tmp_path / "t.json"))
        assert code == 4

    def test_lyapunov_report(self, capsys, sinai_file):
        argv = ("lyapunov", "--system", str(sinai_file), "--q", "0,0.5",
                "--v", "0.6,0.8", "--total-time", "100", "--seed", "5")
        code, text, _ = run(capsys, *argv)
        assert code == 0
        body = report_body(text)
        assert len(body["spectrum"]) == 4
        assert body["spectrum"][0] == body["estimate"]
        assert body["n_collisions"] > 0
        assert body["n_scans"] >= body["n_collisions"]
        assert sum(body["discarded_by_reason"].values()) == body["discarded"]
        assert "# summary: spectrum sum " in text
        assert strip_timestamp(run(capsys, *argv)[1]) == strip_timestamp(text)

    @pytest.mark.parametrize("total_time, n_windows",
                             [("2.6", 3), ("1.4", 1)])
    def test_lyapunov_reports_the_time_flowed(self, capsys, total_time,
                                              n_windows):
        """The run is rounded to whole windows, and the body says so."""
        system = Path(__file__).parent / "data" / "hb_2_2.json"
        code, text, _ = run(capsys, "lyapunov", "--system", str(system),
                            "--random", "--seed", "1",
                            "--total-time", total_time)
        assert code == 0
        body = report_body(text)
        assert (body["n_windows"], body["renorm_dt"], body["total_time"]) \
            == (n_windows, 1.0, float(n_windows))

    @pytest.mark.parametrize("dump", [True, False])
    def test_lyapunov_dump_windows(self, capsys, dump):
        """With the flag, the body lists one log per kept window, and
        their mean rate is the estimate; without it, none."""
        system = Path(__file__).parent / "data" / "hb_2_2.json"
        code, text, _ = run(capsys, "lyapunov", "--system", str(system),
                            "--q", "0.5,0.5", "--v", "0.6,0.8",
                            "--total-time", "50", "--seed", "1",
                            *(("--dump-windows",) if dump else ()))
        assert code == 0
        body = report_body(text)
        if not dump:
            assert body["window_logs"] is None
            return
        logs = body["window_logs"]
        assert len(logs) == body["n_kept"] == 50
        assert abs(sum(logs) / (body["n_kept"] * body["renorm_dt"])
                   - body["estimate"]) <= 1e-12

    @pytest.mark.parametrize("command", [
        ("simulate", "--collisions", "5", "--out", "{out}"),
        ("lyapunov", "--total-time", "10", "--seed", "1"),
    ], ids=["simulate", "lyapunov"])
    def test_start_inside_is_a_usage_error(self, capsys, tmp_path, command):
        """A ``--q`` inside a scatterer is a refused argument."""
        system = Path(__file__).parent / "data" / "hb_2_2.json"
        name, *rest = command
        code, _, err = run(capsys, name, "--system", str(system),
                           "--q", "0,0", "--v", "0.6,0.8",
                           *(a.format(out=tmp_path / "x.json") for a in rest))
        assert code == 4
        assert err == "usage error: --q 0,0: start point lies inside " \
                      "cylinder 0\n"
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("start", [
        ("--q", "0,0", "--v", "1,0"), ("--q", "0.5,0.5"), ("--v", "1,0"),
    ], ids=["q-and-v", "q", "v"])
    @pytest.mark.parametrize("command", [
        ("simulate", "--collisions", "3", "--out", "{out}"),
        ("lyapunov", "--total-time", "10"),
    ], ids=["simulate", "lyapunov"])
    def test_random_refuses_a_given_start(self, capsys, tmp_path, command,
                                          start):
        """``--random`` draws the start point, so a ``--q`` or ``--v`` the
        run would ignore is a refused argument."""
        system = Path(__file__).parent / "data" / "hb_2_2.json"
        name, *rest = command
        code, _, err = run(capsys, name, "--system", str(system), "--random",
                           "--seed", "1", *start,
                           *(a.format(out=tmp_path / "x.json") for a in rest))
        assert code == 4
        assert err == "usage error: --random draws the start point; it " \
                      "cannot be combined with --q or --v\n"
        assert not (tmp_path / "x.json").exists()

    def test_simulate_refuses_an_unread_seed(self, capsys, tmp_path):
        """From ``--q`` and ``--v`` nothing is random, so ``simulate``
        refuses a ``--seed`` rather than record one it never read."""
        system = Path(__file__).parent / "data" / "hb_2_2.json"
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "simulate", "--system", str(system),
                           "--q", "0.5,0.5", "--v", "0.6,0.8", "--seed", "3",
                           "--collisions", "3", "--out", str(out))
        assert code == 4
        assert err == "usage error: --seed is read only with --random\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ("simulate", "--q", "0.5,0.5", "--v", "0.6,0.8", "--collisions", "5",
         "--out", "{out}"),
        ("lyapunov", "--random", "--total-time", "10"),
        ("splitting-scan", "--orbits", "2", "--collisions", "5"),
        ("delta", "--sigma", "{sigma}", "--samples", "5"),
    ], ids=["simulate", "lyapunov", "splitting-scan", "delta"])
    def test_seed_is_a_non_negative_integer(self, capsys, tmp_path, command):
        system = Path(__file__).parent / "data" / "hb_2_2.json"
        sigma = tmp_path / "sigma.json"
        save_sigma([0], sigma)
        name, *rest = command
        code, _, err = run(capsys, name, "--system", str(system),
                           "--seed", "-1",
                           *(a.format(out=tmp_path / "x.json", sigma=sigma)
                             for a in rest))
        assert code == 4
        assert err == "usage error: argument --seed: expected a " \
                      "non-negative integer, not '-1'\n"
        assert not (tmp_path / "x.json").exists()

    def test_splitting_scan_product_system(self, capsys, tmp_path):
        p = tmp_path / "blocks.json"
        save_system(make_two_block_system(), p)
        code, text, _ = run(capsys, "splitting-scan", "--system", str(p),
                            "--orbits", "5", "--collisions", "10",
                            "--seed", "2")
        assert code == 0
        assert '"fraction": 1' in text

    @pytest.mark.parametrize("name, orbits, collisions, stops", [
        ("hb_2_2", "10", "3000", 10), ("hb_3_2", "20", "100", 0)])
    def test_splitting_scan_counts_horizon_stops(self, capsys, name, orbits,
                                                 collisions, stops):
        """Orbits that meet no collision within the horizon stop short of
        the count, and the body and the summary say how many did."""
        system = Path(__file__).parent / "data" / f"{name}.json"
        code, text, _ = run(capsys, "splitting-scan", "--system",
                            str(system), "--orbits", orbits,
                            "--collisions", collisions, "--seed", "1")
        assert code == 0
        body = report_body(text)
        assert body["n_horizon_stops"] == stops
        assert body["horizon"] == 10.0 * tf._flow_view(
            cylbill.load_system(system)).diam
        assert f"# summary: {stops} of {orbits} orbits stopped short" in text
        assert f"# summary: 0 of {orbits} orbits stopped at a degeneracy\n" \
            in text

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 4


DATA = Path(__file__).resolve().parent / "data"


def _sinai_start():
    return make_sphere_system(2, r=0.3), tf.PhasePoint([0.0, 0.5], [0.6, 0.8])


def _crowd():
    crowd = make_sphere_system(2, r=0.3)
    crowd.cylinders = crowd.cylinders * 30
    return crowd


def _lll_past_limit():
    # a basis that is not reduced, with no reduction step allowed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "MAX_LLL_STEPS", 0)
        return geometry.Lattice(np.array([[1.0, 5.0], [0.0, 1.0]])) \
            .reduced_basis


# each stated size limit and a call past it
PAST_LIMIT = {
    "MAX_FLOW_EVENTS": lambda: tf.flow(
        *_sinai_start(), max_collisions=tf.MAX_FLOW_EVENTS + 1),
    "MAX_LYAPUNOV_WINDOWS": lambda: tf.lyapunov_max(
        *_sinai_start(), total_t=tf.MAX_LYAPUNOV_WINDOWS + 1.0,
        renorm_dt=1.0, seed=1),
    "MAX_DELTA_SAMPLES": lambda: paths.delta_sigma_report(
        make_sphere_system(2, r=0.3), [0], paths.MAX_DELTA_SAMPLES + 1, 1),
    "MAX_BALL_CANDIDATES": lambda: geometry.Lattice(np.eye(2)).enumerate_ball(
        np.zeros(2), 2000.0),
    "MAX_LLL_STEPS": _lll_past_limit,
    "MAX_TRANSVERSE_CYLINDERS": lambda: classify.is_transverse(_crowd()),
    "MAX_HARD_BALL_ENTRIES": lambda: builders.hard_ball_system(
        builders.HardBallParams(68, 2, (1.0,) * 68, 0.001)),
    "int64": lambda: builders.sub_billiard(
        load_system(DATA / "factor_past_int64.json"), [0, 1]),
}


class TestSizeLimitExit:
    @pytest.mark.parametrize("limit", sorted(PAST_LIMIT))
    def test_every_limit_raises_one_class(self, limit):
        with pytest.raises(LimitError) as raised:
            PAST_LIMIT[limit]()
        assert raised.value.limit == limit
        assert documented_exit(raised.value) == 4

    def test_factor_past_int64_exits_4(self, capsys, tmp_path):
        out = tmp_path / "sub.json"
        code, _, err = run(capsys, "build", "subbilliard", "--system",
                           str(DATA / "factor_past_int64.json"),
                           "--indices", "0,1", "--out", str(out))
        assert code == 4
        assert err.count("\n") == 1
        assert err.startswith("usage error: ") and "int64" in err
        assert not out.exists()

    def test_hard_ball_limit_exits_4(self, capsys, tmp_path):
        out = tmp_path / "hb100.json"
        start = time.process_time()
        code, _, err = run(capsys, "build", "hardball", "--n", "100",
                           "--nu", "2", "--masses", ",".join(["1"] * 100),
                           "--r", "0.001", "--out", str(out))
        assert time.process_time() - start < 0.5
        assert code == 4
        assert err.count("\n") == 1
        assert err.startswith("usage error: ")
        assert "MAX_HARD_BALL_ENTRIES" in err
        assert not out.exists()

    def test_lattice_limit_exits_4(self, capsys, tmp_path, monkeypatch):
        p = tmp_path / "sinai.json"
        save_system(make_sphere_system(2, r=0.3), p)
        monkeypatch.setattr(geometry, "MAX_BALL_CANDIDATES", 1)
        code, _, err = run(capsys, "simulate", "--system", str(p),
                           "--q", "0,0.5", "--v", "0.6,0.8",
                           "--collisions", "10",
                           "--out", str(tmp_path / "traj.json"))
        assert code == 4
        assert err.count("\n") == 1
        assert err.startswith("usage error: lattice ball enumeration")


class TestDegeneracyExit:
    def test_grazing_flow_exits_3(self, capsys, tmp_path):
        # the line x = 0.2 touches the scatterer of radius 0.3 at (0.5, 0.5)
        p = tmp_path / "sinai.json"
        save_system(make_sphere_system(2, r=0.3), p)
        code, text, _ = run(capsys, "simulate", "--system", str(p),
                            "--q", "0.2,0", "--v", "0,1",
                            "--collisions", "5",
                            "--out", str(tmp_path / "traj.json"))
        assert code == 3
        assert report_body(text)["flags"]["tangential_encountered"]

    def test_cascade_capped_runs_are_degenerate(self, capsys, tmp_path,
                                                monkeypatch):
        """A run stopped by the cascade cap is a degenerate stop, to
        ``simulate``'s exit code and to the scan's ``n_degenerate`` alike."""
        monkeypatch.setattr(tf, "CASCADE_CAP", 3)
        system = Path(__file__).parent / "data" / "hb_3_2.json"
        code, text, _ = run(capsys, "simulate", "--system", str(system),
                            "--random", "--seed", "1", "--collisions", "100",
                            "--out", str(tmp_path / "traj.json"))
        assert code == 3
        assert report_body(text)["flags"]["cascade_capped"]
        code, text, _ = run(capsys, "splitting-scan", "--system",
                            str(system), "--orbits", "20",
                            "--collisions", "100", "--seed", "1")
        assert code == 0
        assert report_body(text)["n_degenerate"] == 20
        assert "# summary: 20 of 20 orbits stopped at a degeneracy\n" in text


class TestTypedArgumentFailures:
    @pytest.mark.parametrize("argv", [
        ("delta", "--system", "{system}", "--sigma", "{sigma}",
         "--samples", "0", "--seed", "1"),
        # the tangent map uses no shadow separation, so the flag is gone
        ("lyapunov", "--system", "{system}", "--q", "0,0.5", "--v", "0.6,0.8",
         "--total-time", "10", "--seed", "1", "--d0", "1e-9"),
        ("simulate", "--system", "{system}", "--q", "0,0.5", "--v", "1,0,0",
         "--collisions", "5", "--out", "{out}"),
    ], ids=["delta-samples-0", "lyapunov-d0", "simulate-wrong-length"])
    def test_refused_argument_exits_4(self, capsys, tmp_path, argv):
        system = tmp_path / "sinai.json"
        save_system(make_sphere_system(2, r=0.3), system)
        sigma = tmp_path / "sigma.json"
        save_sigma([0], sigma)
        argv = [a.format(system=system, sigma=sigma, out=tmp_path / "t.json")
                for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert err.count("\n") == 1
        assert err.startswith("usage error: ")


EXIT_OF_BASE = {InputError: 2, DegeneracyError: 3, UsageError: 4}
STDERR_PREFIX = {2: "validation failure: ", 3: "numerical-degeneracy abort: ",
                 4: "usage error: "}


def documented_exit(exc: BaseException) -> int:
    """The exit code of a library error: its base's, or 4 for a bare
    ``ValueError`` (a refused argument) or ``OSError`` (an unreadable path)."""
    codes = [code for base, code in EXIT_OF_BASE.items()
             if isinstance(exc, base)]
    if not codes and isinstance(exc, (ValueError, OSError)):
        codes = [4]
    assert len(codes) == 1, f"{type(exc).__name__}: exit codes {codes}"
    return codes[0]


def _sinai(files):
    return cylbill.load_system(files["sinai"])


def _phase(q, v):
    return tf.PhasePoint(cli._parse_vector(q), cli._parse_vector(v))


def _flow(files, q="0,0.5", v="0.6,0.8", **stop):
    return tf.flow(_sinai(files), _phase(q, v), **stop)


def _lyapunov(files, q="0,0.5", v="0.6,0.8", total_t=10.0, renorm_dt=1.0):
    return tf.lyapunov_max(_sinai(files), _phase(q, v), total_t=total_t,
                           renorm_dt=renorm_dt, seed=1)


def _from_q(run_from, q, **kwargs):
    """A run from the start point ``--q``, as the command makes it: a
    point inside a scatterer is a refused argument."""
    with cli._start_point(q):
        return run_from(q=q, **kwargs)


HARDBALL = ("build", "hardball", "--n", "3", "--nu", "2", "--out", "{out}")
SIMULATE = ("simulate", "--system", "{sinai}", "--out", "{out}")
LYAPUNOV = ("lyapunov", "--system", "{sinai}", "--seed", "1")
SCAN = ("splitting-scan", "--system", "{sinai}", "--seed", "1")
NAN, INF = float("nan"), float("inf")

# (argv, the library call that the command makes for that input)
FAILING_COMMANDS = {
    "classify-max-subsets-flag": (
        ("classify", "--system", "{sinai}", "--max-subsets", "24"),
        lambda f: cli.build_parser().parse_args(
            ["classify", "--system", "x", "--max-subsets", "24"])),
    "classify-enumeration-guard": (
        ("classify", "--system", "{crowd}"),
        lambda f: classify.is_transverse(cylbill.load_system(f["crowd"]))),
    "classify-malformed-file": (
        ("classify", "--system", "{broken}"),
        lambda f: cylbill.load_system(f["broken"])),
    "classify-fractional-coeff": (
        ("classify", "--system", "{fractional}"),
        lambda f: cylbill.load_system(f["fractional"])),
    "classify-infinite-coeff": (
        ("classify", "--system", "{infinite}"),
        lambda f: cylbill.load_system(f["infinite"])),
    "classify-huge-coeff": (
        ("classify", "--system", "{huge}"),
        lambda f: cylbill.load_system(f["huge"])),
    "classify-nan-basis": (
        ("classify", "--system", "{nan_basis}"),
        lambda f: cylbill.load_system(f["nan_basis"])),
    "classify-leaky-witness": (
        ("classify", "--system", "{leaky}"),
        lambda f: classify.is_transitive(
            cylbill.load_system(f["leaky"]).base_spaces())),
    "classify-no-cylinders": (
        ("classify", "--system", "{empty}"),
        lambda f: cli._load_valid_system(f["empty"])),
    "classify-inf-translation": (
        ("classify", "--system", "{inf_translation}"),
        lambda f: cli._load_valid_system(f["inf_translation"])),
    "classify-nan-radius": (
        ("classify", "--system", "{nan_radius}"),
        lambda f: cli._load_valid_system(f["nan_radius"])),
    "build-thin-lattice-factor": (
        ("build", "subbilliard", "--system", "{thin}", "--indices", "0,1",
         "--out", "{out}"),
        lambda f: builders.sub_billiard(cylbill.load_system(f["thin"]),
                                        [0, 1])),
    "build-nan-mass": (
        HARDBALL + ("--masses", "1,1,nan", "--r", "0.1"),
        lambda f: builders.HardBallParams(3, 2, (1, 1, NAN), 0.1)),
    "build-inf-mass": (
        HARDBALL + ("--masses", "1,1,inf", "--r", "0.1"),
        lambda f: builders.HardBallParams(3, 2, (1, 1, INF), 0.1)),
    "build-nan-radius": (
        HARDBALL + ("--masses", "1,1,1", "--r", "nan"),
        lambda f: builders.HardBallParams(3, 2, (1, 1, 1), NAN)),
    "build-radius-no-free-point": (
        HARDBALL + ("--masses", "1,1,1", "--r", "0.7"),
        lambda f: builders.HardBallParams(3, 2, (1, 1, 1), 0.7)),
    "delta-label-out-of-range": (
        ("delta", "--system", "{sinai}", "--sigma", "{sigma5}",
         "--samples", "5", "--seed", "1"),
        lambda f: paths.delta_sigma_report(_sinai(f), [5], 5, 1)),
    "delta-fractional-label": (
        ("delta", "--system", "{sinai}", "--sigma", "{sigma_frac}",
         "--samples", "5", "--seed", "1"),
        lambda f: paths.load_sigma(f["sigma_frac"])),
    "delta-sample-cap": (
        ("delta", "--system", "{sinai}", "--sigma", "{sigma0}",
         "--samples", str(paths.MAX_DELTA_SAMPLES + 1), "--seed", "1"),
        lambda f: paths.delta_sigma_report(
            _sinai(f), [0], paths.MAX_DELTA_SAMPLES + 1, 1)),
    "rich-malformed-sigma": (
        ("rich", "--system", "{sinai}", "--sigma", "{broken}",
         "--samples", "5", "--seed", "1"),
        lambda f: paths.load_sigma(f["broken"])),
    "simulate-time-nan": (
        SIMULATE + ("--q", "0,0.5", "--v", "0.6,0.8", "--time", "nan"),
        lambda f: _flow(f, max_time=NAN)),
    "simulate-time-inf": (
        SIMULATE + ("--q", "0,0.5", "--v", "0.6,0.8", "--time", "inf"),
        lambda f: _flow(f, max_time=INF)),
    "simulate-negative-collisions": (
        SIMULATE + ("--q", "0,0.5", "--v", "0.6,0.8", "--collisions", "-1"),
        lambda f: _flow(f, max_collisions=-1)),
    "simulate-nan-position": (
        SIMULATE + ("--q", "nan,0.5", "--v", "0.6,0.8", "--collisions", "5"),
        lambda f: _flow(f, q="nan,0.5", max_collisions=5)),
    "simulate-real-axis": (
        ("simulate", "--system", "{real_axis}", "--out", "{out}",
         "--q", "0.3,0.2,0.1,0.4", "--v", "0.6,0.8,0,0", "--collisions", "5"),
        lambda f: tf.flow(cylbill.load_system(f["real_axis"]),
                          _phase("0.3,0.2,0.1,0.4", "0.6,0.8,0,0"),
                          max_collisions=5)),
    "simulate-event-cap": (
        SIMULATE + ("--random", "--seed", "1", "--collisions", str(10**12)),
        lambda f: tf.flow(_sinai(f), tf.random_phase(
            _sinai(f), np.random.default_rng(1)), max_collisions=10**12)),
    "simulate-start-inside": (
        SIMULATE + ("--q", "0.5,0.5", "--v", "1,0", "--collisions", "5"),
        lambda f: _from_q(_flow, "0.5,0.5", files=f, v="1,0",
                          max_collisions=5)),
    "lyapunov-total-time-inf": (
        LYAPUNOV + ("--q", "0,0.5", "--v", "0.6,0.8", "--total-time", "inf"),
        lambda f: _lyapunov(f, total_t=INF)),
    "lyapunov-renorm-dt-nan": (
        LYAPUNOV + ("--q", "0,0.5", "--v", "0.6,0.8", "--total-time", "10",
                    "--renorm-dt", "nan"),
        lambda f: _lyapunov(f, renorm_dt=NAN)),
    "lyapunov-window-cap": (
        LYAPUNOV + ("--q", "0,0.5", "--v", "0.6,0.8", "--total-time", "1e300",
                    "--renorm-dt", "1"),
        lambda f: _lyapunov(f, total_t=1e300)),
    "lyapunov-zero-windows": (
        LYAPUNOV + ("--q", "0,0.5", "--v", "0.6,0.8", "--total-time", "0.4"),
        lambda f: _lyapunov(f, total_t=0.4)),
    "lyapunov-start-inside": (
        LYAPUNOV + ("--q", "0.5,0.5", "--v", "1,0", "--total-time", "10"),
        lambda f: _from_q(_lyapunov, "0.5,0.5", files=f, v="1,0")),
    "splitting-scan-collisions-0": (
        SCAN + ("--orbits", "3", "--collisions", "0"),
        lambda f: tf.splitting_scan(_sinai(f), 3, 0, 1)),
    "splitting-scan-orbits-0": (
        SCAN + ("--orbits", "0", "--collisions", "5"),
        lambda f: tf.splitting_scan(_sinai(f), 0, 5, 1)),
}


class TestFailureExitCodes:
    @pytest.fixture
    def files(self, tmp_path):
        files = {name: tmp_path / f"{name}.json"
                 for name in ("sinai", "crowd", "broken", "sigma0", "sigma5",
                              "sigma_frac", "out", "fractional", "infinite",
                              "huge", "nan_basis", "inf_translation",
                              "nan_radius", "empty", "real_axis", "leaky",
                              "thin")}
        save_system(make_sphere_system(2, r=0.3), files["sinai"])
        empty = CylindricBilliardSystem(
            dim=2, lattice=geometry.Lattice(np.eye(2)), cylinders=[])
        save_system(empty, files["empty"])
        save_system(make_mixed_axis_system(), files["real_axis"])
        save_system(make_leaky_witness_system(), files["leaky"])
        save_system(make_thin_lattice_system(), files["thin"])
        crowd = make_sphere_system(2, r=0.3)
        crowd.cylinders = crowd.cylinders * 30
        save_system(crowd, files["crowd"])
        files["broken"].write_text("{broken")
        # a hard-ball file with one generator coefficient, lattice basis
        # entry, translation entry or radius edited in the text
        doc = system_to_dict(builders.hard_ball_system(
            builders.HardBallParams(3, 2, (1, 1, 1), 0.1))[0])
        edits = {
            "fractional": (("cylinders", 0, "generator_coeffs", 2, 0), "1.5"),
            "infinite": (("cylinders", 0, "generator_coeffs", 2, 0), "1e400"),
            "huge": (("cylinders", 0, "generator_coeffs", 2, 0),
                     str(10**30)),
            "nan_basis": (("lattice_basis", 0, 0), "NaN"),
            "inf_translation": (("cylinders", 0, "translation", 0),
                                "Infinity"),
            "nan_radius": (("cylinders", 0, "radius"), "NaN"),
        }
        for name, ((*parents, last), value) in edits.items():
            edited = copy.deepcopy(doc)
            node = edited
            for key in parents:
                node = node[key]
            node[last] = "VALUE"
            files[name].write_text(
                fileio.dumps(edited).replace('"VALUE"', value))
        save_sigma([0], files["sigma0"])
        save_sigma([5], files["sigma5"])
        # int() would read the label 0.7 as 0
        files["sigma_frac"].write_text(
            '{"format": "cylbill-sigma", "labels": [0.7, 0]}')
        return files

    def test_every_command_has_a_failing_case(self):
        commands = next(action.choices for action
                        in cli.build_parser()._actions
                        if action.dest == "command")
        assert {argv[0] for argv, _ in FAILING_COMMANDS.values()} \
            == set(commands)

    @pytest.mark.parametrize("case", sorted(FAILING_COMMANDS))
    def test_exit_code_is_the_library_errors_base(self, capsys, files, case):
        argv, library_call = FAILING_COMMANDS[case]
        with pytest.raises(Exception) as raised:
            library_call(files)
        expected = documented_exit(raised.value)
        argv = [a.format(**files) for a in argv]
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == expected
        assert err.count("\n") == 1
        assert err.startswith(STDERR_PREFIX[code])


# every command that takes --out for its report, run on small inputs
REPORT_COMMANDS = {
    "classify": ("classify", "--system", "{sinai}"),
    "delta": ("delta", "--system", "{sinai}", "--sigma", "{sigma}",
              "--samples", "5", "--seed", "1"),
    "rich": ("rich", "--system", "{sinai}", "--sigma", "{sigma}",
             "--samples", "5", "--seed", "1"),
    "lyapunov": ("lyapunov", "--system", "{sinai}", "--q", "0,0.5",
                 "--v", "0.6,0.8", "--total-time", "10", "--seed", "1"),
    "splitting-scan": ("splitting-scan", "--system", "{sinai}",
                       "--orbits", "3", "--collisions", "5", "--seed", "1"),
}


@pytest.mark.parametrize("command", sorted(REPORT_COMMANDS))
def test_report_written_with_out_matches_stdout(capsys, tmp_path, command):
    sinai = tmp_path / "sinai.json"
    save_system(make_sphere_system(2, r=0.3), sinai)
    sigma = tmp_path / "sigma.json"
    save_sigma([0], sigma)
    argv = [a.format(sinai=sinai, sigma=sigma)
            for a in REPORT_COMMANDS[command]]
    code, text, err = run(capsys, *argv)
    assert code in (0, 1), err
    out = tmp_path / "report.txt"
    assert run(capsys, *argv, "--out", str(out)) == (code, "", "")
    written = out.read_text(encoding="utf-8")
    assert written.startswith(f"# cylbill report: {command}\n# generated: ")
    assert strip_timestamp(written) == strip_timestamp(text)


def test_malformed_system_is_refused_before_its_spaces_are_filled(
        monkeypatch, capsys):
    # a system no file can hold: its coefficient matrix has 2 rows in 3-space
    monkeypatch.setattr(cli.model, "load_system",
                        lambda path: make_malformed_axis_system())
    code, _, err = run(capsys, "classify", "--system", "in-memory")
    assert code == 2
    assert "generator_coeffs row count != dim" in err


def test_every_package_error_has_exactly_one_base():
    errors = [cls for mod in package_modules()
              for _, cls in inspect.getmembers(mod, inspect.isclass)
              if issubclass(cls, Exception) and cls.__module__ == mod.__name__]
    assert {cls.__name__ for cls in errors} >= {
        "SystemFormatError", "BuilderError", "TraceError", "NoValidPath",
        "FlowError", "FactorLatticeError", "LimitError",
        "DimensionMismatch"}
    stray = [f"{cls.__module__}.{cls.__name__}" for cls in errors
             if sum(issubclass(cls, base) for base in EXIT_OF_BASE) != 1]
    assert stray == []


def test_cli_catches_only_the_three_bases():
    assert not [name for name, value in vars(cli).items()
                if inspect.isclass(value) and issubclass(value, Exception)
                and value.__module__ == cli.__name__]
    caught = {node.id for handler in ast.walk(ast.parse(
                  inspect.getsource(cli.main)))
              if isinstance(handler, ast.ExceptHandler)
              for node in ast.walk(handler.type) if isinstance(node, ast.Name)}
    assert caught == {"InputError", "DegeneracyError", "UsageError",
                      "ValueError", "OSError"}


def report_body(text: str) -> dict:
    return json.loads("\n".join(l for l in text.splitlines()
                                 if not l.startswith("#")))


class TestOneToleranceSource:
    def test_tolerance_flag_is_gone(self, capsys, hardball_file):
        code, _, err = run(capsys, "--tol-rank", "0.9", "classify",
                           "--system", str(hardball_file))
        assert code == 4
        assert err.startswith("usage error: ")

    def test_report_records_config_tolerances(self, capsys, tmp_path,
                                              hardball_file):
        sigma = tmp_path / "sigma.json"
        save_sigma([0, 1, 2], sigma)
        for argv in (("classify", "--system", str(hardball_file)),
                     ("delta", "--system", str(hardball_file), "--sigma",
                      str(sigma), "--samples", "5", "--seed", "1")):
            code, text, _ = run(capsys, *argv)
            assert code == 0
            assert report_body(text)["run"]["tolerances"] == {
                "rank_rel": config.RANK_REL,
                "drop": config.DROP,
                "disc": config.DISC,
                "t_min_gap": config.T_MIN_GAP,
                "axis_parallel": config.AXIS_PARALLEL,
                "unit_norm": config.UNIT_NORM,
                "overlap": config.OVERLAP,
            }


def package_modules():
    return [importlib.import_module(f"cylbill.{m.name}")
            for m in pkgutil.iter_modules(cylbill.__path__)
            if m.name != "__main__"]


def test_tolerances_defined_only_in_config():
    stray = [f"{mod.__name__}.{name}" for mod in package_modules()
             if mod is not config
             for name, value in vars(mod).items()
             if "TOL" in name and isinstance(value, float)]
    assert stray == []


def test_no_finite_difference_names_in_package():
    # derivatives are exact; the finite-difference route is a test oracle
    stray = []
    for mod in package_modules():
        source = Path(mod.__file__).read_text()
        stray += [f"{mod.__name__}: {name}"
                  for name in sorted(set(re.findall(r"\bFD_\w*", source)))]
    stray += [f"{mod.__name__}.{name}" for mod in package_modules()
              for name in vars(mod) if name.startswith("FD_")]
    assert stray == []


def test_every_all_name_resolves():
    missing = [f"{mod.__name__}.{name}" for mod in package_modules()
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert missing == []


def readme_cli_lines() -> list[str]:
    """Every ``cylbill ...`` command of README's CLI block, continuation
    lines joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL).group(1)
    joined = block.replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines()
            if line.strip().startswith("cylbill ")]


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_readme_cli_block_parses():
    lines = readme_cli_lines()
    assert len(lines) >= 9
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
