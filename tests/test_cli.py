import ast
import copy
import importlib
import inspect
import pkgutil
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

import cylbill
from cylbill import builders, classify, cli, config, fileio, geometry, paths
from cylbill import torusflow as tf
from cylbill.cli import main
from cylbill.errors import DegeneracyError, InputError, UsageError
from cylbill.model import load_system, save_system, system_to_dict
from cylbill.paths import save_sigma
from conftest import make_sphere_system, make_two_block_system


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
        code, _, err = run(capsys, "build", "subbilliard",
                           "--system", str(hardball_file),
                           "--indices", "0", "--out", str(out))
        assert code == 0, err
        assert load_system(out).dim == 2

    def test_missing_params_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "build", "hardball",
                           "--out", str(tmp_path / "x.json"))
        assert code == 4

    def test_invalid_params_validation_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "build", "hardball", "--n", "1",
                           "--nu", "2", "--masses", "1", "--r", "0.1",
                           "--out", str(tmp_path / "x.json"))
        assert code == 2


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
        body = fileio.loads("".join(line for line in text.splitlines(True)
                                    if not line.startswith("#")))
        assert tuple(sorted(body["rejected"])) == tuple(sorted(
            paths.REJECTION_REASONS))
        assert body["n_attempts"] == \
            sum(body["rejected"].values()) + body["n_success"]
        assert body["advance_range"] == list(paths.ADVANCE_RANGE)
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

    def test_splitting_scan_product_system(self, capsys, tmp_path):
        p = tmp_path / "blocks.json"
        save_system(make_two_block_system(), p)
        code, text, _ = run(capsys, "splitting-scan", "--system", str(p),
                            "--orbits", "5", "--collisions", "10",
                            "--seed", "2")
        assert code == 0
        assert '"fraction": 1' in text

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 4


class TestSizeLimitExit:
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
    "classify-inf-translation": (
        ("classify", "--system", "{inf_translation}"),
        lambda f: cli._load_valid_system(f["inf_translation"])),
    "classify-nan-radius": (
        ("classify", "--system", "{nan_radius}"),
        lambda f: cli._load_valid_system(f["nan_radius"])),
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
    "simulate-start-inside": (
        SIMULATE + ("--q", "0.5,0.5", "--v", "1,0", "--collisions", "5"),
        lambda f: _flow(f, q="0.5,0.5", v="1,0", max_collisions=5)),
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
    "lyapunov-start-inside": (
        LYAPUNOV + ("--q", "0.5,0.5", "--v", "1,0", "--total-time", "10"),
        lambda f: _lyapunov(f, q="0.5,0.5", v="1,0")),
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
                              "out", "fractional", "infinite", "huge",
                              "nan_basis", "inf_translation", "nan_radius")}
        save_system(make_sphere_system(2, r=0.3), files["sinai"])
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


def test_every_package_error_has_exactly_one_base():
    errors = [cls for mod in package_modules()
              for _, cls in inspect.getmembers(mod, inspect.isclass)
              if issubclass(cls, Exception) and cls.__module__ == mod.__name__]
    assert {cls.__name__ for cls in errors} >= {
        "SystemFormatError", "BuilderError", "TraceError", "NoValidPath",
        "FlowError", "FactorLatticeError", "LatticeLimitError",
        "EnumerationGuardError", "DimensionMismatch"}
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
    return fileio.loads("\n".join(l for l in text.splitlines()
                                   if not l.startswith("#")))


class TestOneToleranceSource:
    def test_tolerance_flag_is_gone(self, capsys, hardball_file):
        code, _, err = run(capsys, "--tol-rank", "0.9", "classify",
                           "--system", str(hardball_file))
        assert code == 4
        assert err.startswith("usage error: ")

    def test_report_records_config_tolerances(self, capsys, hardball_file):
        code, text, _ = run(capsys, "classify", "--system",
                            str(hardball_file))
        assert code == 0
        assert report_body(text)["run"]["tolerances"] == {
            "rank_rel": config.RANK_REL,
            "disc": config.DISC,
            "t_min_gap": config.T_MIN_GAP,
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
