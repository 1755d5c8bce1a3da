"""Parent/change comparison of the lattice reduction's Gram-Schmidt, as one
JSON file.

Usage, from the repository root, with two plain checkouts (each holding
``src/``, ``cylbench/`` and ``BENCHMARK.json``), for instance the parent
made by ``git archive <commit> | tar -x -C <dir>`` and the change a copy of
the working tree::

    python3 scripts/bench_lll_qr.py --parent <dir> --change <dir> \\
        --seeds 1001-1010 --out BENCH_lll_qr.json

Four parts, all deterministic in their inputs:

* ``identity``: one process per side writes, for every item, a hash of
  what it computed: the reduced basis, the reduced transform and the
  fundamental diameter of every lattice of ``tests/lll_oracle.census``;
  40 flows with flow-hardball's parameters (seeds 0-39), each trajectory
  file with both splitting verdicts; the whole ``lyapunov_max`` result
  (estimate, window logs, spectrum, counts) at seeds 0-3 on each system
  of ``LYAPUNOV``; and ``cylbill build hardball`` then ``cylbill
  simulate --random --seed 1`` on every hard-ball system of the census
  (50 collisions) and on unit-mass hb(N,2), r = 0.02, for N in
  ``RECORDS`` (200 collisions): exit code, trajectory file, and the
  report body with its ``horizon`` line taken out and reported in the
  clear.  ``moved`` lists the census lattices whose reduction differs,
  with both diameters, and ``horizons`` the systems whose ``horizon``
  differs, with both values.
* ``lll``: one process alternates the oracle (the parent's loop, in
  ``tests/lll_oracle.py``) and the change's ``geometry._lll`` on the
  reduced lattice of each system of ``LLL_SYSTEMS``, unit and unequal
  (1 + 0.1 i) masses, the first side alternating from rep to rep; CPU
  time of each call, medians.
* ``simulate``: CPU time (``RUSAGE_CHILDREN``) of ``python -m cylbill
  simulate --random --seed 1 --collisions 200`` on unit-mass hb(N,2),
  r = 0.02, for N in ``SIMULATE``, one process per call, the parent tree
  and the change alternating; medians.  Each call starts a fresh
  interpreter, so the time includes imports and reading the system file.
* ``pairs``: ``cylbench/run.py --seconds 30 --trace 0`` on each workload
  and seed, the parent and the change back to back, as in
  ``scripts/bench_build_once.py``, with its ``summary``.  They run first,
  while this script's process is small, because a child's ``ru_maxrss``
  (``peak_rss_mb``) starts from its parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_ball_pad import (FLOWS, _flow_system, _flows, _lyapunov,
                            _lyapunov_system, _side)
from bench_build_once import (ENV, _alternate, _cli, _digest, _seed_range,
                              pairs, summary)

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
LYAPUNOV = ("sinai r=0.3", "hb(2,2) r=0.1",
            "hb(3,2) masses 1,1.2,0.9 r=0.2", "hb_4_3.json")
LLL_SYSTEMS = ((8, 2), (12, 2), (16, 2), (20, 2), (24, 2),
               (4, 3), (8, 3), (12, 3), (16, 3))
RECORDS = (12, 16, 20)
SIMULATE = (12, 16, 20, 24)


def _masses(n: int, unequal: bool) -> list[float]:
    return [1.0 + 0.1 * i * unequal for i in range(n)]


def _lyapunov_systems(side) -> dict:
    systems = {}
    for label in LYAPUNOV:
        if label.startswith("hb(3,2)"):
            systems[label] = _flow_system(side, *FLOWS[0][1:])
        else:
            systems[label] = _lyapunov_system(side, label)
    return systems


def _build_argv(n: int, nu: int, masses, out: str) -> list[str]:
    return ["build", "hardball", "--n", str(n), "--nu", str(nu),
            "--masses", ",".join(map(repr, masses)), "--r", "0.02",
            "--out", out]


# ---------------------------------------------------------------------------
# identity: run inside one side's process
# ---------------------------------------------------------------------------


def _simulate(cli, system: str, collisions: int) -> list:
    code, body = _cli(cli, ["simulate", "--system", system, "--random",
                            "--seed", "1", "--collisions", str(collisions),
                            "--out", "traj.json"])
    lines = body.splitlines(True)
    horizon = [line for line in lines if line.startswith('  "horizon":')]
    rest = "".join(line for line in lines if line not in horizon)
    return [code, _digest(rest), horizon[0].split(":", 1)[1].strip(" ,\n"),
            _digest(Path("traj.json").read_bytes())]


def identity_side(workdir: Path) -> dict:
    sys.path.insert(0, str(TESTS))
    from lll_oracle import census

    side = _side("cylbill")
    tf, geometry, cli = side["torusflow"], side["geometry"], side["cli"]
    os.chdir(workdir)
    items = {}
    for label, kind, _, basis in census():
        lattice = geometry.Lattice(basis)
        items[f"census {label} {kind}"] = [
            _digest(lattice.reduced_transform.tobytes()),
            _digest(lattice.reduced_basis.tobytes()),
            repr(lattice.fundamental_diameter)]

    def saved(record) -> str:
        tf.save_record(record, "traj.json")
        return _digest(Path("traj.json").read_bytes())

    system = _flow_system(side, *FLOWS[0][1:])
    for seed, record in enumerate(_flows(side, system, range(40))):
        verdicts = [repr(tf.detect_splitting(part, system))
                    for part in (record.prefix(20), record)]
        items[f"flow-hardball seed {seed}"] = [saved(record),
                                              _digest(repr(verdicts))]
    for label, system in _lyapunov_systems(side).items():
        for seed, res in enumerate(_lyapunov(side, system, range(4))):
            items[f"lyapunov_max {label} seed {seed}"] = _digest(repr(res))
    builds = [(n, nu, unequal) for nu, top in ((2, 12), (3, 8))
              for n in range(2, top + 1) for unequal in (False, True)]
    for n, nu, unequal in builds:
        out = f"hb_{n}_{nu}_{int(unequal)}.json"
        _cli(cli, _build_argv(n, nu, _masses(n, unequal), out))
        label = f"hb({n},{nu})" + " masses 1+0.1i" * unequal
        items[f"simulate {label} 50 collisions"] = _simulate(cli, out, 50)
    for n in RECORDS:
        out = f"hb_{n}_2.json"
        _cli(cli, _build_argv(n, 2, _masses(n, False), out))
        items[f"simulate hb({n},2) 200 collisions"] = _simulate(cli, out, 200)
    return items


def identity(parent: Path, change: Path) -> dict:
    sides = {}
    for name, tree in (("parent", parent), ("change", change)):
        with tempfile.TemporaryDirectory() as work:
            run = subprocess.run(
                [sys.executable, __file__, "--identity-side", work],
                env={**ENV, "PYTHONPATH": str(tree / "src")},
                capture_output=True, text=True, check=True)
        sides[name] = json.loads(run.stdout)
    p, c = sides["parent"], sides["change"]
    differ = sorted(k for k in c if p.get(k) != c[k])
    differ += sorted(set(p) - set(c))
    moved = {k: {"diameter_parent": p[k][2], "diameter_change": c[k][2]}
             for k in differ if k.startswith("census")}
    horizons = {k: {"parent": p[k][2], "change": c[k][2]}
                for k in c if k.startswith("simulate") and p[k][2] != c[k][2]}
    other = [k for k in differ if not k.startswith("census")
             and not (k.startswith("simulate")
                      and p[k][:2] + p[k][3:] == c[k][:2] + c[k][3:])]
    return {"items": len(c), "differ": len(differ), "moved": moved,
            "horizons": horizons,
            "differ_apart_from_moved_reductions_and_horizons": other,
            "digests": sides}


# ---------------------------------------------------------------------------
# same-process A/B of the reduction
# ---------------------------------------------------------------------------


def lll(change: Path) -> dict:
    sys.path.insert(0, str(change / "src"))
    sys.path.insert(0, str(TESTS))
    from lll_oracle import lll_loop

    side = _side("cylbill")
    builders, geometry, np = side["builders"], side["geometry"], side["np"]
    results = {}
    for n, nu in LLL_SYSTEMS:
        for unequal in (False, True):
            system, _ = builders.hard_ball_system(builders.HardBallParams(
                n, nu, _masses(n, unequal), 0.02))
            basis = system.lattice.basis
            label = (f"hb({n},{nu}) d={basis.shape[0]}"
                     + " masses 1+0.1i" * unequal)
            (red_o, u_o), (red_c, u_c) = lll_loop(basis), \
                geometry._lll(basis)
            same = (np.array_equal(u_o, u_c)
                    and np.array_equal(red_o, red_c))
            results[label] = {
                **_alternate({"parent": lambda b=basis: lll_loop(b),
                              "change": lambda b=basis: geometry._lll(b)},
                             5 if n < 16 else 3),
                "same_reduction": same}
    return results


# ---------------------------------------------------------------------------
# simulate through the entry point, alternating processes
# ---------------------------------------------------------------------------


def _child_cpu(tree: Path, argv: list[str]) -> float:
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-m", "cylbill", *argv],
                   env={**ENV, "PYTHONPATH": str(tree / "src")},
                   stdout=subprocess.DEVNULL, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime
            + after.ru_stime - before.ru_stime)


def simulate(parent: Path, change: Path, reps: int = 7) -> dict:
    trees = {"parent": parent, "change": change}
    results = {}
    with tempfile.TemporaryDirectory() as work:
        for n in SIMULATE:
            system = str(Path(work) / f"hb_{n}_2.json")
            _child_cpu(change, _build_argv(n, 2, _masses(n, False), system))
            argv = ["simulate", "--system", system, "--random", "--seed", "1",
                    "--collisions", "200",
                    "--out", str(Path(work) / "traj.json")]
            times = {"parent": [], "change": []}
            for rep in range(reps + 1):
                order = ("parent", "change") if rep % 2 else ("change",
                                                              "parent")
                for name in order:
                    cpu = _child_cpu(trees[name], argv)
                    if rep:     # the first rep warms the file cache
                        times[name].append(cpu)
            p = statistics.median(times["parent"])
            c = statistics.median(times["change"])
            faster = sum(b < a for a, b in zip(times["parent"],
                                               times["change"]))
            results[f"hb({n},2)"] = {
                "parent_s": round(p, 4), "change_s": round(c, 4),
                "change_over_parent": round(c / p, 3),
                "change_faster_in": f"{faster} of {reps}"}
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--seeds", type=_seed_range, default="1001-1010")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--identity-side", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.identity_side is not None:
        print(json.dumps(identity_side(args.identity_side)))
        return
    parent, change = args.parent.resolve(), args.change.resolve()
    runs = pairs(parent, change, args.seeds)
    doc = {
        "what": "The LLL reduction reads its Gram-Schmidt coefficients and "
                "squared norms from one Householder QR, recomputed where the "
                "loop recomputed them, instead of a classical Gram-Schmidt "
                "double loop.",
        "how": "Four parts" + __doc__.split("Four parts", 1)[1].rstrip(),
        "command": "python3 cylbench/run.py --workload <workload> --seed "
                   "<seed> --seconds 30 --trace 0",
        "script": "scripts/bench_lll_qr.py",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()},"
                " OPENBLAS/OMP/MKL threads 1",
        "identity": identity(parent, change),
        "lll": lll(change),
        "simulate": simulate(parent, change),
        "runs": runs,
        "summary": summary(runs),
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
