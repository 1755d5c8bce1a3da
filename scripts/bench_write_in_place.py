"""Parent/change comparison of writing output files in place, as one JSON
file.

Usage, from the repository root, with two plain checkouts (each holding
``src/``, ``cylbench/`` and ``BENCHMARK.json``), for instance the parent
made by ``git archive <commit> | tar -x -C <dir>`` and the change a copy of
the working tree::

    python3 scripts/bench_write_in_place.py --parent <dir> --change <dir> \\
        --seeds 4601-4612 --out BENCH_write_in_place.json

Five parts, all deterministic in their inputs:

* ``pairs``: ``cylbench/run.py --seconds 30 --trace 0`` on each workload
  and seed, the parent and the change back to back, as in
  ``scripts/bench_build_once.py``, with its ``summary``.  They run first,
  while this script's process is small, because a child's ``ru_maxrss``
  (``peak_rss_mb``) starts from its parent's.
* ``trace``: one ``cylbench/run.py --workload diagnose-hardball --seconds
  30 --trace 1`` per side, at the first seed, and the per-layer metrics of
  ``TRACED`` from it.
* ``identity``: one process per side writes every kind of output file, each
  over an existing 64 KB file at the same path, and records a hash of the
  bytes it leaves: ``build hardball`` for unit-mass hb(N,2), r = 0.05,
  N = 2..8 (file and report body); ``classify --out`` on each of them;
  ``save_sigma`` and ``delta --out`` for two label sequences on
  ``tests/data/hb_3_2.json``; ``lyapunov --out`` on
  ``tests/data/hb_2_2.json``; and ``simulate --random --seed S
  --collisions 200 --out --table`` on hb(3,2), S = 0..9 (trajectory, TSV
  and report body).  Report files are hashed without their
  ``# generated:`` line.
* ``rebuild``: ``python -m cylbill build hardball --n 5 --nu 2 --masses
  1,1,1,1,1 --r 0.05 --out <file>`` over an existing file, one fresh
  process per call, the parent tree and the change alternating, the first
  rep dropped; wall time, and user and system CPU (``RUSAGE_CHILDREN``),
  medians.
* ``rewrite``: one process loads the parent package under another name
  beside the change and alternates ``fileio.dump`` of the hb(5,2) system
  between them over one existing file, the first side alternating from rep
  to rep; CPU (``process_time``) and wall (``perf_counter``) time of each
  call, medians.  It runs in a directory on the change checkout's
  filesystem and, where ``/dev/shm`` exists, on that tmpfs, each with the
  filesystem type and mount options read from ``/proc/mounts``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_build_once import (ENV, _cli, _digest, _load_package, _seed_range,
                              pairs, summary)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
TRACED = ("fileio.dump.self_s", "cli.main.self_s")
BUILD = ["build", "hardball", "--n", "5", "--nu", "2", "--masses",
         "1,1,1,1,1", "--r", "0.05", "--out"]
JUNK = "x" * 65536
REWRITES = 40
REBUILDS = 10


# ---------------------------------------------------------------------------
# identity: run inside one side's process
# ---------------------------------------------------------------------------


def _over_junk(path: str) -> str:
    """``path``, filled with ``JUNK`` so that a write must cut it."""
    Path(path).write_text(JUNK)
    return path


def _report(path: str) -> str:
    lines = Path(path).read_text(encoding="utf-8").splitlines(True)
    return _digest("".join(line for line in lines
                           if not line.startswith("# generated:")))


def identity_side(workdir: Path) -> dict:
    from cylbill import cli, paths

    os.chdir(workdir)
    items = {}
    for n in range(2, 9):
        out = _over_junk(f"hb_{n}_2.json")
        code, body = _cli(cli, ["build", "hardball", "--n", str(n), "--nu",
                                "2", "--masses", ",".join(["1"] * n), "--r",
                                "0.05", "--out", out])
        items[f"build hardball hb({n},2)"] = [
            code, _digest(body), _digest(Path(out).read_bytes())]
        code, _ = _cli(cli, ["classify", "--system", out,
                             "--out", _over_junk("classify.txt")])
        items[f"classify --out hb({n},2)"] = [code, _report("classify.txt")]
    hb3 = str(DATA / "hb_3_2.json")
    for labels in ([0, 1, 2], [0, 1, 2, 0, 2]):
        label = ",".join(map(str, labels))
        paths.save_sigma(labels, _over_junk("sigma.json"))
        code, _ = _cli(cli, ["delta", "--system", hb3, "--sigma", "sigma.json",
                             "--samples", "100", "--seed", "1",
                             "--out", _over_junk("delta.txt")])
        items[f"sigma {label}"] = _digest(Path("sigma.json").read_bytes())
        items[f"delta --out {label}"] = [code, _report("delta.txt")]
    code, _ = _cli(cli, ["lyapunov", "--system", str(DATA / "hb_2_2.json"),
                         "--q", "0.5,0.5", "--v", "0.6,0.8", "--total-time",
                         "50", "--seed", "1",
                         "--out", _over_junk("lyapunov.txt")])
    items["lyapunov --out hb_2_2"] = [code, _report("lyapunov.txt")]
    for seed in range(10):
        code, body = _cli(cli, ["simulate", "--system", "hb_3_2.json",
                                "--random", "--seed", str(seed),
                                "--collisions", "200",
                                "--out", _over_junk("traj.json"),
                                "--table", _over_junk("traj.tsv")])
        items[f"simulate hb(3,2) seed {seed}"] = [
            code, _digest(body), _digest(Path("traj.json").read_bytes()),
            _digest(Path("traj.tsv").read_bytes())]
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
    return {"items": len(c), "differ": len(differ), "differing": differ}


# ---------------------------------------------------------------------------
# the built system's file rewritten, in one process and in fresh ones
# ---------------------------------------------------------------------------


def _mount(path: Path) -> dict:
    """The mount that holds ``path``, from ``/proc/mounts``."""
    path = os.path.realpath(path)
    best = ("", "", "")
    for line in Path("/proc/mounts").read_text().splitlines():
        _, point, fstype, options = line.split()[:4]
        inside = path == point or path.startswith(point.rstrip("/") + "/")
        if inside and len(point) >= len(best[0]):
            best = (point, fstype, options)
    return dict(zip(("mount", "fstype", "options"), best))


def _medians(times: dict) -> dict:
    return {f"{name}_{unit}": round(1e6 * statistics.median(t[unit]), 1)
            for name, t in times.items() for unit in ("cpu", "wall")}


def rewrite(parent: Path, change: Path) -> dict:
    sys.path.insert(0, str(change / "src"))
    _load_package("cylbill_parent", parent / "src")
    dumps = {name: importlib.import_module(f"{package}.fileio").dump
             for name, package in (("parent", "cylbill_parent"),
                                   ("change", "cylbill"))}
    from cylbill import builders, model

    system, _ = builders.hard_ball_system(
        builders.HardBallParams(5, 2, (1.0,) * 5, 0.05))
    doc = model.system_to_dict(system)
    places = {"checkout": change}
    if Path("/dev/shm").is_dir():
        places["/dev/shm"] = Path("/dev/shm")
    results = {}
    for label, where in places.items():
        with tempfile.TemporaryDirectory(dir=where) as work:
            out = Path(work) / "hb_5_2.json"
            for dump in dumps.values():
                dump(doc, out)      # warm-up; the file now exists
            times = {name: {"cpu": [], "wall": []} for name in dumps}
            for rep in range(REWRITES):
                order = ("parent", "change") if rep % 2 == 0 \
                    else ("change", "parent")
                for name in order:
                    cpu, wall = time.process_time(), time.perf_counter()
                    dumps[name](doc, out)
                    times[name]["wall"].append(time.perf_counter() - wall)
                    times[name]["cpu"].append(time.process_time() - cpu)
            faster = sum(c < p for p, c in zip(times["parent"]["wall"],
                                               times["change"]["wall"]))
            results[label] = {
                **_mount(Path(work)), "bytes": out.stat().st_size,
                "reps": REWRITES, **_medians(times),
                "change_faster_in_wall": f"{faster} of {REWRITES}"}
    return {"unit": "us", "sides": results}


def rebuild(parent: Path, change: Path) -> dict:
    trees = {"parent": parent, "change": change}
    times = {name: {"wall": [], "user": [], "sys": []} for name in trees}
    with tempfile.TemporaryDirectory(dir=change) as work:
        out = str(Path(work) / "hb_5_2.json")
        for rep in range(REBUILDS + 1):
            order = ("parent", "change") if rep % 2 else ("change", "parent")
            for name in order:
                before = resource.getrusage(resource.RUSAGE_CHILDREN)
                start = time.perf_counter()
                subprocess.run([sys.executable, "-m", "cylbill", *BUILD, out],
                               env={**ENV, "PYTHONPATH": str(trees[name]
                                                             / "src")},
                               stdout=subprocess.DEVNULL, check=True)
                wall = time.perf_counter() - start
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                if rep:     # the first rep creates the file and warms caches
                    t = times[name]
                    t["wall"].append(wall)
                    t["user"].append(after.ru_utime - before.ru_utime)
                    t["sys"].append(after.ru_stime - before.ru_stime)
        mount = _mount(Path(work))
    result = {"command": "python -m cylbill " + " ".join(BUILD) + " <file>",
              **mount, "reps": REBUILDS, "unit": "s"}
    for name, t in times.items():
        for what, values in t.items():
            result[f"{name}_{what}"] = round(statistics.median(values), 4)
    faster = sum(c < p for p, c in zip(times["parent"]["wall"],
                                       times["change"]["wall"]))
    result["change_faster_in_wall"] = f"{faster} of {REBUILDS}"
    return result


# ---------------------------------------------------------------------------
# one traced diagnose-hardball run per side
# ---------------------------------------------------------------------------


def trace(parent: Path, change: Path, seed: int) -> dict:
    result = {"command": "python3 cylbench/run.py --workload "
                         f"diagnose-hardball --seed {seed} --seconds 30 "
                         "--trace 1"}
    for name, tree in (("parent", parent), ("change", change)):
        run = subprocess.run(
            [sys.executable, "cylbench/run.py", "--workload",
             "diagnose-hardball", "--seed", str(seed), "--seconds", "30",
             "--trace", "1"],
            cwd=tree, env=ENV, capture_output=True, text=True)
        metrics = json.loads(run.stdout.strip().splitlines()[-1])["metrics"]
        result[name] = {"exit": run.returncode,
                        **{m: metrics[m]["value"] for m in TRACED}}
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--seeds", type=_seed_range, default="4601-4612")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--identity-side", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.identity_side is not None:
        print(json.dumps(identity_side(args.identity_side)))
        return
    parent, change = args.parent.resolve(), args.change.resolve()
    runs = pairs(parent, change, args.seeds)
    doc = {
        "what": "Every file cylbill writes goes through fileio.write_text, "
                "which opens without O_TRUNC, writes the bytes from offset "
                "0 and cuts a regular file to the length written, instead "
                "of open(path, 'w'), which truncates it to zero first.",
        "how": "Five parts" + __doc__.split("Five parts", 1)[1].rstrip(),
        "command": "python3 cylbench/run.py --workload <workload> --seed "
                   "<seed> --seconds 30 --trace 0",
        "script": "scripts/bench_write_in_place.py",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()},"
                " OPENBLAS/OMP/MKL threads 1",
        "trace": trace(parent, change, args.seeds[0]),
        "identity": identity(parent, change),
        "rebuild": rebuild(parent, change),
        "rewrite": rewrite(parent, change),
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
