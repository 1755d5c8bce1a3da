"""Parent/change comparison of the hard-ball build, written as one JSON file.

Usage, from the repository root, with two plain checkouts (each holding
``src/``, ``cylbench/`` and ``BENCHMARK.json``), for instance the parent
made by ``git archive <commit> | tar -x -C <dir>`` and the change a copy of
the working tree::

    python3 scripts/bench_build_once.py --parent <dir> --change <dir> \\
        --seeds 801-820 --out BENCH_build_once.json

Three parts, all deterministic in their inputs:

* ``identity``: one process per side writes, for every item, a hash of the
  bytes it produced: ``build hardball`` for hb(N,2), N = 2..12, and
  hb(N,3), N = 2..5, each with unit and with unequal masses (file and
  report body, timestamp line aside); ``build subbilliard`` on every
  ``tests/data`` file with every single index, every index pair and all
  indices; 40 flows with flow-hardball's parameters (seeds 0-39): the
  trajectory file, its TSV table and both splitting verdicts.
* ``same_process``: one process loads the parent package under another
  name beside the change and alternates calls between them, the first
  side alternating from rep to rep; CPU time of each call, medians.  The
  calls are ``hard_ball_system`` and ``cli build`` on hard-ball systems,
  and ``save_record`` on 40 records with flow-hardball's parameters
  (seeds 0-39, as in ``identity``) and on one 100,000-event record of the
  same system (each side writes the same records, flowed once by the
  change).
* ``pairs``: ``cylbench/run.py --seconds 30 --trace 0`` on each workload and
  seed, the parent and the change back to back, one run at a time, the
  first side alternating from one (workload, seed) pair to the next;
  they run before the other parts, while this script's process is small,
  because a child's ``ru_maxrss`` (``peak_rss_mb``) starts from its
  parent's;
  ``summary`` holds quartiles, ``worse_by`` (the change's median against
  the parent's, positive is worse), ``parent_iqr_share`` and win counts.
  ``--earlier <file>`` carries the ``runs`` and ``summary`` of an earlier
  output into ``earlier_rounds``, so a rerun keeps every round made.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
WORKLOADS = ("flow-hardball", "lyapunov-sinai", "diagnose-hardball")
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
SAME_PROCESS = (("hard_ball_system", 3, 200), ("hard_ball_system", 5, 200),
                ("hard_ball_system", 10, 40), ("hard_ball_system", 16, 10),
                ("hard_ball_system", 20, 8), ("cli build", 3, 200),
                ("cli build", 5, 200))


def _masses(n: int, unit: bool) -> list[float]:
    return [1.0] * n if unit else [1.0 + 0.37 * i + 0.11 * i * i
                                   for i in range(n)]


def _digest(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------------------
# identity: run inside one side's process
# ---------------------------------------------------------------------------


def _cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    body = "".join(line for line in out.getvalue().splitlines(True)
                   if not line.startswith("# generated:"))
    return code, body


def identity_side(workdir: Path) -> dict:
    import numpy as np

    from cylbill import builders, cli, model, torusflow

    os.chdir(workdir)
    items = {}
    builds = [(n, 2) for n in range(2, 13)] + [(n, 3) for n in range(2, 6)]
    for n, nu in builds:
        for unit in (True, False):
            masses = ",".join(repr(m) for m in _masses(n, unit))
            out = f"hb_{n}_{nu}_{int(unit)}.json"
            code, body = _cli(cli, ["build", "hardball", "--n", str(n),
                                    "--nu", str(nu), "--masses", masses,
                                    "--r", "0.05", "--out", out])
            items[f"build hardball {out}"] = [
                code, _digest(body), _digest(Path(out).read_bytes())]
    for path in sorted(DATA.glob("*.json")):
        k = model.load_system(path).k
        sets = ([[i] for i in range(k)]
                + [[i, j] for i in range(k) for j in range(i + 1, k)]
                + [list(range(k))])
        for indices in sets:
            label = ",".join(map(str, indices))
            out = f"sub_{path.stem}_{label.replace(',', '-')}.json"
            code, body = _cli(cli, ["build", "subbilliard", "--system",
                                    str(path), "--indices", label,
                                    "--out", out])
            items[f"build subbilliard {path.name} {label}"] = [
                code, _digest(body),
                _digest(Path(out).read_bytes()) if code == 0 else None]
    params = builders.HardBallParams(3, 2, (1.0, 1.2, 0.9), 0.2)
    system, _ = builders.hard_ball_system(params)
    model.save_system(system, "flow.json")
    system = model.load_system("flow.json")
    for seed in range(40):
        phase = torusflow.random_phase(system, np.random.default_rng(seed))
        record = torusflow.flow(system, phase, max_collisions=200,
                                default_horizon=1e4)
        torusflow.save_record(record, "traj.json")
        verdicts = [repr(torusflow.detect_splitting(part, system))
                    for part in (record.prefix(20), record)]
        items[f"flow seed {seed}"] = [
            _digest(Path("traj.json").read_bytes()),
            _digest(torusflow.record_table(record)), _digest(repr(verdicts))]
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
    differ = sorted(k for k in sides["change"]
                    if sides["parent"].get(k) != sides["change"][k])
    differ += sorted(set(sides["parent"]) - set(sides["change"]))
    return {"items": len(sides["change"]), "differ": len(differ),
            "differing": differ}


# ---------------------------------------------------------------------------
# same-process A/B
# ---------------------------------------------------------------------------


def _load_package(name: str, src: Path):
    init = src / "cylbill" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)


def _alternate(calls: dict, reps: int) -> dict:
    """Median CPU time of each side's call, the first side alternating."""
    for call in calls.values():
        call()  # warm-up
    times = {"parent": [], "change": []}
    for rep in range(reps):
        order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
        for name in order:
            start = time.process_time()
            calls[name]()
            times[name].append(time.process_time() - start)
    faster = sum(c < p for p, c in zip(times["parent"], times["change"]))
    p_ms = 1e3 * statistics.median(times["parent"])
    c_ms = 1e3 * statistics.median(times["change"])
    return {"parent_ms": round(p_ms, 3), "change_ms": round(c_ms, 3),
            "change_over_parent": round(c_ms / p_ms, 3),
            "change_faster_in": f"{faster} of {reps}"}


def same_process(parent: Path, change: Path) -> dict:
    import numpy as np

    sys.path.insert(0, str(change / "src"))
    _load_package("cylbill_parent", parent / "src")
    sides = {}
    for name, package in (("parent", "cylbill_parent"), ("change", "cylbill")):
        sides[name] = {module: importlib.import_module(f"{package}.{module}")
                       for module in ("builders", "cli", "torusflow")}
    results = {}
    with tempfile.TemporaryDirectory() as work:
        out = str(Path(work) / "out.json")
        for what, n, reps in SAME_PROCESS:
            calls = {}
            for name, side in sides.items():
                params = side["builders"].HardBallParams(n, 2, (1.0,) * n,
                                                         0.02)
                argv = ["build", "hardball", "--n", str(n), "--nu", "2",
                        "--masses", ",".join(["1"] * n), "--r", "0.02",
                        "--out", out]
                if what == "hard_ball_system":
                    calls[name] = (lambda b=side["builders"], p=params:
                                   b.hard_ball_system(p))
                else:
                    calls[name] = (lambda c=side["cli"], a=argv: _cli(c, a))
            results[f"{what} hb({n},2)"] = _alternate(calls, reps)
        builders, torusflow = sides["change"]["builders"], \
            sides["change"]["torusflow"]
        system, _ = builders.hard_ball_system(
            builders.HardBallParams(3, 2, (1.0, 1.2, 0.9), 0.2))
        records = {
            "40 flow-hardball records": [torusflow.flow(
                system, torusflow.random_phase(
                    system, np.random.default_rng(seed)),
                max_collisions=200, default_horizon=1e4)
                for seed in range(40)],
            "one 100,000-event record": [torusflow.flow(
                system, torusflow.random_phase(
                    system, np.random.default_rng(0)),
                max_collisions=10**5, default_horizon=1e300)],
        }
        for label, reps in (("40 flow-hardball records", 30),
                            ("one 100,000-event record", 6)):
            calls = {name: (lambda tf=side["torusflow"], rs=records[label]:
                            [tf.save_record(r, out) for r in rs])
                     for name, side in sides.items()}
            results[f"save_record {label}"] = _alternate(calls, reps)
    return results


# ---------------------------------------------------------------------------
# benchmark pairs
# ---------------------------------------------------------------------------


def _bench(tree: Path, workload: str, seed: int) -> dict:
    run = subprocess.run(
        [sys.executable, "cylbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "30", "--trace", "0"],
        cwd=tree, env=ENV, capture_output=True, text=True)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    result["exit"] = run.returncode
    return result


def pairs(parent: Path, change: Path, seeds: list[int]) -> list[dict]:
    runs = []
    for index, (workload, seed) in enumerate(
            (w, s) for w in WORKLOADS for s in seeds):
        first = "parent" if index % 2 == 0 else "change"
        order = (("parent", parent), ("change", change))
        if first == "change":
            order = order[::-1]
        run = {"workload": workload, "seed": seed, "first": first}
        for name, tree in order:
            run[name] = _bench(tree, workload, seed)
        runs.append(run)
    return runs


def _quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summary(runs: list[dict]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        entry = {
            "pairs": len(mine),
            "failed_parent": sum(r["parent"]["failed"] for r in mine),
            "failed_change": sum(r["change"]["failed"] for r in mine),
            "attempted_parent": sum(r["parent"]["attempted"] for r in mine),
            "attempted_change": sum(r["change"]["attempted"] for r in mine),
            "gates_held": all(r[s]["correct"] for r in mine
                              for s in ("parent", "change")),
        }
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            p = [r["parent"]["metrics"][name]["value"] for r in mine]
            c = [r["change"]["metrics"][name]["value"] for r in mine]
            pq, cq = _quartiles(p), _quartiles(c)
            worse_by = (cq[1] - pq[1]) / pq[1] * (1 if lower else -1)
            better = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
            iqr_share = (pq[2] - pq[0]) / pq[1]
            every = all((b < min(p)) if lower else (b > max(p)) for b in c)
            if worse_by > metric["bound"]:
                verdict = "worse than bound"
            elif iqr_share > metric["bound"] and not every:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            entry[name] = {
                "parent_q1_median_q3": pq, "change_q1_median_q3": cq,
                "worse_by": round(worse_by, 4),
                "parent_iqr_share": round(iqr_share, 4),
                "change_better_in": f"{better} of {len(mine)}",
                "verdict": verdict}
        out[workload] = entry
    return out


def _seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--seeds", type=_seed_range, default="801-820")
    parser.add_argument("--earlier", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--identity-side", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.identity_side is not None:
        print(json.dumps(identity_side(args.identity_side)))
        return
    parent, change = args.parent.resolve(), args.change.resolve()
    # the pairs run first, while this process is small: a child's
    # ru_maxrss starts from its parent's, so peak_rss_mb would otherwise
    # read this process's high-water mark
    runs = pairs(parent, change, args.seeds)
    doc = {
        "what": "A hard-ball build takes each retained cylinder's kept "
                "generator columns from the elimination the lattice "
                "quotient already ran on its block, maps them and checks "
                "the completion in int64 under an entry bound, and writes "
                "systems and trajectories from tolist() rows.",
        "how": "Three parts" + __doc__.split("Three parts", 1)[1].rstrip(),
        "command": "python3 cylbench/run.py --workload <workload> --seed "
                   "<seed> --seconds 30 --trace 0",
        "script": "scripts/bench_build_once.py",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()},"
                " OPENBLAS/OMP/MKL threads 1",
        "identity": identity(parent, change),
        "same_process": same_process(parent, change),
        "runs": runs,
        "summary": summary(runs),
    }
    if args.earlier is not None:
        earlier = json.loads(args.earlier.read_text())
        doc["earlier_rounds"] = earlier.get("earlier_rounds", []) + [
            {"seeds": sorted({r["seed"] for r in earlier["runs"]}),
             "runs": earlier["runs"], "summary": earlier["summary"]}]
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
