"""slepian benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Each repetition of a workload runs in a fresh child process (bench/child.py)
with BLAS pinned to one thread. The run repeats the workload until --seconds
have passed (at least three times, or two traced/untraced pairs with
--trace 1) and reports medians. Outputs are checked against an oracle after
the timed sections; an operation fails if it raises, exits non-zero, or fails
its oracle. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb, ok_frac). wall_s and setup_s are reported at a nominal machine
speed: each repetition's raw seconds are scaled by NOMINAL_UNIT_S over the
time of one unit of a fixed reference kernel run between the workload's
operations in the same process (child.Reference). That cancels most of the
machine's speed drift; the raw seconds are printed on the line before the
result. With --trace 1 the metrics are the per-layer ones from the outside-in
tracer (bench/tracer.py). Names, units and what each metric should move are
listed in BENCHMARK.json and bench/README.md.

--smoke runs every workload at tiny sizes, checks the output schema and the
metric names against BENCHMARK.json, and checks that corrupted outputs (an
eigenvalue, a report, a CLI output file) are counted as failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)   # before the oracle imports numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402  (stdlib only; needs the path entry above)

DEFAULT_SEED = 0
# Seconds that one reference unit took on the machine the benchmark was
# defined on (2 vCPUs, OpenBLAS at one thread); wall_s and setup_s are
# reported as if every unit took this long.
NOMINAL_UNIT_S = 0.03
DEADLINE_S = 170.0          # a run must end within 180 s
ORACLE_RESERVE_S = 15.0     # time kept back for the oracle after the reps

# Tolerances.floor_checks and Tolerances.cross_route as defined when this
# benchmark was written, fixed here so that the oracle cannot move with the
# program.
FLOOR_CHECKS = 1e-12
CROSS_ROUTE = 1e-10
VERIFY_CHECKS = 17          # checks verify_all reports for one (N, W, eps)

# Sizes of the measured runs and of --smoke.
SIZES = {"full": {"verify_N": 500, "dpss_N": 2000},
         "smoke": {"verify_N": 40, "dpss_N": 64}}

WORKLOADS = ("cli_readme", "verify_large", "dpss_large")


# ----------------------------------------------------------------- inputs

def readme_commands(out: Path, samples: Path) -> list[tuple[list[str], dict]]:
    """The README's ten commands plus one samples projection, all --strict.

    Each entry is (argv, {output file: expected data rows or None}).
    """
    def o(name):
        return str(out / name)
    commands = [
        (["eigs", "--N", "60", "--W", "0.3", "--out", o("eigs.csv")],
         {"eigs.csv": 60}),
        (["eigs", "--N", "60", "--W", "0.3", "--with-classical",
          "--out", o("fig.csv")], {"fig.csv": 60}),
        (["table1", "--out", o("table1.csv")], {"table1.csv": 4}),
        (["bounds", "--N", "30,60", "--W", "0.1,0.2,0.3,0.4",
          "--eps", "0.01,0.05,0.2", "--out", o("report.json")],
         {"report.json": None}),
        (["project", "--preset", "example2", "--out", o("proj.json")],
         {"proj.json": None, "proj.csv": 60}),
        (["project", "--preset", "example3", "--K", "36", "--out", o("w1.json")],
         {"w1.json": None, "w1.csv": 36}),
        (["count", "--N", "60", "--W", "0.3", "--eps", "0.05",
          "--out", o("count.txt")], {"count.txt": 4}),
        (["symmetry", "--N", "60", "--W", "0.3", "--out", o("symmetry.txt")],
         {"symmetry.txt": 1}),
        (["projector-distance", "--N", "60", "--W", "0.1", "--K", "6",
          "--b", "1.0", "--out", o("distance.txt")], {"distance.txt": 3}),
        (["turan", "--W", "0.16666666666666666", "--N-list", "7,9,11",
          "--out", o("turan.txt")], {"turan.txt": 6}),
        (["project", "--target", "samples", "--samples-file", str(samples),
          "--N", "60", "--W", "0.3", "--K", "30", "--out", o("samples.json")],
         {"samples.json": None, "samples.csv": 30}),
    ]
    return [(argv + ["--strict"], outputs) for argv, outputs in commands]


def write_samples(rng: random.Random, path: Path, n: int = 512) -> None:
    """A smooth seeded signal on [-1, 1]: three cosines of random frequency."""
    terms = [(rng.uniform(0.2, 1.0), rng.uniform(1.0, 40.0),
              rng.uniform(0.0, 2.0 * math.pi)) for _ in range(3)]
    xs = sorted([-1.0, 1.0] + [rng.uniform(-1.0, 1.0) for _ in range(n - 2)])
    lines = ["x,y"] + [
        f"{x!r},{sum(a * math.cos(w * x + p) for a, w, p in terms)!r}"
        for x in xs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_inputs(workload: str, seed: int, size: str, work: Path) -> dict:
    """Everything the program sees, drawn from the seed.

    The W ranges are narrow on purpose: verify_large's work grows as the cube
    of the Nystrom order ceil(2 pi N W) + 60, so a wide W range would make the
    seed, not the program, dominate the run-to-run spread.
    """
    rng = random.Random(f"{workload}:{seed}")
    sizes = SIZES[size]
    if workload == "cli_readme":
        samples = work / "samples.csv"
        write_samples(rng, samples)
        return {"samples": str(samples)}
    if workload == "verify_large":
        return {"N": sizes["verify_N"], "W": rng.uniform(0.448, 0.452),
                "eps": 0.05}
    return {"N": sizes["dpss_N"],
            "W": [rng.uniform(0.08, 0.12), rng.uniform(0.28, 0.32)],
            "methods": ["tridiag", "toeplitz"]}


def child_inputs(workload: str, inputs: dict, out: Path) -> dict:
    if workload == "cli_readme":
        return {"commands": [argv for argv, _ in
                             readme_commands(out, Path(inputs["samples"]))]}
    return inputs


# ---------------------------------------------------------------- oracles

def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _reject_constant(name):
    raise ValueError(f"non-finite JSON value {name}")


def parse_output(path: Path, rows: int | None) -> None:
    """Raise unless a CLI output file parses with the expected row count."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_constant=_reject_constant)
        return
    lines = text.splitlines()
    if path.suffix == ".csv":
        header = lines[0].split(",")
        lines = lines[1:]
        for line in lines:
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"{path.name}: ragged row {line!r}")
            for name, cell in zip(header, cells):
                if name != "method":
                    _finite(cell)
    else:
        for line in lines:
            key, value = line.split("=", 1)
            if value not in ("true", "false"):
                _finite(value)
    if rows is not None and len(lines) != rows:
        raise ValueError(f"{path.name}: {len(lines)} rows, expected {rows}")


def dpss_reference(inputs: dict) -> list:
    """scipy's concentration ratios, once per W and per benchmark invocation."""
    from scipy.signal.windows import dpss
    N = inputs["N"]
    return [dpss(N, N * W, Kmax=N, return_ratios=True)[1] for W in inputs["W"]]


def check_rep(workload: str, inputs: dict, outcomes: list, out: Path,
              reference) -> list[str]:
    """Per-operation error strings ('' when the operation passed its oracle)."""
    errors = [o["error"] for o in outcomes]
    if workload == "cli_readme":
        commands = readme_commands(out, Path(inputs["samples"]))
        for i, (_, outputs) in enumerate(commands):
            for name, rows in outputs.items():
                if not errors[i]:
                    try:
                        parse_output(out / name, rows)
                    except (OSError, ValueError, IndexError) as exc:
                        errors[i] = f"{name}: {exc}"
    elif workload == "verify_large":
        if not errors[0]:
            try:
                report = json.loads((out / "report.json").read_text("utf-8"))
                if report["pass"] is not True:
                    errors[0] = "report did not pass"
                elif len(report["checks"]) != VERIFY_CHECKS:
                    errors[0] = (f"{len(report['checks'])} checks, "
                                 f"expected {VERIFY_CHECKS}")
            except (OSError, ValueError, KeyError) as exc:
                errors[0] = f"report.json: {exc}"
    else:
        import numpy as np
        n_methods = len(inputs["methods"])
        for i in range(len(errors)):
            if errors[i]:
                continue
            ratios = reference[i // n_methods]
            try:
                values = np.load(out / f"values_{i}.npy")
            except (OSError, ValueError) as exc:
                errors[i] = f"values_{i}.npy: {exc}"
                continue
            if values.shape != ratios.shape:
                errors[i] = f"{values.size} eigenvalues, expected {ratios.size}"
                continue
            trusted = (values >= FLOOR_CHECKS) | (ratios >= FLOOR_CHECKS)
            gap = float(np.max(np.abs(values[trusted] - ratios[trusted]),
                               initial=0.0))
            if not gap <= CROSS_ROUTE:
                errors[i] = f"eigenvalues differ from scipy dpss by {gap:.3e}"
    return errors


def corrupt_outputs(workload: str, out: Path) -> None:
    """Damage one output per repetition, for --smoke's oracle check."""
    if workload == "cli_readme":
        path = out / "eigs.csv"
        path.write_text(path.read_text("utf-8").rsplit("\n", 2)[0] + "\n",
                        encoding="utf-8")
    elif workload == "verify_large":
        path = out / "report.json"
        report = json.loads(path.read_text("utf-8"))
        report["checks"].pop()
        path.write_text(json.dumps(report), encoding="utf-8")
    else:
        import numpy as np
        values = np.load(out / "values_0.npy")
        values[len(values) // 2] += 10 * CROSS_ROUTE
        np.save(out / "values_0.npy", values)


# ------------------------------------------------------------- repetitions

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SLEPIAN_CONFIG"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(spec: dict, spec_path: Path, timeout: float) -> dict:
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"),
                               str(spec_path)], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"child exit {proc.returncode}: {proc.stderr[-2000:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"unreadable child output: {proc.stdout[-2000:]}"}


def warm_up() -> str:
    """Import slepian once, untimed: compiles bytecode, proves the source tree."""
    if not (SRC / "slepian" / "__init__.py").is_file():
        return f"no slepian package under {SRC}"
    proc = subprocess.run([sys.executable, "-c", "import slepian"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=60)
    return proc.stderr[-2000:] if proc.returncode else ""


def n_ops(workload: str, inputs: dict) -> int:
    if workload == "cli_readme":
        return len(readme_commands(Path(), Path()))
    if workload == "verify_large":
        return 1
    return len(inputs["W"]) * len(inputs["methods"])


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full", corrupt: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, details)."""
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        inputs = make_inputs(workload, seed, size, work)
        modes = (False, True) if trace else (False,)
        min_rounds = 1 if size == "smoke" else (2 if trace else 3)
        reps = []
        while True:
            for traced in modes:
                out = work / f"rep{len(reps)}"
                out.mkdir()
                spec = {"workload": workload, "src": str(SRC), "trace": traced,
                        "out_dir": str(out),
                        "inputs": child_inputs(workload, inputs, out)}
                budget = DEADLINE_S - ORACLE_RESERVE_S - (time.perf_counter() - started)
                reps.append((traced, out, run_child(spec, work / "spec.json", budget)))
            rounds = len(reps) // len(modes)
            elapsed = time.perf_counter() - started
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                break
            if elapsed * (rounds + 1) / rounds > DEADLINE_S - ORACLE_RESERVE_S:
                break

        reference = dpss_reference(inputs) if workload == "dpss_large" else None
        attempted = failed = 0
        errors = []
        for traced, out, rep in reps:
            ops = n_ops(workload, inputs)
            attempted += ops
            if "error" in rep:
                failed += ops
                errors.append(rep["error"])
                continue
            if corrupt:
                corrupt_outputs(workload, out)
            rep_errors = [e for e in check_rep(workload, inputs, rep["outcomes"],
                                               out, reference) if e]
            failed += len(rep_errors)
            errors.extend(rep_errors)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    plain = [r for t, _, r in reps if not t and "error" not in r]
    traced_reps = [r for t, _, r in reps if t and "error" not in r]
    if not plain or (trace and not traced_reps):
        raise RuntimeError(f"no repetition of {workload} completed: {errors}")
    if trace:
        metrics = layer_metrics(plain, traced_reps)
    else:
        metrics = end_to_end_metrics(plain, attempted, failed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {"workload": workload, "seed": seed, "inputs": inputs,
               "reps": [{"traced": t, **{k: r.get(k) for k in
                                         ("setup_s", "wall_s", "reference_unit_s",
                                          "peak_rss_mb")}}
                        for t, _, r in reps],
               "errors": errors}
    return result, details


def nominal(rep: dict, key: str) -> float:
    """A repetition's raw seconds at the nominal machine speed."""
    return rep[key] * NOMINAL_UNIT_S / rep["reference_unit_s"]


def end_to_end_metrics(reps: list, attempted: int, failed: int) -> dict:
    return {
        "wall_s": {"value": median([nominal(r, "wall_s") for r in reps]),
                   "unit": "s"},
        "setup_s": {"value": median([nominal(r, "setup_s") for r in reps]),
                    "unit": "s"},
        "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in reps]),
                        "unit": "MB"},
        "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
    }


def layer_metrics(plain: list, traced: list) -> dict:
    summaries = [r["trace"] for r in traced]
    metrics = {}
    for name in tracer.span_names():
        for field, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s")):
            metrics[f"{name}.{field}"] = {
                "value": median([s["spans"][name][field] for s in summaries]),
                "unit": unit}
    for name in tracer.REPEAT_KEYS:
        metrics[f"{name}.repeat_frac"] = {
            "value": median([s["repeat_frac"][name] for s in summaries]),
            "unit": "ratio"}
    for name in tracer.OP_COUNTS:
        metrics[name] = {"value": median([s["ops"][name] for s in summaries]),
                         "unit": "count_computed"}
    metrics["trace.overhead_frac"] = {
        "value": median([nominal(r, "wall_s") for r in traced])
        / median([nominal(r, "wall_s") for r in plain]) - 1.0,
        "unit": "ratio"}
    return metrics


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": THREAD_ENV, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


# ------------------------------------------------------------------ smoke

def smoke() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    units = {trace: {m["name"]: m["unit"] for m in declared[key]}
             for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    problems = []
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        problems.append("workloads differ from BENCHMARK.json")
    for workload in WORKLOADS:
        for trace in (False, True):
            result, details = run(workload, DEFAULT_SEED, 0, trace, "smoke")
            label = f"{workload} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: failures {details['errors']}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != units[trace]:
                differ = sorted(set(got.items()) ^ set(units[trace].items()))
                problems.append(f"{label}: metric names or units differ from "
                                f"BENCHMARK.json: {differ}")
            bad = [k for k, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float))
                   or not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{label}: non-finite metrics {bad}")
        result, _ = run(workload, DEFAULT_SEED, 0, False, "smoke", corrupt=True)
        if result["correct"] or not result["failed"] \
                or not result["metrics"]["ok_frac"]["value"] < 1.0:
            problems.append(f"{workload}: corrupted output was not counted "
                            f"as a failure: {result}")
        print(f"smoke: {workload} done", flush=True)
    for problem in problems:
        print(f"smoke: FAIL {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: check schema, names and oracles")
    args = parser.parse_args(argv)
    problem = warm_up()
    if problem:
        sys.stderr.write(f"bench: cannot import slepian from {SRC}: {problem}\n")
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, details = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except RuntimeError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    for error in details["errors"]:
        sys.stderr.write(f"bench: failed operation: {error}\n")
    print(json.dumps({"env": environment()}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
