"""One repetition of a benchmark workload, in a fresh process.

Usage: python3 bench/child.py SPEC.json

A fresh process per repetition is needed because ``ru_maxrss`` is per
process and the CLI's ``install_tolerances`` mutates the global ``TOL``.
The child times ``import slepian`` (numpy and scipy included), then the
workload's timed section with slices of a fixed reference kernel between its
operations, reads its peak RSS, then writes the outputs the parent checks into
the spec's ``out_dir``. It
prints one JSON line: times, peak RSS, one entry per operation, and the span
summary when traced.

Only the standard library is imported before the timed import.
"""

import json
import resource
import sys
import time
from pathlib import Path


def run_cli_readme(inputs, recorder, reference):
    from slepian import cli
    outcomes = []
    reference.tick(len(inputs["commands"]))
    for argv in inputs["commands"]:
        span = recorder.enter(f"cli.{argv[0]}") if recorder else None
        try:
            code = cli.main(argv)
            error = "" if code == 0 else f"exit code {code}"
        except SystemExit as exc:
            error = f"exit code {exc.code}"
        except Exception as exc:  # a failed operation is counted, not fatal
            error = repr(exc)
        finally:
            if span is not None:
                recorder.exit(span)
        outcomes.append({"op": argv[0], "error": error})
        reference.tick(len(inputs["commands"]))
    return outcomes, None


def run_verify_large(inputs, recorder, reference):
    from slepian import bounds
    reference.tick(1)
    try:
        report = bounds.verify_all((inputs["N"],), (inputs["W"],), (inputs["eps"],))
        outcomes = [{"op": "verify_all", "error": ""}]
    except Exception as exc:  # a failed operation is counted, not fatal
        report, outcomes = None, [{"op": "verify_all", "error": repr(exc)}]
    reference.tick(1)
    return outcomes, report


def run_dpss_large(inputs, recorder, reference):
    from slepian import discrete
    outcomes, values = [], []
    n_ops = len(inputs["W"]) * len(inputs["methods"])
    reference.tick(n_ops)
    for W in inputs["W"]:
        for method in inputs["methods"]:
            op = f"spectrum W={W!r} {method}"
            try:
                # keep only the values, so no spectrum outlives its call
                values.append(discrete.spectrum(
                    discrete.DiscreteParams(inputs["N"], W), method).values)
                outcomes.append({"op": op, "error": ""})
            except Exception as exc:  # a failed operation is counted, not fatal
                values.append(None)
                outcomes.append({"op": op, "error": repr(exc)})
            reference.tick(n_ops)
    return outcomes, values


def save_outputs(workload, result, out_dir: Path):
    """Write what the parent's oracle reads; runs after the timed section."""
    if workload == "verify_large" and result is not None:
        (out_dir / "report.json").write_text(result.to_json(), encoding="utf-8")
    elif workload == "dpss_large":
        import numpy as np
        for i, values in enumerate(result):
            if values is not None:
                np.save(out_dir / f"values_{i}.npy", values)


class Reference:
    """Fixed work resembling the workloads': a LAPACK eigensolve, GEMMs,
    complex exponentials and interpreted Python.

    The machine's speed drifts by tens of percent within seconds to minutes.
    The workload calls ``tick`` before its first operation and after each of
    its n operations; each tick runs 1/(n + 1) of the reference's UNITS. The
    time per unit thus samples the machine's speed across the workload's
    whole run, and the parent scales the child's
    raw seconds by it, which cancels most of the drift. Tick time is excluded
    from the workload's wall time. Runs through the original
    ``numpy.linalg.eigh`` even when the tracer has patched it.
    """

    UNITS = 12

    def __init__(self):
        import numpy as np
        self.np = np
        self.eigh = np.linalg.eigh
        self.seconds = 0.0
        self.units = 0

    def tick(self, n_ops: int) -> None:
        """Run 1/(n_ops + 1) of the units; arrays are made afresh and
        dropped, so nothing is held while the workload runs."""
        np = self.np
        t0 = time.perf_counter()
        units = max(1, round(self.UNITS / (n_ops + 1)))
        for _ in range(units):
            i = np.arange(500)
            square = np.cos(0.001 * np.outer(i, i))
            self.eigh(square[:300, :300])
            np.dot(square, square)
            np.dot(square, square)
            np.exp(1j * np.pi * np.outer(np.linspace(-1.0, 1.0, 1001),
                                         np.arange(-59, 60, 2))).sum()
            total = 0
            for k in range(50000):
                total += k * k
        self.seconds += time.perf_counter() - t0
        self.units += units


WORKLOADS = {"cli_readme": run_cli_readme, "verify_large": run_verify_large,
             "dpss_large": run_dpss_large}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    t0 = time.perf_counter()
    import slepian
    setup_s = time.perf_counter() - t0
    src = Path(spec["src"]).resolve()
    if src not in Path(slepian.__file__).resolve().parents:
        sys.stderr.write(f"imported slepian from {slepian.__file__}, "
                         f"not from {src}\n")
        return 2

    reference = Reference()
    recorder = None
    if spec["trace"]:
        from tracer import Recorder
        recorder = Recorder()
        recorder.install()
    try:
        t1 = time.perf_counter()
        outcomes, result = WORKLOADS[spec["workload"]](spec["inputs"], recorder,
                                                       reference)
        wall_s = time.perf_counter() - t1 - reference.seconds
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    save_outputs(spec["workload"], result, Path(spec["out_dir"]))
    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "reference_unit_s": reference.seconds / reference.units,
        "outcomes": outcomes,
        "trace": recorder.summary() if recorder is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
