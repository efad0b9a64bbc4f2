"""``python -m bench``: run, trace and compare the benchmark.

- ``python -m bench --workload W --seed S --seconds T --trace 0|1`` measures
  one workload in this interpreter and ends with the one-line JSON result
  (the form ``BENCHMARK.json`` names);
- ``python -m bench [run]`` runs every workload that way, each in a fresh
  interpreter, adds the cross-workload checks and writes
  ``bench/out/results.json``; ``python -m bench trace`` does the same with
  ``--trace 1`` and writes ``bench/out/trace.json``;
- ``python -m bench compare A.json B.json`` applies the per-metric bounds.

Every form exits non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: BLAS/OpenMP pools pinned to one thread: with the default pool the numbers
#: measure the pool scheduler of a 2-core box, not the program.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_NO_CACHE": "1",
}


def _pin_environment() -> None:
    """Must run before numpy is imported (the pools read these at load)."""
    os.environ.update(PINNED_ENV)
    for name in [n for n in os.environ if n.startswith("REPRO_AEAD_")]:
        del os.environ[name]  # the AEAD backend is set per workload, explicitly
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("bench: no program source at src/repro next to the benchmark; it measures "
                 "the checkout it sits in, never an installed copy")
    sys.path.insert(0, str(ROOT / "src"))


def _run_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def _environment(seed: int) -> dict:
    import numpy

    try:
        import cryptography
        crypto_version = cryptography.__version__
    except ImportError:
        crypto_version = None
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    from bench.workloads import SIZES
    from bench.worker import MIN_REPEATS

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": crypto_version,
        "nproc": os.cpu_count(),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "git_commit": git.stdout.strip() or None,
        "seed": seed,
        "min_repeats": MIN_REPEATS,
        "run_seconds": _run_seconds(),
        "pinned_env": PINNED_ENV,
        "sizes": SIZES,
    }


def _paper_shape(docs: dict) -> list:
    """DS reaches MS's final RMSE in <= 1/2 the sim seconds and <= 1/50 the bytes."""
    from repro.sim.recorder import RunResult

    ds = RunResult.from_json(docs["cluster_ds"]["curve_json"])
    ms = docs["cluster_ms"]["metrics"]
    target = ms["final_rmse"]["value"]
    epoch = ds.epochs_to_target(target)
    if epoch is None:
        return [("paper shape: DS reaches MS's final RMSE", False,
                 f"cluster_ds never reaches {target:.4f}")]
    ds_s, ds_bytes = ds.time_to_target(target), ds.records[epoch].cum_bytes
    ms_s, ms_bytes = ms["sim_s"]["value"], ms["wire_bytes"]["value"]
    return [
        ("paper shape: DS reaches MS's final RMSE in <= 1/2 the simulated seconds",
         ds_s <= ms_s / 2, f"{ds_s:.4g} sim_s vs {ms_s:.4g} sim_s = {ms_s / ds_s:.1f}x sooner"),
        ("paper shape: ... and <= 1/50 the cumulative bytes",
         ds_bytes <= ms_bytes / 50,
         f"{ds_bytes} B vs {ms_bytes} B = {ms_bytes / ds_bytes:.0f}x fewer"),
    ]


def _run_all(seed: int, trace: bool, out_dir: Path) -> int:
    from bench.workloads import WORKLOADS

    env = _environment(seed)
    seconds = env["run_seconds"]
    docs, failed = {}, []
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, "-m", "bench", "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(out_dir)],
            cwd=ROOT,
        )
        result = out_dir / (f"trace-{name}.json" if trace else f"{name}.json")
        if done.returncode != 0:
            failed.append(name)
        if result.exists():
            docs[name] = json.loads(result.read_text())
    checks = []
    if not trace and not failed:
        checks = _paper_shape(docs)
        print("== cross-workload checks")
        for label, ok, detail in checks:
            print(f"  [{'ok' if ok else 'FAILED'}] {label}: {detail}")
    correct = not failed and all(ok for _label, ok, _detail in checks)
    for doc in docs.values():
        doc.pop("curve_json", None)
    out = out_dir / ("trace.json" if trace else "results.json")
    out.write_text(json.dumps(
        {"environment": env, "workloads": docs, "checks": checks, "correct": correct}, indent=1
    ) + "\n")
    print(f"wrote {out}" + ("" if trace else "; wall metrics are min-of-R, with R too small for "
                            "any percentile above the median"))
    if failed:
        print(f"FAILED workloads: {', '.join(failed)}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", nargs="?", default="run", choices=("run", "trace", "compare"))
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload", help="measure this one workload in this interpreter")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every data/split/partition/topology/run/traffic seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement budget of one workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT_DIR, help="directory of the result files")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="size multiplier; anything but 1 is for the self-test only")
    args = parser.parse_args(argv)

    if args.mode == "compare":
        from bench.compare import compare_files

        if len(args.files) != 2:
            parser.error("compare needs exactly two result files")
        return compare_files(*args.files)

    _pin_environment()
    if args.workload is None:
        return _run_all(args.seed, args.mode == "trace" or bool(args.trace), args.out.resolve())
    from bench.worker import run_workload
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    seconds = args.seconds if args.seconds is not None else _run_seconds()
    return run_workload(args.workload, args.seed, seconds, bool(args.trace), args.scale,
                        args.out.resolve())


if __name__ == "__main__":
    sys.exit(main())
