"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_np_bigru --seed 1 --seconds 20 --trace 0

Run it from the repository root. It imports ``dpforecast`` from ``src/``
of the same checkout and nothing else. With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, and the spans are written
to ``perfbench/out/``. Lines before it, starting with ``#``, give the
environment and the figures by their familiar names.
"""

import os
import sys
import time

T0 = time.perf_counter()
# Fix the BLAS thread count before numpy loads, so runs compare like with like.
BLAS_THREADS = min(1, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int, workload: str) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
        "src_sha256": _tree_digest(SRC / "dpforecast"),
    }


def _commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: src_sha256 identifies the code
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dpforecast" / "__init__.py").is_file():
        print(f"error: no dpforecast package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import dpforecast
    from perfbench import workloads

    if Path(dpforecast.__file__).resolve().parent != (SRC / "dpforecast").resolve():
        print(f"error: imported dpforecast from {dpforecast.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: workload must be one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T0

    env = environment(args.seed, args.workload)
    print("# env " + json.dumps(env, sort_keys=True))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                            import_s, OUT / f"work-{tag}-{os.getpid()}")
    print(f"# {args.workload}: " + summary_line(args.workload, outcome))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"env": env, "notes": outcome.notes, **result}, fh, indent=1)
    if outcome.tracer is not None:
        outcome.tracer.write(OUT / f"trace-{tag}.jsonl")
    print(json.dumps(result))
    return 0


def summary_line(workload: str, outcome) -> str:
    """The figures under the names the benchmark's README uses."""
    m, n = outcome.metrics, outcome.notes
    parts = []
    if "op_ref_ms_p50" in m:
        parts.append(f"setup_s {m['setup_s'][0]:.3f} s")
        if workload.startswith("train"):
            parts.append(f"epoch_s {n['epoch_s']:.3f} s ({n['epoch_ref_s']:.3f} ref_s)")
            parts.append(f"train_mae {m['mae_scaled'][0]:.6f} scaled")
        else:
            parts.append(f"pass_ms_p50 {n['op_ms_p50']:.1f} ms "
                         f"({m['op_ref_ms_p50'][0]:.1f} ref_ms)")
            parts.append(f"pass_ms_p80 {n['op_ms_p80']:.1f} ms "
                         f"({m['op_ref_ms_p80'][0]:.1f} ref_ms, n={n['ops']})")
            parts.append(f"test_mae {m['mae_scaled'][0]:.6f} scaled")
        parts.append(f"peak_rss_mb {m['peak_rss_mb'][0]:.1f} MB")
    else:
        parts.append(f"trace.overhead_frac {m['trace.overhead_frac'][0]:.4f}")
        if n.get("absent"):
            parts.append("absent " + ",".join(n["absent"]))
    parts.append(f"error_rate {outcome.failed / max(outcome.attempted, 1):.4f} fraction "
                 f"({outcome.failed}/{outcome.attempted})")
    return " | ".join(parts)


if __name__ == "__main__":
    sys.exit(main())
