"""memdec benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload {sample_grid,infer_sweep,protocol} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree; memdec is imported from its `src`.
Repetitions of set-up plus timed pass run while the next one still fits in
`--seconds`; `setup_s` and `wall_s` are the medians. Set-up is repeated
rather than done once so that its median, like the passes', spans the
machine's slow and fast phases. With `--trace 1` each untraced repetition is
followed by a traced one, and the per-layer figures come from its spans.
Outputs are checked after the last repetition, outside the timed region. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Digests of every output, the
run manifest, errors and spans go beside it, to
`bench/out/<workload>-seed<N>-trace<T>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sample_grid", "infer_sweep", "protocol"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke test")
    ap.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                    help="directory for the per-run digests, manifest and spans")
    return ap.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the source tree, read without starting git; None outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(args, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "commit": git_commit(), "memdec_source_sha256": source_digest(ROOT / "src" / "memdec"),
        "python": sys.version, "platform": platform.platform(),
        "numpy": np.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
    }


def repetition(workload, seed, ops):
    """Set-up then one pass; returns (inputs, outputs, setup_s, pass_s)."""
    t0 = perf_counter()
    inputs = workload.setup(seed, ops)
    t1 = perf_counter()
    out = workload.run(inputs, ops)
    return inputs, out, t1 - t0, perf_counter() - t1


def measure(workload, args, ops, spans) -> dict:
    setups, passes, traced_setups, traced_passes, digests = [], [], [], [], []
    tracer = spans.Tracer()
    p_inputs = defaultdict(list)
    start = perf_counter()
    while True:
        inputs = out = None  # so the peak memory is that of one repetition
        inputs, out, setup_s, pass_s = repetition(workload, args.seed, ops)
        setups.append(setup_s)
        passes.append(pass_s)
        digests.append(workload.digests(inputs, out))
        if args.trace:
            tracer.install()
            try:
                traced_in, traced_out, setup_s, pass_s = repetition(workload, args.seed, ops)
            finally:
                tracer.uninstall()
            for label, events in workload.p_inputs(traced_in).items():
                p_inputs[label].append(events)
            traced_setups.append(setup_s)
            traced_passes.append(pass_s)
            digests.append(workload.digests(traced_in, traced_out))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break

    workload.check(inputs, out, ops)
    same = all(d == digests[0] for d in digests)
    ops.check("outputs identical on every pass", lambda: same)
    result = {"setups": setups, "passes": passes, "digests": digests[-1],
              "digest_all_equal": same}
    if args.trace:
        layer = spans.layer_metrics(tracer, len(traced_passes), p_inputs)
        layer["trace.overhead_frac"] = (
            statistics.median(traced_passes) / statistics.median(passes) - 1, "frac")
        layer["trace.wall_s"] = (statistics.median(
            [a + b for a, b in zip(traced_setups, traced_passes)]), "s")
        result.update(metrics=layer, traced_setups=traced_setups,
                      traced_passes=traced_passes, spans=tracer.spans_json())
    else:
        result["metrics"] = {
            "wall_s": (statistics.median(passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "lfr": (workload.lfr(out), "frac"),
        }
    workload.cleanup(inputs)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread; effective because numpy is first imported below
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "memdec" / "__init__.py").is_file():
        print(f"error: no memdec sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import memdec
    if Path(memdec.__file__).resolve().parent != (src / "memdec").resolve():
        print(f"error: memdec imported from {memdec.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np

    import spans
    import workloads

    args.out.mkdir(parents=True, exist_ok=True)
    ops = workloads.Ops()
    workload = workloads.WORKLOADS[args.workload](workloads.SIZES[args.scale], args.out)
    undo = [ops.observe(workloads.hwa, name) for name in ("retrain_hwa", "retrain_ds")]
    try:
        result = measure(workload, args, ops, spans)
    finally:
        for restore in reversed(undo):
            restore()

    metrics = result.pop("metrics")
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"manifest": manifest(args, np), "attempted": ops.attempted,
              "failed": ops.failed, "failed_checks": ops.failed_checks,
              "errors": ops.errors, "metrics": metrics_json, **result}
    path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(result['passes'])} passes, details in {path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':<58} {ops.failed / ops.attempted:>14.6g} "
          f"({ops.failed}/{ops.attempted} operations)")
    for err in ops.errors:
        print("  failed: " + err.strip().splitlines()[0]
              + " ... " + err.strip().splitlines()[-1])
    for name in ops.failed_checks:
        print(f"  check failed: {name}")
    print(json.dumps({"correct": not ops.failed_checks, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
