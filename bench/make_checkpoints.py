"""Regenerate the stored FP parameters that infer_sweep loads.

    python3 bench/make_checkpoints.py

Trains the protocol workload's FP runs at full size, as its timed pass does
(training data and runs seeded from `MASTER_SEED`), and writes them with
`io_formats.save_checkpoint` to `bench/data/fp_run<i>.mdck`. The output is
bit-identical on every run of the same memdec sources.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

    import workloads as wl

    ops = wl.Ops()
    protocol = wl.Protocol(wl.SIZES["full"], wl.CHECKPOINT_DIR)
    runs = protocol.train(protocol.setup(0, ops), ops)
    if ops.failed:
        sys.exit("\n".join(ops.errors))
    wl.CHECKPOINT_DIR.mkdir(exist_ok=True)
    for i, params in enumerate(runs):
        path = wl.CHECKPOINT_DIR / f"fp_run{i}.mdck"
        wl.iof.save_checkpoint(params, path, {"master_seed": wl.MASTER_SEED, "run": i})
        print(path, wl.params_digest(params))
