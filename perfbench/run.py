"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts two fresh processes: an
untimed preparation process that generates the seeded inputs, then the
measured process.  Both see one BLAS and OpenMP thread, a fixed string
hash seed and a fixed address-space layout.  Inputs go to a scratch
directory under ``perfbench/runs/``, which is removed afterwards; a traced run leaves its spans in
``perfbench/runs/trace-<workload>-seed<N>.jsonl``.  Exits non-zero, with
no result line, if the library sources are missing or a process fails.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # the whole run, both processes included

# Settings that made runs repeat; perfbench/README.md gives the measurement
# behind each.  One BLAS thread keeps the step median but narrows its spread;
# the fixed hash seed lays dictionaries of strings out alike in every run.
# The memory allocator keeps its defaults, so page faults and the zeroing
# of fresh arrays count in every figure, as they do for a user.
STEADY_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout() -> None:
    """Turn off address-space randomisation for this child process.

    Identical runs otherwise differ by up to a quarter in request latency,
    depending on where the heap and libraries land.  Like ``setarch -R``,
    this sets only the personality of the process being started.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    src = ROOT / "src"
    if not (src / "fiinet" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {src}", file=sys.stderr)
        return 2

    runs = HERE / "runs"
    data = runs / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    env = dict(os.environ, **STEADY_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.monotonic()

    def remaining() -> float:
        return max(1.0, DEADLINE_S - (time.monotonic() - start))

    try:
        data.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(data)],
            env=env, check=True, timeout=remaining(), preexec_fn=fixed_layout,
        )
        cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--data", str(data)]
        if args.trace:
            cmd += ["--trace-out", str(runs / f"trace-{args.workload}-seed{args.seed}.jsonl")]
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining(), preexec_fn=fixed_layout)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if proc.returncode != 0:
        # whatever it printed goes to stderr, so no result line is printed
        sys.stderr.write(proc.stdout)
        print(f"perfbench: measured process exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
