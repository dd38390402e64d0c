"""scenekit benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload desk_train --seed 0 --seconds 20 --trace 0

Run it from the root of a scenekit checkout. It builds the workload's
inputs from ``--seed``, then runs whole rounds of the workload until
``--seconds`` have passed, checks every output against numpy
recomputations, and prints one JSON object as the last line of standard
output: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. README.md describes the workloads and metrics.
"""

import os

# One BLAS thread: on a small shared machine a second thread adds more
# run-to-run spread than speed. An explicit setting is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scenekit" / "__init__.py").is_file():
        print(f"error: no scenekit sources under {SRC}; run from a scenekit checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(spans))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    for line in record["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
