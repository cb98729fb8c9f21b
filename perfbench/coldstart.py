"""Cold set-up probe: import subtab, build one workload, run its first operation.

run.py starts this in a fresh interpreter several times per run, so
set-up time includes the import and every cache or plan the library
fills on first use.  Prints one JSON object:

    python3 perfbench/coldstart.py WORKLOAD SEED
"""
import time

start = time.perf_counter()
import subtab_path  # noqa: E402,F401
import subtab  # noqa: E402,F401
import subtab.cli  # noqa: E402,F401

imported = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402


def main(name: str, seed: int) -> int:
    workload = workloads.build(name, seed)
    failure = None
    try:
        output = workload.op()
    except Exception as exc:  # reported to run.py, which counts it as failed
        output, failure = None, f"{type(exc).__name__}: {exc}"
    done = time.perf_counter()
    if failure is None:
        failure = workload.check(output)
    calibration_s = calibrate.seconds()
    print(json.dumps({
        "setup_wall_s": done - start,
        "import_wall_s": imported - start,
        "calibration_s": calibration_s,
        "failure": failure,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
