"""One cold set-up in a fresh interpreter.

    python3 setup_probe.py SRC_DIR CONFIG_FILE

Imports the program's dependencies (NumPy, scipy.linalg) first, then times
the program's own set-up: importing combust, parse_config and
assemble_matrices.  Kernel samples (speed.py) taken just before and just
after that set-up correct it for the machine's speed.  Prints one JSON
object with the raw times in seconds.  run.py starts it several times per
run and reports the median, because an import can only be timed cold once
per process.
"""

import json
import sys
import time

SPEED_SAMPLES = 9   # kernel samples on each side of the timed set-up


def main(src_dir, config_path):
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    deps_s = time.perf_counter() - t0

    import speed

    kernel_s = [speed.kernel_time() for _ in range(SPEED_SAMPLES)]
    t1 = time.perf_counter()
    sys.path.insert(0, src_dir)
    import combust.cli
    import combust.discretization
    import combust.timestepper  # noqa: F401  (part of the set-up being timed)

    t2 = time.perf_counter()
    config = combust.cli.parse_config(config_path)
    t3 = time.perf_counter()
    combust.discretization.assemble_matrices(config.grid, config.params)
    t4 = time.perf_counter()
    kernel_s += [speed.kernel_time() for _ in range(SPEED_SAMPLES)]
    print(json.dumps({"raw_deps_s": deps_s, "raw_import_s": t2 - t1, "raw_parse_s": t3 - t2,
                      "raw_assemble_s": t4 - t3, "kernel_s": kernel_s,
                      "combust_file": combust.__file__}))


if __name__ == "__main__":
    main(*sys.argv[1:3])
