"""Set up one workload in a fresh process, then print one JSON line.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the package sources:

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

The parent times the process from its start to that line, which is the
workload's ``setup_s``: interpreter start, ``import jsde_lab``, building the
preset and building the config.  The line carries the import time alone.
"""

import json
import sys
import time


def main(name, seed, workdir):
    t0 = time.perf_counter()
    import jsde_lab
    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS

    WORKLOADS[name].setup(jsde_lab, seed, workdir)
    print(json.dumps({"import_s": import_s}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
