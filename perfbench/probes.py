"""Measurements that need a fresh interpreter of their own.

    python perfbench/probes.py setup             set-up time + environment
    python perfbench/probes.py headroom WORKDIR  acceptance-gate headroom

Each prints one JSON object on stdout.
"""

import sys
import time


def setup() -> dict:
    """Time to import sqcflow.cli and build the default catalog."""
    t0 = time.perf_counter()
    import sqcflow.cli
    sqcflow.cli.default_catalog()
    elapsed = time.perf_counter() - t0
    return {"setup_s": elapsed, "sqcflow_file": sqcflow.cli.__file__,
            "environment": environment()}


def environment() -> dict:
    import importlib.metadata
    import platform

    import numpy as np

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = None
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": version("scipy"),
            "scipy_imported_by_sqcflow": "scipy" in sys.modules,
            "blas": blas}


# Wall-clock gates written into the acceptance criteria of sqcflow.bench.
GATES_S = {"C01": 10.0, "C03": 5.0, "C04": 2.0, "C06": 1.0, "C07": 5.0}


def headroom(workdir: str) -> dict:
    """Gate / elapsed for each acceptance criterion with a wall-clock gate."""
    from pathlib import Path

    from sqcflow import bench
    out = {}
    for key, _desc, fn in bench.CRITERIA:
        short = key.split("_")[0]
        if short not in GATES_S:
            continue
        t0 = time.perf_counter()
        ok, detail = fn(Path(workdir))
        elapsed = time.perf_counter() - t0
        out[short] = {"elapsed_s": elapsed, "gate_s": GATES_S[short],
                      "headroom": GATES_S[short] / elapsed, "ok": bool(ok),
                      "detail": detail}
    return out


if __name__ == "__main__":
    import json
    if sys.argv[1:2] == ["setup"]:
        result = setup()
    elif sys.argv[1:2] == ["headroom"] and len(sys.argv) == 3:
        result = headroom(sys.argv[2])
    else:
        sys.exit(__doc__)
    print(json.dumps(result))
