"""Print, as one JSON line, the environment a benchmark result depends on.

    PYTHONPATH=src python3 perfbench/envinfo.py

Run in a child interpreter with the same environment as the timed
command-line runs, so it reports the numpy, BLAS and kernel path those
runs get.
"""

import json
import os
import platform
import sys


def kernel_path() -> str:
    """Which synthesis kernel ran, read from public module state only.

    Call after arraycov.cli is imported. A package without the numba
    switch has a single numpy path.
    """
    accel = sys.modules.get("arraycov.accel")
    return "numba" if getattr(accel, "USE_NUMBA", False) else "numpy"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas() -> str:
    import numpy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()


def main() -> None:
    import numpy

    import arraycov.cli

    print(
        json.dumps(
            {
                "nproc": os.cpu_count(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                "cpu_model": cpu_model(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "blas": blas(),
                "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
                "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE", "unset"),
                # without bytecode caching every run compiles the package again
                "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE", "unset"),
                "kernel_path": kernel_path(),
                "arraycov": os.path.dirname(arraycov.cli.__file__),
            },
            sort_keys=True,
        )
    )


if __name__ == "__main__":
    main()
