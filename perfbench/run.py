"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sustained --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric and the per-layer self-time
table.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
output check prints ``"correct": false`` and exits with code 1.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# One BLAS thread per process, so the BLAS thread pool does not compete
# with the program for the cores.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

#: Fresh processes that repeat the set-up; with the run's own set-up
#: they give five samples, whose median is ``setup_s``.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


def _parse(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up, print the set-up seconds, shut down (used for setup_s)",
    )
    return parser.parse_args(argv)


def _probe_setup(args) -> float:
    import subprocess

    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
    return float(done.stdout.strip().splitlines()[-1])


def _catalog():
    """(name, unit) of the end-to-end and per-layer metrics in BENCHMARK.json."""
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple(
        [(m["name"], m["unit"]) for m in spec[kind]] for kind in ("end_to_end", "per_layer")
    )


def _print_layer_table(layers: dict) -> None:
    rows = layers["_table"]
    wall = layers["_traced_wall_s"]
    print(f"per-layer self time over {wall:.3f} s traced host wall:")
    print(f"  {'layer':<20} {'self_s':>10} {'calls':>9} {'share':>7}")
    for layer, seconds, calls, share in rows:
        print(f"  {layer:<20} {seconds:>10.4f} {calls:>9} {share:>7.1%}")
    total = sum(r[1] for r in rows)
    print(f"  {'sum':<20} {total:>10.4f}  (traced wall {wall:.4f} s)")


def main(argv=None) -> int:
    args = _parse(argv)
    import json
    import statistics

    sys.path.insert(0, HERE)
    import envinfo
    from layers import LayerTracer
    from workloads import WORKLOADS, CheckFailed

    end_to_end, per_layer = _catalog()

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        workload.close()
        print(repr(setup_s))
        return 0

    tracer = LayerTracer() if args.trace else None
    try:
        result = workload.run(args.seconds, tracer)
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        workload.close()

    print("env: " + json.dumps(envinfo.environment(ROOT), sort_keys=True))
    print("samples: " + json.dumps(result["samples"], sort_keys=True))
    if args.trace:
        layers = result["layers"]
        _print_layer_table(layers)
        if tracer.missing:
            print("entry points not found: " + ", ".join(sorted(tracer.missing)))
        known = {name for name, _unit in per_layer} | {"_table", "_traced_wall_s"}
        unknown = set(layers) - known
        if unknown:
            raise KeyError(f"per-layer figures missing from BENCHMARK.json: {sorted(unknown)}")
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in per_layer
        }
    else:
        setup = [setup_s] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
        print("setup_s samples: " + json.dumps(setup))
        values = dict(result["metrics"], setup_s=statistics.median(setup))
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in end_to_end
        }
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
