"""One benchmark child: a fresh interpreter that runs one eigenprod command.

    python3 bench/child.py --src SRC --mode {setup,cold,trace}
        [--fixtures] [--warm N [--warm-out-dir DIR]] [--calib UNITS]
        [--spans PATH] -- CLI-ARGS...

``setup`` imports the package (and loads the fixtures with ``--fixtures``)
and exits.  ``cold`` also calls ``eigenprod.cli.main(CLI-ARGS)`` once and,
with ``--warm N``, N more times in the same process with every
``lru_cache`` full; ``--warm-out-dir`` replaces the ``--out-dir`` of those
calls.  ``trace`` makes the cold call with the layer tracer
installed and writes its spans to ``--spans``.

With ``--calib UNITS`` the child times UNITS calibration units (a fixed
piece of work, see ``calibration_unit``) after set-up and after every
call, so each timed call is bracketed by two measurements of the speed of
the CPU it ran on.  The calibration is not part of any call's time.

The last line of standard output is one JSON object.  Times are
``time.monotonic()`` readings, which share one clock with the parent on
Linux, so the parent measures from the moment it spawned this process.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

CALIB_A = Fraction(3**4000 + 1, 7**3000 + 3)
CALIB_B = Fraction(5**3500 + 11, 2**9000 - 1)
CALIB_TABLE = {i: i * i for i in range(97)}


def calibration_unit():
    """Work of the program's kind: big Fraction arithmetic and comparisons,
    then small-int dict lookups.  About 20 ms on a quiet host."""
    a, b, s = CALIB_A, CALIB_B, 0
    for i in range(6):
        c = a * b + a - b / (i + 1)
        s += c < a
        a, b = b + Fraction(1, i + 2), a
    for i in range(8000):
        s += CALIB_TABLE.get(i % 113, 0)
    return s


def calibrate(units):
    """Mean seconds per calibration unit over `units` units."""
    t0 = time.perf_counter()
    for _ in range(units):
        calibration_unit()
    return (time.perf_counter() - t0) / units


def _call_main(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--mode", choices=("setup", "cold", "trace"), required=True)
    parser.add_argument("--fixtures", action="store_true")
    parser.add_argument("--warm", type=int, default=0)
    parser.add_argument("--warm-out-dir", default=None)
    parser.add_argument("--calib", type=int, default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import eigenprod
    import eigenprod.cli as cli

    if not os.path.abspath(eigenprod.__file__).startswith(src + os.sep):
        print(f"eigenprod imported from {eigenprod.__file__}, not {src}", file=sys.stderr)
        return 3
    result = {}
    if args.fixtures:
        from eigenprod.fixtures import Fixtures

        result["facts"] = len(Fixtures.load().keys())
    result["t_ready"] = time.monotonic()
    cpu_ready = time.process_time()
    # seconds per calibration unit: after set-up, then after every call
    calib = result["calib"] = []
    if args.calib:
        calib.append(calibrate(args.calib))
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
        tracer.install()

    t0, cpu0 = time.monotonic(), time.process_time()
    rc, out, err = _call_main(cli, args.argv)
    result["t_cold"] = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        rc=rc,
        stdout=out,
        stderr=err,
        cold_s=result["t_cold"] - t0,
        cpu_s=cpu_ready + time.process_time() - cpu0,
        maxrss_kb=usage.ru_maxrss,
    )
    if args.calib:
        calib.append(calibrate(args.calib))
    if args.warm:
        argv = list(args.argv)
        if args.warm_out_dir is not None:
            argv[argv.index("--out-dir") + 1] = args.warm_out_dir
        result["warm"] = []
        for _ in range(args.warm):
            t0 = time.monotonic()
            rc, out, err = _call_main(cli, argv)
            result["warm"].append(
                {"s": time.monotonic() - t0, "rc": rc, "stdout": out, "stderr": err}
            )
            if args.calib:
                calib.append(calibrate(args.calib))
    if tracer is not None:
        result.update(
            stats=tracer.summary(),
            caches=tracer.cache_deltas(),
            coefficient_distinct=len(tracer.coefficient_args),
            max_endpoint_bits=tracer.max_endpoint_bits,
            interval_checks=tracer.interval_checks,
            spans=len(tracer.spans),
        )
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
