"""Benchmark of the hampack CLI.

    python3 perfbench/run.py --workload <regeven|factor|packing|expansion>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  One process builds the workload's
seeded inputs, runs ``hampack.cli.main(argv)`` on them in-process one
command at a time, in whole rounds, for at least ``--seconds`` seconds,
then checks every output with ``checks.py``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` a traced pass and an untraced pass of the same rounds
give the per-layer metrics of ``tracer.py`` and the tracing overhead.

The machine's speed changes from second to second, so every set-up step
and every command of an untraced pass is followed by a calibration loop,
and its wall time is scaled to the speed at which that loop takes
CALIBRATION_REF_S (README, "Machine speed").
Inputs, outputs, spans and results go under ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import operator
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread unless the caller says otherwise: on a small shared
# machine a second OpenBLAS thread made the numpy-backed commands both
# slower and less repeatable.  Set before hampack imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SETUP_REPEATS = 3
MIN_COMMANDS = 100  # so that at least 10 commands lie beyond p90
# The calibration loop's usual time on the machine of README's figures
# ("Machine speed").  Timing metrics are given at that speed.
CALIBRATION_REF_S = 0.0004
CALIBRATION_SAMPLES = 3
_clock = time.perf_counter
_CAL_DATA = list(range(2000))


def calibrate() -> float:
    """The median time of a fixed pure-Python loop that shares no code
    with hampack: how fast the shared machine runs right now."""
    times = []
    for _ in range(CALIBRATION_SAMPLES):
        t = _clock()
        acc: dict[int, int] = {}
        for x in _CAL_DATA:
            acc[x & 255] = acc.get(x & 255, 0) + x
        sorted(_CAL_DATA, key=operator.neg)
        times.append(_clock() - t)
    return statistics.median(times)


def at_reference_speed(seconds: float, calibration: float) -> float:
    """A wall time scaled to the speed at which the calibration loop
    takes CALIBRATION_REF_S."""
    return seconds * CALIBRATION_REF_S / calibration


HAMPACK_MODULES = ("cli", "edgelist", "expanders", "extremality", "factors", "hamilton", "matching")
SRC = ROOT / "src"


def import_hampack():
    """Import hampack from this checkout's src/ and nowhere else; return
    the modules and the import's duration."""
    if not (SRC / "hampack" / "cli.py").is_file():
        sys.exit(f"perfbench: no hampack sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    t = _clock()
    modules = {name: importlib.import_module(f"hampack.{name}") for name in HAMPACK_MODULES}
    took = _clock() - t
    cli = modules["cli"]
    if Path(cli.__file__).resolve().parent != (SRC / "hampack").resolve():
        sys.exit(f"perfbench: imported hampack from {cli.__file__}, not from {SRC}")
    return cli, modules, took


def fresh_import_seconds() -> float:
    """The same import timed inside a new interpreter, which waits for it,
    at reference speed."""
    code = ("import importlib, sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            f"[importlib.import_module('hampack.' + name) for name in {HAMPACK_MODULES!r}]; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                          check=True, timeout=120)
    return at_reference_speed(float(done.stdout), calibrate())


def blas_threads() -> str:
    """OpenBLAS's own thread count, read through ctypes from the library
    numpy loaded."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return str(getattr(handle, sym)())
    return "unknown"


def invoke(main, argv: list[str]) -> int:
    """One CLI command; a crash or an argparse exit counts as a failure."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) and exc.code else 2
    except Exception:  # a crash of the program under test is a failed command
        traceback.print_exc()
        return -1


def run_pass(main, cmds, out_dir: Path, tag: str, seconds=None, rounds=None, tracer=None, calib=None):
    """Whole rounds of the workload: until ``seconds`` have passed and
    at least MIN_COMMANDS commands have run, or exactly ``rounds`` times.
    Returns per-command (round, index, rc, seconds), the round count, the
    pass's wall time and what the commands wrote to stderr.  If ``calib``
    is a list, a calibration taken right after each command is appended
    to it; the pass's wall time leaves the calibrations out."""
    records = []
    done = 0
    cal_total = 0.0
    errors = io.StringIO()
    with contextlib.redirect_stderr(errors):
        start = _clock()
        while True:
            for i, cmd in enumerate(cmds):
                stem = str(out_dir / f"{tag}{done}_{i}")
                argv = [stem + ".out" if a == "{out}" else stem + ".emit" if a == "{emit}" else a
                        for a in cmd.argv]
                t = _clock()
                if tracer is None:
                    rc = invoke(main, argv)
                else:
                    rc = tracer.command(len(records), invoke, main, argv)
                records.append((done, i, rc, _clock() - t))
                if calib is not None:
                    calib.append(calibrate())
                    cal_total += calib[-1]
            done += 1
            if rounds is not None and done >= rounds:
                break
            if seconds is not None and _clock() - start >= seconds and len(records) >= MIN_COMMANDS:
                break
        wall = _clock() - start - cal_total
    return records, done, wall, errors.getvalue()


def check_pass(checks, cmds, out_dir: Path, tag: str, records) -> tuple[int, list[str]]:
    """Check every output of a pass; an output byte-identical to an
    already checked output of the same command shares its verdict."""
    verdicts: dict[tuple[int, str, str | None], str | None] = {}
    passed, problems = 0, []
    for rnd, i, rc, _ in records:
        if rc != 0:
            continue
        cmd = cmds[i]
        stem = out_dir / f"{tag}{rnd}_{i}"
        out = stem.with_suffix(".out").read_text()
        emit_path = stem.with_suffix(".emit")
        emit = emit_path.read_text() if emit_path.exists() else None
        key = (i, out, emit)
        if key not in verdicts:
            verdicts[key] = checks.check_output(cmd.kind, cmd.meta, cmd.host, out, emit)
        if verdicts[key] is None:
            passed += 1
        else:
            problems.append(f"{' '.join(cmd.argv)}: {verdicts[key]}")
    return passed, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["regeven", "factor", "packing", "expansion"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # Every set-up step is scaled by a calibration taken right after it.
    cli, modules, first_import = import_hampack()
    first_import = at_reference_speed(first_import, calibrate())
    t_import = statistics.median([first_import] + [fresh_import_seconds() for _ in range(SETUP_REPEATS - 1)])
    import checks
    import corpus

    wdir = WORK / args.workload
    inputs, out_dir = wdir / "inputs", wdir / "out"
    gen_times = []
    for _ in range(SETUP_REPEATS):
        t = _clock()
        shutil.rmtree(wdir, ignore_errors=True)
        cmds = corpus.build(args.workload, args.seed, inputs)
        gen_times.append(at_reference_speed(_clock() - t, calibrate()))
    out_dir.mkdir(parents=True)

    warm_cal: list[float] = []
    _, _, t_warm, _ = run_pass(cli.main, cmds[:1], out_dir, "warm", rounds=1, calib=warm_cal)
    t_warm = at_reference_speed(t_warm, warm_cal[0])
    setup_s = t_import + statistics.median(gen_times) + t_warm

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(modules)
        tracer.install()
        try:
            traced, rounds, traced_wall, err = run_pass(cli.main, cmds, out_dir, "t", args.seconds, tracer=tracer)
        finally:
            tracer.remove()
        plain, _, plain_wall, err2 = run_pass(cli.main, cmds, out_dir, "p", rounds=rounds)
        passes = [("t", traced), ("p", plain)]
        err += err2
    else:
        calib: list[float] = []
        plain, rounds, plain_wall, err = run_pass(cli.main, cmds, out_dir, "p", args.seconds, calib=calib)
        passes = [("p", plain)]

    corpus.fill_brute_force(cmds)
    attempted = failed = passed_plain = 0
    problems = checks.self_test()
    for tag, records in passes:
        passed, bad = check_pass(checks, cmds, out_dir, tag, records)
        problems += bad
        attempted += len(records)
        failed += sum(1 for r in records if r[2] != 0)
        if tag == "p":
            passed_plain = passed
    fails = sorted({" ".join(cmds[i].argv) for _, i, rc, _ in plain if rc != 0})
    for line in problems[:20] + [f"failed: {f}" for f in fails]:
        print(f"perfbench: {line}", file=sys.stderr)
    if err and not fails:
        print(err[-2000:], file=sys.stderr)

    if args.trace:
        metrics = tracer.layer_metrics(rounds, traced_wall - plain_wall)
        (WORK / "spans").mkdir(exist_ok=True)
        tracer.write_spans(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl", tracer.spans[0][1])
    else:
        # Each command's time is scaled by the calibration taken right
        # after it, so that the machine's changing speed cancels out.
        times = [at_reference_speed(r[3], cal) * 1000 for r, cal in zip(plain, calib)]
        raw = [r[3] * 1000 for r in plain]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "tasks_per_s": {"value": passed_plain / (sum(times) / 1000), "unit": "1/s"},
            "task_p50_ms": {"value": statistics.median(times), "unit": "ms"},
            "task_p90_ms": {"value": statistics.quantiles(times, n=10)[8], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        speed = {"calibration_median_s": statistics.median(calib),
                 "unscaled": {"tasks_per_s": passed_plain / plain_wall,
                              "task_p50_ms": statistics.median(raw),
                              "task_p90_ms": statistics.quantiles(raw, n=10)[8]}}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": rounds,
            "commands_per_round": len(cmds), "blas_threads": blas_threads(),
            "setup_parts_s": {"import_median": t_import, "generate_median": statistics.median(gen_times),
                              "warm_up": t_warm}}
    if not args.trace:
        info["speed"] = speed
    (WORK / "results").mkdir(exist_ok=True)
    with open(WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(dict(info, **result), fh, indent=1, sort_keys=True)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
