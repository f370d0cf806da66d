"""poseprior benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload estimate-toy --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``. The run sets up its inputs from ``--seed`` several times (each
in a child process, timed and calibrated as ``setup_s``), then measures
the workload in this process for about ``--seconds``. With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it runs one iteration
untraced and one traced, and reports the per-layer metrics
(``spec.PER_LAYER``) from spans recorded around the calls between the
package's modules. The last line of standard output is the result as
JSON; the environment, a readable summary and the run record (and the
spans of a traced run) go before it and to ``.perfbench/`` in the
checkout.

Exit codes: 0 all outputs passed their checks, 1 a check failed or
setup failed, 2 the package is not in the checkout.
"""

import os
import sys

# Pin BLAS threads before numpy is imported, here and in setup children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("POSEPRIOR_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# op_ms_norm is the wall time per operation rescaled to a machine on which
# each calibration loop takes this long (about its time on a quiet 2-vCPU
# Xeon; the constant only sets the scale and never changes)
CALIB_NOMINAL_S = 0.04
# the calibration after a call runs for this share of the call's time
CALIB_SHARE = 0.1
# a setup child calibrates for this long before and after setting up
SETUP_CALIB_S = 0.2
_clock = time.perf_counter

UNITS = {m["name"]: m["unit"] for m in spec.END_TO_END}
UNITS.update({name: unit for name, unit, _, _ in spec.PER_LAYER})


def import_package():
    """Import poseprior from this checkout's src/, or exit 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import poseprior
        import poseprior.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import poseprior from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(poseprior.__file__).startswith(src + os.sep):
        print(f"error: poseprior imported from {poseprior.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return poseprior


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "poseprior_threads": os.environ.get("POSEPRIOR_THREADS"),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_setups(args, work, repeats):
    """Set up ``repeats`` times in child processes.

    Returns the inputs directory, the seconds of each setup, and the
    calibration (seconds per loop) measured around each.
    """
    times, calib_s, digests = [], [], []
    for k in range(repeats):
        out = os.path.join(work, f"setup{k}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--setup-into", out]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"setup exited {proc.returncode}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(record["setup_s"])
        calib_s.append(record["calib_s"])
        digests.append(workloads.dir_digest(out))
        if k > 0:
            shutil.rmtree(out)
    if len(set(digests)) != 1:
        raise RuntimeError("the same seed set up different inputs")
    return os.path.join(work, "setup0"), times, calib_s


class Calibration:
    """A fixed loop that measures how fast the machine runs this process right now.

    On a shared host the same code runs up to twice as slowly when the
    neighbours are busy, in stretches of seconds to minutes, and CPU time
    slows with wall time. How much slower depends on the kind of work, so
    each workload is calibrated by loops of the kinds that bound it
    (``workloads.CALIBRATION``): small numpy calls in a Python loop
    (``interpreter``), 1-row products with 8 MB of weights (``bandwidth``)
    or 256 x 256 matrix products (``compute``). The loops run between the
    measured calls, and dividing a call by them takes the machine's speed
    out of the comparison between runs. They do not touch poseprior, so a
    change to the package cannot move them. Each loop takes about 40 ms
    on a quiet 2-vCPU Xeon.
    """

    def __init__(self, kinds):
        rng = np.random.default_rng(0)
        a, x = rng.standard_normal((64, 64)) / 8.0, rng.standard_normal(64)
        c = rng.standard_normal((256, 256)) / 16.0

        def interpreter():
            y = x
            for _ in range(14000):
                y = np.tanh(a @ y) + x

        def compute():
            for _ in range(60):
                c @ c

        def bandwidth():
            for _ in range(95):
                w @ v

        if "bandwidth" in kinds:
            w, v = rng.standard_normal((1024, 1024)), rng.standard_normal(1024)
        loops = {"interpreter": interpreter, "compute": compute, "bandwidth": bandwidth}
        self.loops = [loops[kind] for kind in kinds]

    def run(self) -> float:
        """Seconds per loop for one pass of the loops."""
        t0 = _clock()
        for loop in self.loops:
            loop()
        return (_clock() - t0) / len(self.loops)

    def measure(self, budget_s: float) -> float:
        """Mean seconds per loop, over as many passes as fit in ``budget_s`` (at least one)."""
        times, end = [], _clock() + budget_s
        while not times or _clock() < end:
            times.append(self.run())
        return sum(times) / len(times)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, ops, problems):
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(problems)

    def fail_all(self, problem):
        """A fault that spoils every operation of the run, such as a bad checkpoint."""
        self.failed = self.attempted
        if problem not in self.problems:
            self.problems.append(problem)


def measure(pp, wl, seconds, tally, work):
    """Measured calls for about ``seconds``, then one checked checkpoint round trip.

    The first call warms caches and lazy set-up; it is checked but not
    timed. After each call the calibration runs for ``CALIB_SHARE`` of
    the call's time, and each call is divided by the mean of the
    calibrations just before and just after it.
    """
    calib = Calibration(workloads.CALIBRATION[wl.name])
    start = _clock()
    calib.run()
    wall, problems = wl.call()
    tally.add(wl.ops_per_call, problems)
    per_op, calib_s = [], [calib.measure(CALIB_SHARE * wall)]
    while True:
        wall, problems = wl.call()
        calib_s.append(calib.measure(CALIB_SHARE * wall))
        tally.add(wl.ops_per_call, problems)
        per_op.append(wall / wl.ops_per_call)
        if len(per_op) >= wl.min_calls and _clock() - start + wall > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    final_checks(wl, tally)
    trip = roundtrip(pp, wl.roundtrip_model(), os.path.join(work, "roundtrip.ckpt"), tally)
    ratios = [op / (0.5 * (calib_s[i] + calib_s[i + 1])) for i, op in enumerate(per_op)]
    return ({"op_ms_norm": 1000.0 * CALIB_NOMINAL_S * statistics.median(ratios),
             "peak_rss_mb": peak_mb},
            {"per_op_s": per_op, "calib_s": calib_s, "roundtrip_s": trip})


def final_checks(wl, tally):
    """Checks over the whole run, such as a quality gate on the mean over frames."""
    for problem in wl.final_checks():
        tally.fail_all(problem)


def roundtrip(pp, model, path, tally):
    seconds, exact = workloads.roundtrip(pp, model, path)
    if not exact:
        tally.fail_all("checkpoint round trip is not bit-exact")
    return seconds


def traced(pp, wl, tally, work):
    """A traced iteration between two untraced ones.

    An iteration is one call on each input (each held-out frame) and one
    checkpoint round trip. The overhead is taken against the faster
    untraced iteration, so the cold first call does not hide it.
    """
    model, path = wl.roundtrip_model(), os.path.join(work, "roundtrip.ckpt")

    def iteration(tracer):
        t0 = _clock()
        for _ in range(wl.cycle):
            tally.add(wl.ops_per_call, wl.call(tracer)[1])
        roundtrip(pp, model, path, tally)
        return _clock() - t0

    untraced_s = [iteration(None)]
    tracer = tracing.Tracer()
    before = tracing.module_state(pp)
    tracer.install(pp)
    try:
        traced_s = iteration(tracer)
    finally:
        tracer.uninstall()
    if tracing.module_state(pp) != before:
        tally.fail_all("tracing left the poseprior modules changed")
    untraced_s.append(iteration(None))
    final_checks(wl, tally)
    metrics = tracing.layer_metrics(tracer, traced_s)
    metrics["trace.overhead_s"] = traced_s - min(untraced_s)
    metrics["dataio.checkpoint_bytes"] = float(os.path.getsize(path))
    metrics["dataio.hyp_bytes"] = float(wl.output_bytes())
    for key in ("mpjpe_best_mm", "reprojection_px", "final_loss"):
        metrics[f"output.{key}"] = float(wl.quality.get(key, 0.0))
    tracer.write_spans(os.path.join(work, "spans.jsonl"))
    return metrics, {"untraced_s": untraced_s, "traced_s": traced_s}


def summary_lines(workload, metrics, detail, tally):
    """Readable lines: every reported metric; untraced, also raw wall times and outputs."""
    lines = [f"{name:<34} {value:>16.6g} {UNITS[name]}" for name, value in metrics.items()]
    if "per_op_s" in detail:
        op_s = statistics.median(detail["per_op_s"])
        name, value, unit = (("train_step_ms", 1000.0 * op_s, "ms") if workload.startswith("train")
                             else ("estimate_frame_s", op_s, "s"))
        lines.append(f"{name:<34} {value:>16.6g} {unit} (wall, median of "
                     f"{len(detail['per_op_s'])} calls)")
        lines.append(f"{'setup_wall_s':<34} {statistics.median(detail['setup_s']):>16.6g} s "
                     f"(median of {len(detail['setup_s'])})")
        calib_ms = 1000.0 * statistics.median(detail["calib_s"])
        lines.append(f"{'calibration_ms':<34} {calib_ms:>16.6g} ms "
                     f"(nominal {1000.0 * CALIB_NOMINAL_S:g})")
        lines.append(f"{'checkpoint_roundtrip_s':<34} {detail['roundtrip_s']:>16.6g} s")
        units = {"mpjpe_best_mm": "mm", "reprojection_px": "px", "final_loss": "loss"}
        for name, value in detail["quality"].items():
            lines.append(f"{name:<34} {value:>16.6g} {units[name]}")
    lines.append(f"{'failed_frac':<34} {tally.failed / max(tally.attempted, 1):>16.6g} "
                 f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        lines.append(f"problem: {problem}")
    return lines


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=list(workloads.SIZES), default="full",
                   help="'tiny' shrinks every workload for the smoke test")
    p.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pp = import_package()
    if args.setup_into:
        calib = Calibration(workloads.CALIBRATION[args.workload])
        calib.run()
        before = calib.measure(SETUP_CALIB_S)
        seconds = workloads.setup(pp, args.workload, args.size, args.seed, args.setup_into)
        after = calib.measure(SETUP_CALIB_S)
        print(json.dumps({"setup_s": seconds, "calib_s": 0.5 * (before + after)}))
        return 0

    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.size}-s{args.seed}"
                                             f"-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    tally = Tally()
    try:
        try:
            inputs, setup_times, setup_calib_s = run_setups(
                args, work, 1 if args.trace else SETUP_REPEATS)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: setup failed: {exc}", file=sys.stderr)
            return 1
        wl = workloads.make(pp, args.workload, args.size, args.seed, inputs, work)
        if args.trace:
            metrics, detail = traced(pp, wl, tally, work)
        else:
            metrics, detail = measure(pp, wl, args.seconds, tally, work)
            metrics["setup_s"] = CALIB_NOMINAL_S * statistics.median(
                t / c for t, c in zip(setup_times, setup_calib_s))
    finally:
        # keep the record, drop the inputs and outputs (paper checkpoints are 100 MB)
        for name in os.listdir(work):
            if name not in ("result.json", "spans.jsonl"):
                target = os.path.join(work, name)
                shutil.rmtree(target) if os.path.isdir(target) else os.remove(target)
    detail["setup_s"], detail["setup_calib_s"] = setup_times, setup_calib_s
    detail["quality"] = wl.quality

    result = {"correct": not tally.problems, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"env": env, "detail": detail, "problems": tally.problems, **result}, fh,
                  indent=1)
    for line in summary_lines(args.workload, metrics, detail, tally):
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
