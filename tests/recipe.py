"""The toy-world recipe: 18 CLI output files and the sampling counts, pinned by sha256.

    python tests/recipe.py --check     # compare with tests/recipe_manifest.json
    python tests/recipe.py --record    # write the manifest from this checkout

Every step runs in this process through ``poseprior.cli.main``, on the
package in this checkout's ``src/``: ``synth``, a 2000-step toy
``train`` (hidden 64, T = 100), three ``estimate`` runs at M = 50
(default, ``--grad-space xt``, ``--renoise alg1`` with an edited
covariance), ``complete``, ``sample``, both ``sweep`` kinds at M = 20,
``evaluate``, and ``fit-heatmap`` on two Gaussian heatmaps written
with ``dataio.save_heatmap``. The stderr ``diagnostics:`` line of each
sampling step (``estimate``, ``complete``, ``sweep``) goes, after the
step and its output file, into one more pinned file, ``diagnostics.txt``,
so the manifest pins the trust region's and the guards' counts as well
as the bytes. It takes about 15 s on one core, and prints one
``step <command> <seconds> s`` line per step as it goes.

The manifest records the numpy and BLAS build it was made on, with the
BLAS kernel that ran, and ``--check`` prints every field of this build
that differs from it:
float bits may move with the BLAS build, so a hash mismatch on another
build is a finding to report, not a failure to hide. BLAS runs on one
thread unless OPENBLAS_NUM_THREADS says otherwise. The exit code is 0
when every file matches, 1 otherwise. The suite runs ``--check`` in a
child process (tests/test_recipe.py), so a change that moves an output
byte fails the tests; pytest does not collect this file itself.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from poseprior import cli, dataio  # noqa: E402
from poseprior.observation import Heatmap  # noqa: E402

MANIFEST = Path(__file__).with_name("recipe_manifest.json")

_ESTIMATE = ["--model", "model.ckpt", "--obs", "obs.jsonl", "--seed", "0"]
STEPS = [
    ["synth", "--out-train", "train.jsonl", "--out-obs", "obs.jsonl", "--out-gt", "gt.jsonl",
     "--n-train", "2000", "--n-eval", "8", "--seed", "0"],
    ["train", "--poses", "train.jsonl", "--out", "model.ckpt", "--steps", "2000",
     "--batch", "128", "--lr", "1e-3", "--hidden", "64", "--T", "100", "--seed", "0"],
    ["estimate", *_ESTIMATE, "-M", "50", "--out", "est.jsonl"],
    ["estimate", *_ESTIMATE, "-M", "50", "--grad-space", "xt", "--out", "xt.jsonl"],
    ["estimate", *_ESTIMATE, "-M", "50", "--renoise", "alg1", "--cov-rotate", "0.7",
     "--cov-scale", "3", "--out", "alg1.jsonl"],
    ["complete", *_ESTIMATE, "-M", "50", "--mask", "l_wrist,3", "--out", "complete.jsonl"],
    ["sample", "--model", "model.ckpt", "-n", "30", "--seed", "0", "--out", "sample.jsonl"],
    ["sweep", *_ESTIMATE, "-M", "20", "--sweep", "cov-scale", "--values", "0.5,1,2",
     "--out", "cov.csv"],
    ["sweep", *_ESTIMATE, "-M", "20", "--sweep", "gamma", "--values", "0,1e-4,2e-4",
     "--out", "gamma.csv"],
    ["evaluate", "--hyp", "est.jsonl", "--gt", "gt.jsonl", "--out", "eval.csv"],
    ["fit-heatmap", "hm0.hmp", "hm1.hmp", "--out", "heatmap.jsonl"],
]
# fit-heatmap's inputs: file, center (px), covariance [a, b, c] (px^2), origin, stride
HEATMAPS = [("hm0.hmp", (13.3, 17.8), (6.0, 1.5, 4.0), (0.0, 0.0), 1.0),
            ("hm1.hmp", (141.0, 67.5), (20.0, -6.0, 30.0), (100.0, 40.0), 2.0)]
FILES = ["train.jsonl", "obs.jsonl", "gt.jsonl", "model.ckpt", "model.ckpt.loss.csv",
         "est.jsonl", "est.jsonl.metrics.csv", "xt.jsonl", "xt.jsonl.metrics.csv",
         "alg1.jsonl", "alg1.jsonl.metrics.csv", "complete.jsonl",
         "complete.jsonl.metrics.csv", "sample.jsonl", "cov.csv", "gamma.csv", "eval.csv",
         "heatmap.jsonl", "diagnostics.txt"]


def write_heatmaps(workdir: Path):
    """Write each of HEATMAPS as a 32 x 32 map of its Gaussian's unnormalized density."""
    rows, cols = np.mgrid[0:32, 0:32]
    for name, (cx, cy), (a, b, c), origin, stride in HEATMAPS:
        dx, dy = origin[0] + stride * cols - cx, origin[1] + stride * rows - cy
        quad = (c * dx * dx - 2.0 * b * dx * dy + a * dy * dy) / (a * c - b * b)
        dataio.save_heatmap(Heatmap(32, 32, np.exp(-0.5 * quad), np.array(origin), stride),
                            workdir / name)


def blas_kernel() -> str:
    """The kernel family numpy's bundled OpenBLAS runs, or "unknown" where it cannot say.

    A DYNAMIC_ARCH build picks it when it loads, from the CPU or from
    OPENBLAS_CORETYPE; the build's base target in ``blas_config`` does
    not name it.
    """
    for lib in sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def build_info() -> dict:
    """The numpy and BLAS build, its kernel and the BLAS thread count, the bits depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "machine": platform.machine(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_kernel": blas_kernel(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run(workdir: Path) -> dict:
    """Run and time every step in ``workdir``; the sha256 of each output file by name."""
    write_heatmaps(workdir)
    diagnostics = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in STEPS:
            log = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stderr(log):
                code = cli.main(argv)
            print(f"step {argv[0]} {time.perf_counter() - t0:.3f} s", flush=True)
            if code != 0:
                raise SystemExit(f"poseprior {' '.join(argv)} exited {code}:\n{log.getvalue()}")
            diagnostics += [f"{argv[0]} {argv[argv.index('--out') + 1]} {line}\n"
                            for line in log.getvalue().splitlines()
                            if line.startswith("diagnostics: ")]
    finally:
        os.chdir(cwd)
    (workdir / "diagnostics.txt").write_text("".join(diagnostics))
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in FILES}


def check(hashes: dict, build: dict) -> int:
    manifest = json.loads(MANIFEST.read_text())
    for key in sorted(set(build) | set(manifest["build"])):
        if build.get(key) != manifest["build"].get(key):
            print(f"build differs: {key} is {build.get(key)!r}, "
                  f"the manifest's is {manifest['build'].get(key)!r}")
    moved = 0
    for name in FILES:
        want = manifest["sha256"].get(name)
        same = hashes[name] == want
        moved += not same
        print(f"{'same ' if same else 'MOVED'} {name:28} {hashes[name][:16]}"
              + ("" if same else f"  (manifest {str(want)[:16]})"))
    print(f"{len(FILES) - moved} of {len(FILES)} files match the manifest")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the manifest")
    mode.add_argument("--record", action="store_true", help="write the manifest")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        hashes = run(Path(workdir))
    build = build_info()
    if args.check:
        return check(hashes, build)
    MANIFEST.write_text(json.dumps({"build": build, "sha256": hashes}, indent=1) + "\n")
    print(f"wrote {MANIFEST} ({len(hashes)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
