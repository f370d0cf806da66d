"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE Cnn ... PASS/FAIL`` line (run pytest
with ``-s`` to see them inline). The toy world is the session fixture
from conftest: 17-joint synthetic skeleton, 2000 training poses, hidden
width 64, 100 diffusion steps, 2000 training steps, single CPU core.
"""

import subprocess
import sys
import time

import numpy as np

from poseprior import denoiser, metrics, sampler
from poseprior.geometry import ABSOLUTE_CAMERA, Camera, Pose, project
from poseprior.numeric import RngStream, SymMat2, spd_inverse_2x2
from poseprior.observation import (
    Heatmap,
    KeypointObservation,
    fit_gaussian_heatmap,
    log_likelihood,
    log_likelihood_grad,
)
from poseprior.schedule import cosine_schedule, estimate_x0, forward_sample, renoise


def report(name, ok, detail):
    print(f"ACCEPTANCE {name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def masked_mean_reprojection(hyp, rec, fallback_root):
    """Mean pixel residual over (hypothesis, joint) pairs in front of the camera."""
    total, count = 0.0, 0
    for pose, root in zip(hyp.poses, hyp.roots):
        joints = pose.joints + (root if np.any(root) else fallback_root)
        ok = rec.keypoints.valid & (joints[:, 2] > 0.0)
        if not np.any(ok):
            continue
        residual = np.linalg.norm(project(joints[ok], rec.camera)
                                  - rec.keypoints.means[ok], axis=1)
        total += residual.sum()
        count += residual.size
    return total / count


def test_c01_gradient_suite():
    """Denoiser and observation gradients vs central finite differences."""
    started = time.time()
    h = 1e-4
    probes = 0

    for joints, hidden, batch, seed in ((2, 8, 4, 41), (3, 12, 3, 42)):
        sched = cosine_schedule(50, 0.008)
        model = denoiser.DenoiserModel.initialize(joints, hidden, sched, RngStream(seed, 0))
        dim = 3 * joints
        rng = RngStream(seed, 1)
        x0 = RngStream(seed, 2).standard_normal((batch, dim))
        t = rng.integers(1, 51, batch)
        eps = rng.standard_normal((batch, dim))
        ab = sched.alphabar[t]
        x_t = np.sqrt(ab)[:, None] * x0 + np.sqrt(1.0 - ab)[:, None] * eps

        def loss_of():
            out, _ = denoiser._forward_core(model.params, model.bn_stats, x_t, t, train=True)
            d = out - eps
            return float(np.mean(np.sum(d * d, axis=1)))

        out, cache = denoiser._forward_core(model.params, model.bn_stats, x_t, t, train=True)
        grads = denoiser._backward_core(model.params, cache, (2.0 / batch) * (out - eps))

        def central_fd(p, idx, step):
            orig = p[idx]
            p[idx] = orig + step
            up = loss_of()
            p[idx] = orig - step
            dn = loss_of()
            p[idx] = orig
            return (up - dn) / (2 * step)

        for key in denoiser.PARAM_KEYS:
            p = model.params[key]
            for flat in range(p.size):
                idx = np.unravel_index(flat, p.shape)
                fd = central_fd(p, idx, h)
                if abs(grads[key][idx] - fd) > max(1e-4 * abs(fd), 1e-7):
                    # the loss is piecewise smooth (ReLU); a probe that
                    # straddles a kink makes the difference quotient
                    # itself inaccurate, so adjudicate at a smaller step
                    fd = central_fd(p, idx, h / 10.0)
                assert abs(grads[key][idx] - fd) <= max(1e-4 * abs(fd), 1e-7), \
                    f"denoiser gradient mismatch at {key}{idx}"
                probes += 1

    cam = Camera(1100.0, 1100.0, 500.0, 500.0)
    rng = RngStream(43, 0)
    obs_probes = 0
    while obs_probes < 1000:
        joints = 6
        pts = np.column_stack([
            rng.uniform(-800, 800, joints),
            rng.uniform(-800, 800, joints),
            rng.uniform(2500, 6000, joints),
        ])
        pose = Pose(pts, ABSOLUTE_CAMERA)
        means = project(pts, cam) + 20.0 * rng.standard_normal((joints, 2))
        covs = np.zeros((joints, 3))
        for j in range(joints):
            a = rng.uniform(2.0, 30.0)
            c = rng.uniform(2.0, 30.0)
            covs[j] = (a, rng.uniform(-0.5, 0.5) * np.sqrt(a * c), c)
        obs = KeypointObservation(means, covs, rng.uniform(size=joints) < 0.8)
        grad = log_likelihood_grad(pose, obs, cam)
        for j in range(joints):
            for k in range(3):
                d = np.zeros((joints, 3))
                d[j, k] = h * 10  # mm-scale state, px-scale response
                fd = (log_likelihood(Pose(pts + d, ABSOLUTE_CAMERA), obs, cam)
                      - log_likelihood(Pose(pts - d, ABSOLUTE_CAMERA), obs, cam)) / (2 * h * 10)
                assert abs(grad[j, k] - fd) <= max(1e-4 * abs(fd), 1e-7), \
                    "observation gradient mismatch"
                obs_probes += 1

    elapsed = time.time() - started
    report("C01 gradient-suite", probes >= 1000 and obs_probes >= 1000 and elapsed < 60.0,
           f"{probes} denoiser + {obs_probes} observation probes, all within "
           f"max(1e-4 rel, 1e-7 abs), {elapsed:.1f}s")


def test_c02_schedule_suite():
    sched = cosine_schedule(1000, 0.008)
    monotone = bool(np.all(np.diff(sched.alphabar) < 0.0))
    starts_at_one = sched.alphabar[0] == 1.0
    betas_ok = bool(np.all(sched.beta[1:] > 0.0) and np.all(sched.beta[1:] <= 0.999))

    rng = RngStream(44, 0)
    x0 = rng.standard_normal(51)
    eps = rng.standard_normal(51)
    scale = np.max(np.abs(x0))
    worst = 0.0
    for t in range(1, 1001):
        rec = estimate_x0(forward_sample(x0, t, eps, sched), eps, t, sched)
        worst = max(worst, float(np.max(np.abs(rec - x0))) / scale)

    t = 400
    draws = renoise(np.zeros(100_000), t, RngStream(44, 1), sched)
    want = 1.0 - sched.alphabar[t]
    moment_ok = abs(draws.var() - want) < 0.02 * want

    report("C02 schedule-suite",
           monotone and starts_at_one and betas_ok and worst < 1e-8 and moment_ok,
           f"monotone={monotone} ab0={starts_at_one} betas={betas_ok} "
           f"roundtrip={worst:.2e} renoise-var-err={abs(draws.var()-want)/want:.3%}")


def render_heatmap(center, cov, noise_rng=None, noise=0.0, size=64):
    xs = np.arange(size, dtype=float)
    gx, gy = np.meshgrid(xs, xs)
    d = np.stack([gx - center[0], gy - center[1]], axis=-1)
    quad = np.einsum("hwi,ij,hwj->hw", d, spd_inverse_2x2(cov).as_array(), d)
    values = np.exp(-0.5 * quad)
    if noise > 0.0:
        values = values * (1.0 + noise * noise_rng.standard_normal(values.shape))
        values = np.maximum(values, 0.0)
    return Heatmap(size, size, values)


def planted_covariance(rng):
    # eigenvalues in [1, 25] px^2 with enough eccentricity and rotation
    # that every matrix entry stays well scaled for relative comparison
    lo = rng.uniform(1.0, 8.0)
    hi = lo + rng.uniform(4.0, 25.0 - lo - 4.0) if lo < 17.0 else 25.0
    hi = min(hi, 25.0)
    theta = rng.uniform(0.25, np.pi / 2 - 0.25)
    c, s = np.cos(theta), np.sin(theta)
    r = np.array([[c, -s], [s, c]])
    return SymMat2.from_array(r @ np.diag([hi, lo]) @ r.T)


def test_c03_heatmap_fit():
    rng = RngStream(45, 0)
    worst_center, worst_cov = 0.0, 0.0
    for _ in range(100):
        center = np.array([rng.uniform(20, 44), rng.uniform(20, 44)])
        cov = planted_covariance(rng)
        c, sig = fit_gaussian_heatmap(render_heatmap(center, cov))
        worst_center = max(worst_center, float(np.linalg.norm(c - center)))
        got = np.array([sig.a, sig.b, sig.c])
        want = np.array([cov.a, cov.b, cov.c])
        worst_cov = max(worst_cov, float(np.max(np.abs(got - want) / np.abs(want))))
    clean_ok = worst_center < 0.1 and worst_cov < 0.02

    worst_center_n, worst_cov_n = 0.0, 0.0
    for _ in range(100):
        center = np.array([rng.uniform(20, 44), rng.uniform(20, 44)])
        cov = planted_covariance(rng)
        hm = render_heatmap(center, cov, noise_rng=rng, noise=0.01)
        c, sig = fit_gaussian_heatmap(hm)
        worst_center_n = max(worst_center_n, float(np.linalg.norm(c - center)))
        got = np.array([sig.a, sig.b, sig.c])
        want = np.array([cov.a, cov.b, cov.c])
        worst_cov_n = max(worst_cov_n, float(np.max(np.abs(got - want) / np.abs(want))))
    noisy_ok = worst_cov_n < 0.10

    report("C03 heatmap-fit", clean_ok and noisy_ok,
           f"clean: center<{worst_center:.3f}px cov<{worst_cov:.3%}; "
           f"1% noise: cov<{worst_cov_n:.3%}")


def test_c04_metrics_oracle():
    rng = RngStream(46, 0)

    def rand_pose(joints=8):
        arr = 100.0 * rng.standard_normal((joints, 3))
        arr -= arr[0]
        return Pose(arr, "root_relative")

    def rand_rotation():
        a = rng.standard_normal((3, 3))
        q, r = np.linalg.qr(a)
        q = q @ np.diag(np.sign(np.diag(r)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        return q

    worst = 0.0
    for _ in range(100):
        p, g = rand_pose(), rand_pose()
        pj, gj = p.joints, g.joints
        # brute-force references computed with explicit loops / numpy basics
        bf_mpjpe = np.mean([np.linalg.norm(pj[j] - gj[j]) for j in range(8)])
        worst = max(worst, abs(metrics.mpjpe(p, g) - bf_mpjpe))

        p0 = pj - pj.mean(0)
        g0 = gj - gj.mean(0)
        u, s, vt = np.linalg.svd(p0.T @ g0)
        d = np.sign(np.linalg.det(vt.T @ u.T)) or 1.0
        flip = np.diag([1.0, 1.0, d])
        rot = vt.T @ flip @ u.T
        scale = np.sum(s * np.diag(flip)) / np.sum(p0 * p0)
        aligned = scale * p0 @ rot.T + gj.mean(0)
        bf_pa = np.mean(np.linalg.norm(aligned - gj, axis=1))
        worst = max(worst, abs(metrics.pa_mpjpe(p, g) - bf_pa))

        # strict thresholds with exactly-correct joints always counting
        dist = np.linalg.norm(pj - gj, axis=1)
        worst = max(worst, abs(metrics.pck(p, g)
                               - 100.0 * np.mean((dist < 150.0) | (dist == 0.0))))
        bf_auc = np.mean([100.0 * np.mean((dist < th) | (dist == 0.0))
                          for th in np.linspace(0, 150, 31)])
        worst = max(worst, abs(metrics.auc(p, g) - bf_auc))

        hyps = [rand_pose() for _ in range(7)]
        bf_best = min(np.mean(np.linalg.norm(h.joints - gj, axis=1)) for h in hyps)
        worst = max(worst, abs(metrics.best_of_m(hyps, g) - bf_best))

        stacked = np.stack([h.joints for h in hyps])
        bf_std = np.mean([np.linalg.norm([np.std(stacked[:, j, k]) for k in range(3)])
                          for j in range(8)])
        worst = max(worst, abs(metrics.per_joint_std(hyps) - bf_std))

    residual = 0.0
    for _ in range(20):
        g = rand_pose()
        r = rand_rotation()
        s = rng.uniform(0.5, 2.0)
        t = 30.0 * rng.standard_normal(3)
        morphed = s * g.joints @ r.T + t
        pred = Pose(morphed - morphed[0], "root_relative")
        _, aligned = metrics.procrustes_align(pred, g)
        residual = max(residual, float(np.max(np.abs(aligned - g.joints))))

    report("C04 metrics-oracle", worst < 1e-9 and residual < 1e-8,
           f"brute-force max |diff|={worst:.2e}, planted-similarity residual={residual:.2e}")


def test_c05_guidance_direction(toy_world):
    gammas = (0.0, 1e-5, 1e-4, 2e-4)
    means = []
    for gamma in gammas:
        vals = []
        for idx, rec in enumerate(toy_world.records[:4]):  # 4 frames x 50 = 200 samples
            cfg = sampler.GuidanceConfig(gamma=gamma, num_hypotheses=50, seed=42,
                                         stream_offset=idx << 24)
            hyp = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                        rec.camera, rec.root, cfg)
            vals.append(masked_mean_reprojection(hyp, rec, rec.root.mean))
        means.append(float(np.mean(vals)))
    non_increasing = all(means[i + 1] <= means[i] + 1e-9 for i in range(3))
    reduction = 1.0 - means[-1] / means[0]
    report("C05 guidance-direction", non_increasing and reduction >= 0.40,
           f"reprojection px over gamma {list(gammas)}: "
           f"{[round(v, 1) for v in means]}, reduction {reduction:.0%}")


def test_c06_best_of_m_direction(toy_world):
    grid = (1, 5, 10, 50)
    per_m = {m: [] for m in grid}
    for idx, rec in enumerate(toy_world.records):
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=50, seed=42,
                                     stream_offset=idx << 24)
        hyp = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                    rec.camera, rec.root, cfg)
        errors = [metrics.mpjpe(p, rec.gt_pose) for p in hyp.poses]
        for m in grid:
            per_m[m].append(min(errors[:m]))
    means = [float(np.mean(per_m[m])) for m in grid]
    non_increasing = all(means[i + 1] <= means[i] + 1e-9 for i in range(3))
    ratio = means[-1] / means[0]
    report("C06 best-of-m-direction", non_increasing and ratio <= 0.75,
           f"best-of-M MPJPE over M {list(grid)}: {[round(v, 1) for v in means]}, "
           f"best-of-50/best-of-1 = {ratio:.2f}")


def test_c07_ablation_direction(toy_world):
    # proposed update: tempered gradient on the clean estimate; naive
    # baseline: classic classifier guidance folded into the noise
    # estimate at its untempered unit scale
    results = {}
    for space, gamma in ((sampler.GRAD_X0HAT, 2e-4), (sampler.GRAD_XT, 1.0)):
        boms = []
        for idx, rec in enumerate(toy_world.records):
            cfg = sampler.GuidanceConfig(gamma=gamma, num_hypotheses=50, seed=42,
                                         grad_space=space, stream_offset=idx << 24)
            hyp = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                        rec.camera, rec.root, cfg)
            boms.append(metrics.best_of_m(hyp, rec.gt_pose))
        results[space] = float(np.mean(boms))
    proposed = results[sampler.GRAD_X0HAT]
    naive = results[sampler.GRAD_XT]
    gap = 1.0 - proposed / naive
    report("C07 ablation-direction", proposed < naive and gap >= 0.20,
           f"clean-estimate update {proposed:.1f}mm vs noisy-iterate update "
           f"{naive:.1f}mm, {gap:.0%} lower")


def test_c08_diversity_control(toy_world):
    rec = toy_world.soft_records[0]
    cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=200, seed=42)
    rows = sampler.diversity_sweep(toy_world.model, None, rec.keypoints,
                                   rec.camera, rec.root, cfg, [0.1, 1.0, 10.0, 100.0])
    values = [v for _, v in rows]
    increasing = all(values[i] < values[i + 1] for i in range(3))
    uncond = sampler.sample_unconditional(toy_world.model, None, RngStream(42, 0), 200)
    uncond_std = metrics.per_joint_std(uncond)
    saturation = abs(values[-1] - uncond_std) / uncond_std
    report("C08 diversity-control", increasing and saturation <= 0.25,
           f"per-joint std over s {[r[0] for r in rows]}: "
           f"{[round(v, 1) for v in values]}, unconditional {uncond_std:.1f}, "
           f"s=100 within {saturation:.0%}")


def test_c09_completion_behavior(toy_world):
    rec = toy_world.records[0]
    mask = [12, 13, 15, 16]  # both elbows and wrists
    valid = rec.keypoints.valid.copy()
    valid[mask] = False
    cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=200, seed=42)
    hyp = sampler.complete_pose(toy_world.model, None,
                                rec.keypoints.with_validity(valid),
                                rec.camera, rec.root, cfg)
    spread = np.linalg.norm(
        np.stack([p.joints for p in hyp.poses]).std(axis=0), axis=1)
    unmasked = [j for j in range(1, toy_world.skel.num_joints) if j not in mask]
    factor = spread[mask].mean() / spread[unmasked].mean()

    all_masked = sampler.complete_pose(
        toy_world.model, None,
        rec.keypoints.with_validity(np.zeros(toy_world.skel.num_joints, dtype=bool)),
        rec.camera, rec.root, cfg)
    uncond = sampler.sample_unconditional(toy_world.model, None,
                                          RngStream(42, 0), 200)
    am = np.stack([p.joints for p in all_masked.poses]).reshape(200, -1)
    un = np.stack([p.joints for p in uncond.poses]).reshape(200, -1)
    scale = max(un.std(axis=0).max(), 1.0)
    moment_gap = max(
        float(np.max(np.abs(am.mean(0) - un.mean(0)))) / scale,
        float(np.max(np.abs(am.std(0) - un.std(0)))) / scale,
    )
    report("C09 completion-behavior", factor >= 1.5 and moment_gap <= 0.10,
           f"masked/unmasked spread factor {factor:.2f}; all-masked vs "
           f"unconditional moment gap {moment_gap:.1%}")


def run_cli(args, env_extra=None):
    import os
    env = dict(os.environ)
    env.update(env_extra or {})
    proc = subprocess.run([sys.executable, "-m", "poseprior.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


def test_c10_determinism(toy_world, tmp_path):
    obs = str(toy_world.paths["observations"])
    poses = str(toy_world.paths["train_poses"])

    train_flags = ["--steps", "40", "--batch", "16", "--hidden", "16", "--T", "20",
                   "--lr", "1e-3", "--seed", "9"]
    ck = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    for out in ck:
        proc = run_cli(["train", "--poses", poses, "--out", str(out), *train_flags])
        assert proc.returncode == 0, proc.stderr
    train_identical = ck[0].read_bytes() == ck[1].read_bytes()
    logs_identical = ((tmp_path / "a.ckpt.loss.csv").read_bytes()
                      == (tmp_path / "b.ckpt.loss.csv").read_bytes())

    model_path = str(toy_world.paths["checkpoint"])
    outs = [tmp_path / f"hyp{i}.jsonl" for i in range(3)]
    # the reruns at one BLAS thread, then the thread leg at two
    envs = [{"OPENBLAS_NUM_THREADS": threads} for threads in ("1", "1", "2")]
    for out, env in zip(outs, envs):
        proc = run_cli(["estimate", "--model", model_path, "--obs", obs,
                        "--out", str(out), "-M", "6", "--seed", "4"], env_extra=env)
        assert proc.returncode == 0, proc.stderr
    estimate_identical = outs[0].read_bytes() == outs[1].read_bytes()
    thread_invariant = outs[0].read_bytes() == outs[2].read_bytes()

    ok = train_identical and logs_identical and estimate_identical and thread_invariant
    report("C10 determinism", ok,
           f"train bytes identical={train_identical}, loss logs identical={logs_identical}, "
           f"estimate reruns identical={estimate_identical}, "
           f"thread-count invariant={thread_invariant}")
