"""End-to-end acceptance gate: ten numbered checks, one verdict line each.

Run `pytest tests/test_acceptance.py -s` to see every verdict line as it is
produced; without -s pytest still shows the line for any failing check.
Each check pins its own tolerances and a wall-clock budget.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import (ConstantDenoiser, checked_probes, gradient_check, ilb_residual,
                      lbo_residual, make_gauss_mixture)

from invlab.autoencoder import fit_linear_autoencoder
from invlab.benchmark import (BenchmarkBackends, analytic_denoiser, config_from_json_dict,
                              run_benchmark)
from invlab.data import make_shapes
from invlab.denoiser import (
    MlpTrainConfig,
    train_mlp_denoiser,
)
from invlab.dynamics import (
    ddim_invert_step,
    ddim_invert_trajectory,
    generate_step,
    generate_trajectory,
)
from invlab.ilb import IlbConfig, ilb_loss_and_grad, ilb_optimize
from invlab.lbo import LboConfig, lbo_invert_trajectory, objective_and_grad
from invlab.metrics import psnr, ssim
from invlab.rng import derive_rng
from invlab.schedule import NoiseSchedule, coefficients, make_linear_schedule, make_uniform_grid

SEED = 20260814


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n:02d}: {detail}"


def _roundtrip_rel(model, sched, grid, z0, traj) -> float:
    gen = generate_trajectory(model, sched, grid, traj.latent_at(sched.t_train))
    return float(np.linalg.norm(gen.latent_at(0) - z0) / np.linalg.norm(z0))


@pytest.fixture(scope="module")
def ilb_study():
    """Shared latent-boosting study: 50 seeded images, regularizer on and off.

    The denoiser must be the trained MLP here: a linear model's skip round
    trip is a near-identity affine map, so the regularizer is flat and the
    on/off comparison degenerates to noise. dt=50 gives the regularizer a
    well-separated landscape.
    """
    cfg = config_from_json_dict({
        "seed": SEED, "steps": 10,
        "dataset": {"count": 50, "height": 16, "width": 16},
        "denoiser": {"kind": "mlp"},
    })
    b = BenchmarkBackends(cfg)
    on_cfg = replace(b.ilb_cfg, dt=50)
    off_cfg = replace(on_cfg, use_reg=False)
    started = time.perf_counter()
    rows = []
    for x0 in b.images:
        base = psnr(x0, np.clip(b.ae.decode(b.ae.encode(x0)), 0.0, 1.0))
        z_on, rep_on = ilb_optimize(x0, b.ae, b.model, b.sched, b.perc, on_cfg)
        boosted = psnr(x0, np.clip(b.ae.decode(z_on), 0.0, 1.0))
        _, rep_off = ilb_optimize(x0, b.ae, b.model, b.sched, b.perc, off_cfg)
        rows.append((base, boosted, rep_on, rep_off))
    return rows, time.perf_counter() - started


def test_criterion_01_scheduler_algebra():
    started = time.perf_counter()
    worst_closed = 0.0
    worst_identity = 0.0
    for k in range(100):
        rng = derive_rng(SEED, "sched", k)
        t_train = int(rng.integers(2, 40))
        betas = rng.uniform(1e-5, 0.25, t_train)
        sched = NoiseSchedule(betas)
        grid = make_uniform_grid(sched, t_train)
        z0 = rng.standard_normal(3)
        zT = np.sqrt(sched.alpha_bar(t_train)) * z0
        traj = generate_trajectory(ConstantDenoiser(3, 0.0), sched, grid, zT)
        for t in grid.steps:
            closed = np.sqrt(sched.alpha_bar(t)) * z0
            worst_closed = max(worst_closed, float(np.max(np.abs(traj.latent_at(t) - closed))))
        for t in range(1, t_train + 1):
            for t_prev in range(t):
                co = coefficients(sched, t, t_prev)
                ab_t, ab_p = sched.alpha_bar(t), sched.alpha_bar(t_prev)
                rhs = np.sqrt(ab_t) * (np.sqrt(1.0 / ab_t - 1.0) - np.sqrt(1.0 / ab_p - 1.0))
                worst_identity = max(worst_identity, abs(-co.psi / co.phi - rhs))
    elapsed = time.perf_counter() - started
    ok = worst_closed <= 1e-12 and worst_identity <= 1e-12 and elapsed < 1.0
    _verdict(1, ok, f"closed-form gap {worst_closed:.2e}, coefficient identity gap "
                    f"{worst_identity:.2e} over 100 schedules in {elapsed:.2f}s")


def test_criterion_02_constant_denoiser_exactness(default_sched, grid50):
    started = time.perf_counter()
    model = ConstantDenoiser(4, 0.7)
    rng = derive_rng(SEED, "const")
    worst = 0.0
    for t_prev, t in grid50.transitions():
        z = rng.standard_normal(4)
        co = coefficients(default_sched, t, t_prev)
        up = ddim_invert_step(model, co, z)
        worst = max(worst, float(np.max(np.abs(generate_step(model, co, up) - z))))
        down = generate_step(model, co, z)
        worst = max(worst, float(np.max(np.abs(ddim_invert_step(model, co, down) - z))))
    z0 = rng.standard_normal(4)
    inv = ddim_invert_trajectory(model, default_sched, grid50, z0)
    gen = generate_trajectory(model, default_sched, grid50, inv.latent_at(100))
    worst_sweep = float(np.max(np.abs(gen.latent_at(0) - z0)))
    zT = rng.standard_normal(4)
    gen2 = generate_trajectory(model, default_sched, grid50, zT)
    inv2 = ddim_invert_trajectory(model, default_sched, grid50, gen2.latent_at(0))
    worst_sweep = max(worst_sweep, float(np.max(np.abs(inv2.latent_at(100) - zT))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and worst_sweep <= 1e-10 and elapsed < 1.0
    _verdict(2, ok, f"per-step gap {worst:.2e}, 50-step sweep gap {worst_sweep:.2e} "
                    f"in {elapsed:.2f}s")


def test_criterion_03_gradient_fidelity():
    started = time.perf_counter()
    sched = make_linear_schedule(60, 1e-4, 0.05)
    images = make_shapes(16, SEED, 8, 8)
    ae = fit_linear_autoencoder(images, 16)
    latents = np.stack([ae.encode(im) for im in images])
    model = train_mlp_denoiser(latents, sched, MlpTrainConfig(
        width=16, max_epochs=3, batch_size=8, lr=1e-2), 0)
    from invlab.perceptual import RandomConvPerceptual
    perc = RandomConvPerceptual((8, 8, 1))
    ilb_cfg = IlbConfig(dt=10)

    def probe(k):
        rng = derive_rng(SEED, "fd", k)
        t = int(rng.integers(1, 61))
        t_prev = int(rng.integers(0, t))
        z = rng.standard_normal(16)
        v = rng.standard_normal(16)
        z_prev = rng.standard_normal(16)
        bias = 0.1 * rng.standard_normal(16)
        co = coefficients(sched, t, t_prev)
        x0 = images[k % len(images)]
        z0 = ae.encode(x0) + 0.05 * rng.standard_normal(16)
        return {
            "vjp": gradient_check(lambda x: float(v @ model.eval(x, t)),
                                  model.linearize(z, t)[1](v), z),
            "lbo": gradient_check(
                lambda x: objective_and_grad(model, co, z_prev, x)[0],
                objective_and_grad(model, co, z_prev, bias)[1], bias,
                lbo_residual(model, co, z_prev)),
            "ilb": gradient_check(
                lambda x: ilb_loss_and_grad(x0, x, ae, model, sched, perc, ilb_cfg)[2],
                ilb_loss_and_grad(x0, z0, ae, model, sched, perc, ilb_cfg)[3], z0,
                ilb_residual(x0, ae, model, sched, ilb_cfg)),
        }

    worst, skipped = checked_probes(20, probe)
    elapsed = time.perf_counter() - started
    ok = max(worst.values()) <= 1e-4 and elapsed < 30.0
    _verdict(3, ok, "max FD relative error: vjp {vjp:.2e}, step objective {lbo:.2e}, "
                    "boosting total {ilb:.2e} on 20 probes each, {skipped} skipped at a kink, "
                    "in {s:.1f}s".format(s=elapsed, skipped=skipped, **worst))


def test_criterion_04_fixed_point_certificate(default_sched, grid50):
    started = time.perf_counter()
    cfg = LboConfig(mode="numerical")
    worst_iters, worst_res, worst_replay = 0, 0.0, 0.0
    worst_rel, worst_ratio_ok = 0.0, True
    for i in range(100):
        rng = derive_rng(SEED, "c4", i)
        model = analytic_denoiser(rng, 8, default_sched)
        z0 = rng.standard_normal(8)
        traj, reports = lbo_invert_trajectory(model, default_sched, grid50, z0, cfg)
        assert all(r.converged for r in reports)
        worst_iters = max(worst_iters, max(r.iters for r in reports))
        worst_res = max(worst_res, max(r.residual for r in reports))
        for t_prev, t in grid50.transitions():
            co = coefficients(default_sched, t, t_prev)
            back = generate_step(model, co, traj.latent_at(t))
            worst_replay = max(worst_replay, float(np.max(np.abs(back - traj.latent_at(t_prev)))))
        rel = _roundtrip_rel(model, default_sched, grid50, z0, traj)
        rel_ddim = _roundtrip_rel(
            model, default_sched, grid50, z0,
            ddim_invert_trajectory(model, default_sched, grid50, z0))
        worst_rel = max(worst_rel, rel)
        worst_ratio_ok = worst_ratio_ok and (rel * 10.0 <= rel_ddim)
    elapsed = time.perf_counter() - started
    ok = (worst_iters <= 15 and worst_res < 1e-8 and worst_replay <= 10 * cfg.tol
          and worst_rel <= 1e-6 and worst_ratio_ok and elapsed < 120.0)
    _verdict(4, ok, f"100 instances: iters <= {worst_iters}, residual <= {worst_res:.2e}, "
                    f"replay <= {worst_replay:.2e}, round trip <= {worst_rel:.2e} and "
                    f">= 10x below one-shot on all, in {elapsed:.1f}s")


def test_criterion_05_variant_agreement(default_sched, grid50):
    started = time.perf_counter()
    modes = {"numerical": LboConfig(mode="numerical"),
             "hybrid": LboConfig(mode="hybrid"),
             "gradient": LboConfig(mode="gradient", max_iters=600, lr=1e-4)}
    worst_agree = 0.0
    for i in range(3):
        rng = derive_rng(SEED, "c5a", i)
        model = analytic_denoiser(rng, 4, default_sched)
        z0 = rng.standard_normal(4)
        zs = {}
        for name, cfg in modes.items():
            traj, _ = lbo_invert_trajectory(model, default_sched, grid50, z0, cfg)
            zs[name] = traj.latent_at(100)
        ref = float(np.linalg.norm(zs["numerical"]))
        pairs = [("numerical", "hybrid"), ("numerical", "gradient"), ("hybrid", "gradient")]
        worst_agree = max(worst_agree, max(
            float(np.linalg.norm(zs[a] - zs[b])) / ref for a, b in pairs))

    data = make_gauss_mixture(128, 0)
    model = train_mlp_denoiser(data, default_sched, MlpTrainConfig(
        width=32, max_epochs=30, batch_size=16, lr=1e-2), 0)
    grid20 = make_uniform_grid(default_sched, 20)
    defaults = {"numerical": LboConfig(mode="numerical"),
                "hybrid": LboConfig(mode="hybrid"),
                "gradient": LboConfig(mode="gradient")}
    wins = {name: 0 for name in defaults}
    for i in range(100):
        z0 = derive_rng(SEED, "c5b", i).standard_normal(2)
        rel_ddim = _roundtrip_rel(
            model, default_sched, grid20, z0,
            ddim_invert_trajectory(model, default_sched, grid20, z0))
        for name, cfg in defaults.items():
            traj, _ = lbo_invert_trajectory(model, default_sched, grid20, z0, cfg)
            if _roundtrip_rel(model, default_sched, grid20, z0, traj) < rel_ddim:
                wins[name] += 1
    elapsed = time.perf_counter() - started
    ok = (worst_agree <= 1e-3 and all(w >= 95 for w in wins.values()) and elapsed < 600.0)
    _verdict(5, ok, f"z_T agreement {worst_agree:.2e}; beats one-shot on "
                    f"{wins['gradient']}/{wins['numerical']}/{wins['hybrid']} of 100 "
                    f"(g/n/h) in {elapsed:.1f}s")


def test_criterion_06_zero_budget_degeneracy(default_sched, grid50):
    rng = derive_rng(SEED, "c6")
    backends = [(analytic_denoiser(rng, 4, default_sched), rng.standard_normal(4))]
    data = make_gauss_mixture(64, 1)
    mlp = train_mlp_denoiser(data, default_sched, MlpTrainConfig(
        width=16, max_epochs=5, batch_size=16, lr=1e-2), 1)
    backends.append((mlp, rng.standard_normal(2)))
    exact = True
    for model, z0 in backends:
        ref = ddim_invert_trajectory(model, default_sched, grid50, z0)
        for mode in ("numerical", "gradient", "hybrid"):
            traj, reports = lbo_invert_trajectory(
                model, default_sched, grid50, z0, LboConfig(mode=mode, max_iters=0))
            for t in grid50.steps:
                exact = exact and np.array_equal(traj.latent_at(t), ref.latent_at(t))
            exact = exact and all(r.iters == 0 for r in reports)
    _verdict(6, exact, "max_iters=0 matches one-shot inversion bit for bit, "
                       "all modes, both backends")


def test_criterion_07_boosting_gain(ilb_study):
    rows, elapsed = ilb_study
    gains = np.array([boosted - base for base, boosted, _, _ in rows])
    holds = all(rep_on.final_total <= rep_on.initial_total for _, _, rep_on, _ in rows)
    ok = gains.mean() >= 1.0 and holds and elapsed < 600.0
    _verdict(7, ok, f"mean decode-PSNR gain {gains.mean():+.3f} dB over plain encoding "
                    f"on {len(rows)} images, best-iterate guarantee on all, "
                    f"in {elapsed:.1f}s")


def test_criterion_08_regularizer_effect(ilb_study):
    rows, _ = ilb_study
    frac = float(np.mean([rep_on.final_reg <= rep_off.final_reg
                          for _, _, rep_on, rep_off in rows]))
    ok = frac >= 0.90
    _verdict(8, ok, f"regularizer on ends at lower alignment loss on "
                    f"{frac:.0%} of {len(rows)} seeds")


def test_criterion_09_metric_sanity():
    rng = derive_rng(SEED, "metrics")
    x = rng.uniform(0.0, 1.0, (16, 16, 1))
    y = rng.uniform(0.0, 1.0, (16, 16, 1))
    self_ok = ssim(x, x) == 1.0
    sym_gap = abs(ssim(x, y) - ssim(y, x))
    psnr_gap = abs(psnr(np.zeros((4, 4, 1)), np.full((4, 4, 1), 0.1)) - 20.0)
    const_gap = abs(ssim(np.zeros((16, 16, 1)), np.full((16, 16, 1), 0.5)) - 3.9984e-4)
    ok = self_ok and sym_gap <= 1e-12 and psnr_gap <= 1e-9 and const_gap <= 1e-6
    _verdict(9, ok, f"ssim(x,x)=1 {self_ok}, symmetry gap {sym_gap:.1e}, "
                    f"20 dB hand value gap {psnr_gap:.1e}, constant-pair gap {const_gap:.1e}")


def test_criterion_10_benchmark_determinism(tmp_path):
    cfg = config_from_json_dict({
        "seed": SEED, "steps": 6, "t_train": 60,
        "dataset": {"count": 6, "height": 8, "width": 8},
        "autoencoder": {"fit_count": 16},
        "methods": ["ddim", "lbo-n", "lbo-n+ilb"],
    })
    run_benchmark(cfg, tmp_path / "a")
    run_benchmark(cfg, tmp_path / "b")
    run_benchmark(replace(cfg, methods=cfg.methods[::-1]), tmp_path / "c")
    ref_csv = (tmp_path / "a" / "benchmark.csv").read_bytes()
    ok = ((tmp_path / "b" / "summary.json").read_bytes()
          == (tmp_path / "a" / "summary.json").read_bytes()
          and all((tmp_path / d / "benchmark.csv").read_bytes() == ref_csv for d in ("b", "c")))
    _verdict(10, ok, "CSV and summary bytes identical across two runs, "
                     "and the CSV with the methods listed in reverse")
