"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import dataclasses
import filecmp
import time

import numpy as np
import pytest

import tumorctrl as tc
from oracles import brute_force_optimize, random_admissible_controls
from tumorctrl import verify
from tumorctrl.fields import SpaceTimeField, TimeGrid, grid1d
from tumorctrl.optim import _q_norm
from tumorctrl.runner import load_config, run
from tumorctrl.solver import adjoint_mismatch_fields
from tumorctrl.sparsity import (SparsityMode, certificate, prox,
                                select_subgradient)

PRINTED = "[acceptance] criterion {n} ({name}): {status}{extra}"


def report(n, name, ok, extra=""):
    print(PRINTED.format(n=n, name=name,
                         status="PASS" if ok else "FAIL", extra=extra))
    assert ok, f"criterion {n} ({name}) failed{extra}"


def test_c1_stationary_exactness():
    t0 = time.perf_counter()
    prob = tc.preset_problem("stationary-trivial")
    traj = tc.solve_state(prob.params, prob.pot, prob.hspec, prob.u0,
                          prob.init)
    bal = tc.state_balance_report(traj, prob.params, prob.u0, prob.hspec)
    cost = tc.reduced_cost(prob, prob.u0)
    elapsed = time.perf_counter() - t0
    constant = (np.all(traj.mu.values == 0.0) and np.all(traj.phi.values == 1.0)
                and np.all(traj.sigma.values == 0.0))
    ok = (constant and bal["max_relative"] <= 1e-12 and cost == 0.0
          and elapsed < 1.0)
    report(1, "stationary exactness", ok,
           f" [residual {bal['max_relative']:.1e}, cost {cost}, "
           f"{elapsed:.2f}s]")


@pytest.fixture(scope="module")
def default_checks():
    """verify_checks' reports on 1D-logarithmic-default along 5 gradient
    directions, with the verify command's refinement levels, and the
    seconds they took."""
    prob = tc.preset_problem("1D-logarithmic-default")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "FD_DIRECTIONS", 5)
        t0 = time.perf_counter()
        reports = {rep.name: rep for rep in tc.verify_checks(prob)}
    return reports, time.perf_counter() - t0


def test_c2_gradient_fidelity(default_checks):
    reports, elapsed = default_checks
    fd, gap = reports["fd_gradient_check"], reports["duality_gap"]
    rel_gaps = [r[3] for r in gap.refinement]
    ok = (len(fd.metrics) == 5 + 1
          and fd.metric("max_best_rel_error") <= 1e-8
          and len(rel_gaps) >= 3 and max(rel_gaps) <= 1e-10
          and elapsed < 120.0)
    report(2, "gradient fidelity", ok,
           f" [fd {fd.metric('max_best_rel_error'):.2e}, "
           f"relative duality gap {max(rel_gaps):.2e}, {elapsed:.1f}s]")


def test_c3_linearized_map_fidelity(default_checks):
    rep = default_checks[0]["linearized_fd_refinement"]
    errs = [r[3] for r in rep.refinement]
    ok = len(errs) >= 2 and max(errs) <= 1e-6
    report(3, "linearized map fidelity", ok,
           f" [default {errs[0]:.2e} -> refined {errs[-1]:.2e}]")


def _prox_oracle_caches(n_points=10**6, seed=5):
    rng = np.random.default_rng(seed)
    caches = {}
    for d in (1, 2, 3):
        m = {1: n_points, 2: 1000, 3: 100}[d]
        axes = [np.linspace(-1.0, 1.0, m)] * d
        lattice = np.stack(np.meshgrid(*axes, indexing="ij"),
                           axis=-1).reshape(-1, d)
        extra = n_points - lattice.shape[0]
        rand = rng.uniform(-1.0, 1.0, (max(extra, 0), d))
        caches[d] = np.vstack([lattice, rand])[:n_points]
    return caches


def _lattice_minima(blocks, blo, bhi, base, pen_min, sq_max, coef, vs):
    """Per mode, the exact minimum of base - c * (cand . v) for each row v.

    base is (c/2)|cand|^2 + pen(cand), so base - c * (cand . v) equals
    (c/2)|cand - v|^2 - (c/2)|v|^2 + pen(cand).  A block's lower bound is
    (c/2) dist(v, its bounding box)^2 - (c/2)|v|^2 + its least pen, less a
    conservative slack for rounding.  It is checked against the value
    attained in the block of least bound, and only the blocks some slice
    cannot rule out are scanned.
    """
    # squared distance of each v to each block's bounding box, and a bound
    # on |cand . v| over the block, (slice, block)
    dist_sq = sum(np.maximum(np.maximum(blo[:, j] - vs[:, j, None],
                                        vs[:, j, None] - bhi[:, j]), 0.0) ** 2
                  for j in range(vs.shape[1]))
    t_abs = np.abs(vs) @ np.maximum(np.abs(blo), np.abs(bhi)).T
    half_vv = 0.5 * np.vecdot(vs, vs)[:, None]
    minima = {}
    for mode, c in coef.items():
        def block_min(b, rows):
            """Least base - c * (cand . v) in block b, per slice of rows.

            cand . v is summed elementwise over the d <= 3 coordinates, so
            a minimum does not depend on which rows share the call, as a
            BLAS product's rounding does.
            """
            dots = sum(vs[rows, j, None] * blocks[b][:, j]
                       for j in range(vs.shape[1]))
            return np.min(base[mode][b] - c * dots, axis=1)

        bound = (c * (0.5 * dist_sq - half_vv) + pen_min[mode]
                 - 1e-12 * (np.abs(pen_min[mode])
                            + c * (sq_max + t_abs + half_vv)))
        b0 = np.argmin(bound, axis=1)
        best = np.empty(len(vs))
        for b in np.unique(b0):
            rows = np.nonzero(b0 == b)[0]
            best[rows] = block_min(b, rows)
        scan = bound <= best[:, None]
        minima[mode] = np.full(len(vs), np.inf)
        for b in np.nonzero(scan.any(axis=0))[0]:
            rows = np.nonzero(scan[:, b])[0]
            minima[mode][rows] = np.minimum(minima[mode][rows],
                                            block_min(b, rows))
    return minima


def test_c4_prox_oracle_equivalence():
    t0 = time.perf_counter()
    vol, tau = 0.37, 0.23
    eta, kappa = 0.8, 0.6
    lo, hi = -1.3, 1.7
    span = max(abs(lo), hi)
    caches = _prox_oracle_caches()
    rng = np.random.default_rng(99)
    n_slices = 10**4

    # scaled candidates and per-mode slice objectives; the candidate block
    # covers the box exactly, so its best value is the lattice/random oracle.
    # Candidates are ordered in spatial tiles and cut into contiguous blocks
    # of 1000, each with a small bounding box for the pruned scan below.
    per_d = {}
    for d, unit in caches.items():
        if d > 1:
            tiles = {2: 32, 3: 10}[d]
            key = np.minimum(np.floor((unit + 1.0) * 0.5 * tiles), tiles - 1)
            unit = unit[np.lexsort(key.T[::-1])]
        cand = np.empty_like(unit)
        for j in range(d):
            cand[:, j] = lo + (unit[:, j] + 1.0) * 0.5 * (hi - lo)
        candsq = np.einsum("ij,ij->i", cand, cand)
        candl1 = np.sum(np.abs(cand), axis=1)
        candl2 = np.sqrt(candsq)
        base = {
            SparsityMode.FULL_Q:
                tau * vol * (candsq / (2 * eta) + kappa * candl1),
            SparsityMode.TIME:
                tau * (vol * candsq / (2 * eta)
                       + kappa * np.sqrt(vol) * candl2),
            SparsityMode.SPACE:
                vol * (tau * candsq / (2 * eta)
                       + kappa * np.sqrt(tau) * candl2),
        }
        coef = {SparsityMode.FULL_Q: tau * vol / eta,
                SparsityMode.TIME: tau * vol / eta,
                SparsityMode.SPACE: vol * tau / eta}
        blocks = cand.reshape(-1, 1000, d)
        pen = {m: b - 0.5 * coef[m] * candsq for m, b in base.items()}
        pen_min = {m: p.reshape(-1, 1000).min(axis=1) for m, p in pen.items()}
        base = {m: b.reshape(-1, 1000) for m, b in base.items()}
        per_d[d] = (blocks, blocks.min(axis=1), blocks.max(axis=1), base,
                    pen_min, candsq.reshape(-1, 1000).max(axis=1), coef)

    def objective(mode, u, v):
        """Slice objective at each row u of the prox of the row v."""
        usq = np.vecdot(u, u)
        quad = np.vecdot(u - v, u - v) / (2 * eta)
        if mode is SparsityMode.FULL_Q:
            return tau * vol * (quad + kappa * np.sum(np.abs(u), axis=1))
        if mode is SparsityMode.TIME:
            return tau * (vol * quad + kappa * np.sqrt(vol * usq))
        return vol * (tau * quad + kappa * np.sqrt(tau * usq))

    thr = {SparsityMode.TIME: eta * kappa / np.sqrt(vol),
           SparsityMode.SPACE: eta * kappa / np.sqrt(tau)}
    slices = []
    for s in range(n_slices):
        d = 1 + s % 3
        scale = 10.0 ** rng.uniform(-1.5, 0.6) * span
        v = rng.uniform(-1.0, 1.0, d) * scale
        if s % 10 == 0:  # plant a group-threshold boundary case
            nv = np.linalg.norm(v)
            if nv > 0:
                mode_b = SparsityMode.TIME if s % 20 else SparsityMode.SPACE
                target = thr[mode_b] * (1.0 + rng.choice([-1e-9, 1e-9]))
                v = v / nv * target
        slices.append(v)

    # one prox call per mode and dimension d over all slices of that d, each
    # slice one group: a time step of an (n, d) field for FULL_Q and TIME, a
    # cell of the (d, n) transpose for SPACE.  The groups' weights (vol for
    # TIME, tau for SPACE) are those of a one-group field
    modes = (SparsityMode.FULL_Q, SparsityMode.TIME, SparsityMode.SPACE)
    proxed = {}
    for d in (1, 2, 3):
        vs = np.array(slices[d - 1::3])
        n = len(vs)
        for mode in modes:
            if mode is SparsityMode.SPACE:
                f = SpaceTimeField(TimeGrid(tau * d, d), grid1d(n, vol * n),
                                   vs.T)
                proxed[mode, d] = prox(mode, f, eta, kappa, lo, hi).values.T
            else:
                f = SpaceTimeField(TimeGrid(tau * n, n), grid1d(d, vol * d),
                                   vs)
                proxed[mode, d] = prox(mode, f, eta, kappa, lo, hi).values

    worst_excess = -np.inf
    law_violations = 0
    for d in (1, 2, 3):
        vs = np.array(slices[d - 1::3])
        vv = np.vecdot(vs, vs)
        coef = per_d[d][-1]
        # 1024 slices at a time keep the (slice, block) tables small
        parts = [_lattice_minima(*per_d[d], vs[i:i + 1024])
                 for i in range(0, len(vs), 1024)]
        for mode in modes:
            oracle = np.concatenate([p[mode] for p in parts])
            oracle += 0.5 * coef[mode] * vv
            u = proxed[mode, d]
            jp = objective(mode, u, vs)
            worst_excess = max(worst_excess, float(np.max(jp - oracle)))
            # zero-slice law with the weighted norms of each mode
            if mode is not SparsityMode.FULL_Q:
                w = vol if mode is SparsityMode.TIME else tau
                zero_law = np.sqrt(w * vv) <= eta * kappa
                law_violations += int(np.sum(zero_law
                                             != np.all(u == 0.0, axis=1)))
            else:
                zero_law = np.abs(vs) <= eta * kappa
                law_violations += int(np.sum(np.any(zero_law != (u == 0.0),
                                                    axis=1)))
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 1e-9 and law_violations == 0
    report(4, "prox oracle equivalence", ok,
           f" [worst excess {worst_excess:.2e}, law violations "
           f"{law_violations}, {elapsed:.0f}s]")


TINY = dict(dim=1, n=(2,), length=(1.0,), t_final=0.4,
            n_steps=2, potential="regular", nu=0.1, kappa=0.004, beta1=1.0,
            beta2=1.0, chi=0.3, p_rate=0.6, a_rate=0.1, b_rate=0.5,
            e_rate=0.5, sigma_s=0.6, init_phi="values -0.3 0.4",
            init_sigma="constant 0.5", target_phi_q="values 0.3 -0.2",
            target_phi_omega="constant 0.2", max_iters=2000, tol_vi=1e-9)


# C5's lattice minima, recorded with the phi-step Newton started from the
# extrapolated trajectory
C5_MINIMA = {"full": "0.04989742724620306", "time": "0.049901002678953955"}


def test_c5_optimizer_vs_brute_force():
    t0 = time.perf_counter()
    results = {}
    for mode_name in ("full", "time"):
        prob = tc.make_problem({**TINY, "mode": mode_name})
        u_star, j_star = brute_force_optimize(prob)
        assert repr(j_star) == C5_MINIMA[mode_name]
        res = tc.proximal_gradient_solve(prob)
        results[mode_name] = (abs(res.cost - j_star), 1e-4 * (1 + abs(j_star)))
    elapsed = time.perf_counter() - t0
    ok = all(gap <= tol for gap, tol in results.values()) and elapsed < 60.0
    extra = ", ".join(f"{m}: gap {g:.1e} (tol {t:.1e})"
                      for m, (g, t) in results.items())
    report(5, "optimizer vs brute force", ok, f" [{extra}, {elapsed:.1f}s]")


def _certificate_agreement(prob, res, norms_of):
    kappa = prob.params.kappa
    cert = certificate(prob.mode, res.adjoint, res.trajectory, prob.hspec,
                       kappa, prob.bounds)
    mismatches = 0
    for norms, comp in ((cert.norms1, res.control.u1),
                        (cert.norms2, res.control.u2)):
        flagged = norms <= kappa
        zero = norms_of(comp) <= 1e-6
        exempt = np.abs(norms - kappa) <= 1e-3 * kappa
        mismatches += int(np.count_nonzero((flagged != zero) & ~exempt))
    return mismatches


def test_c6_sparsity_certificate_agreement():
    prob = tc.preset_problem("time-sparsity-demo")
    res = tc.proximal_gradient_solve(prob)
    vol = prob.grid.cell_volume
    mm_t = _certificate_agreement(
        prob, res, lambda c: np.sqrt(vol * np.sum(c.values ** 2, axis=1)))

    prob_f = tc.preset_problem("time-sparsity-demo", mode="full", kappa=4e-4)
    res_f = tc.proximal_gradient_solve(prob_f)
    mm_q = _certificate_agreement(prob_f, res_f, lambda c: np.abs(c.values))
    ok = res.converged and res_f.converged and mm_t == 0 and mm_q == 0
    report(6, "sparsity certificate agreement", ok,
           f" [time mismatches {mm_t}, full mismatches {mm_q}]")


def test_c7_vanishing_control_threshold():
    prob = tc.preset_problem("time-sparsity-demo")
    th = tc.zero_control_threshold(prob)
    k0 = th.kappa0_estimate
    assert k0 > 0
    opts = dataclasses.replace(prob.opts, tol_vi=1e-8)

    def solve(u0, kappa):
        return tc.proximal_gradient_solve(dataclasses.replace(
            prob, u0=u0, opts=opts,
            params=dataclasses.replace(prob.params, kappa=kappa)))

    above_ok, below_ok = True, True
    for seed in (7, 99):
        u0 = random_admissible_controls(prob, seed)
        res = solve(u0, 1.01 * k0)
        above_ok &= _q_norm(res.control, res.control.u1.values,
                            res.control.u2.values) <= 1e-6
        res = solve(u0, 0.5 * k0)
        s1, s2 = tc.support_measure(prob.mode, res.control)
        below_ok &= (s1 + s2) > 0.0
    ok = above_ok and below_ok
    report(7, "vanishing-control threshold", ok,
           f" [kappa0 {k0:.3e}, above->zero {above_ok}, "
           f"below->support {below_ok}]")


def test_c8_separation_preservation():
    prob = tc.preset_problem("1D-logarithmic-default")
    traj = tc.solve_state(prob.params, prob.pot, prob.hspec, prob.u0,
                          prob.init)
    mon = tc.separation_monitor(traj, prob.pot)
    default_ok = mon.passed and mon.metric("min_margin") >= 1e-3

    stress = tc.preset_problem("stress-separation")
    loud = False
    detail = ""
    try:
        straj = tc.solve_state(stress.params, stress.pot, stress.hspec,
                               stress.u0, stress.init)
        srep = tc.separation_monitor(straj, stress.pot)
        if srep.passed:
            loud, detail = True, "margins maintained"
        elif srep.metric("first_offending_step") >= 0:
            loud = True
            detail = f"monitor fails at step {srep.metric('first_offending_step'):.0f}"
    except tc.SeparationLoss as exc:
        loud, detail = True, f"solver stops at step {exc.step}"
    ok = default_ok and loud
    report(8, "separation preservation", ok,
           f" [default margin {mon.metric('min_margin'):.3f}, "
           f"stress: {detail}]")


def test_c9_full_sparsity_lambda_formula():
    prob = tc.preset_problem("time-sparsity-demo", mode="full", kappa=4e-4)
    res = tc.proximal_gradient_solve(prob)
    kappa = prob.params.kappa
    u2 = res.control.u2.values
    d = adjoint_mismatch_fields(prob.hspec, res.trajectory, res.adjoint)
    lam2 = select_subgradient(prob.mode, res.control, d, kappa)[1]
    psi3_slices = d[1]  # d2 is psi3 sampled on the control slices
    zero = u2 == 0.0
    err_zero = (np.max(np.abs(lam2[zero]
                              - np.clip(-psi3_slices[zero] / kappa, -1, 1)))
                if zero.any() else 0.0)
    err_sign = (np.max(np.abs(lam2[~zero] - np.sign(u2[~zero])))
                if (~zero).any() else 0.0)
    ok = (res.converged and zero.any() and (~zero).any()
          and err_zero <= 1e-8 and err_sign <= 1e-8)
    report(9, "full-sparsity lambda uniqueness", ok,
           f" [zero-set err {err_zero:.1e}, sign err {err_sign:.1e}]")


def test_c10_determinism(tmp_path):
    cases = [
        ("simulate", "stationary-trivial"),
        ("simulate", "2D-regular-default"),
        ("optimize", "time-sparsity-demo"),
        ("threshold", "time-sparsity-demo"),
        ("verify", "time-sparsity-demo"),
    ]
    identical = True
    for command, preset in cases:
        cfgp = tmp_path / f"{command}-{preset}.cfg"
        cfgp.write_text(f"[run]\ncommand = {command}\npreset = {preset}\n",
                        encoding="utf-8")
        cfg = load_config(cfgp)
        m1 = run(cfg, tmp_path / "a")
        m2 = run(cfg, tmp_path / "b")
        for name in m1.artifacts + ("manifest.txt",):
            same = filecmp.cmp(m1.out_dir / name, m2.out_dir / name,
                               shallow=False)
            identical &= same
    report(10, "determinism and reproducibility", identical)
