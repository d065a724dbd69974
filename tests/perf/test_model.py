"""Tests for the machine model and application scaling composition."""

import numpy as np
import pytest

from repro.perf.machine import MachineModel, parallel_efficiency, weak_efficiency
from repro.perf.model import (
    ApplicationModel,
    SolverCosts,
    fit_ghost_coeff,
    fit_t_elem,
    iter_profile_from_obs,
    paper_fig5_solvers,
    phase_profile,
)


class TestMachineModel:
    def test_matvec_strong_scaling_monotone(self):
        m = MachineModel()
        procs = [224, 448, 896, 1792, 3584, 7168, 14336, 28672]
        times = [m.matvec_time(13e6, p) for p in procs]
        assert all(t1 > t2 for t1, t2 in zip(times, times[1:]))

    def test_matvec_efficiency_band(self):
        """Calibrated defaults land near the paper's 81% at 128x procs."""
        m = MachineModel()
        t0 = m.matvec_time(13e6, 224)
        t1 = m.matvec_time(13e6, 28672)
        eff = (t0 * 224) / (t1 * 28672)
        assert 0.6 < eff < 1.0

    def test_weak_scaling_slow_growth(self):
        m = MachineModel()
        times = [m.matvec_time(35_000 * p, p) for p in (28, 112, 448, 1792, 14336)]
        # Weak-scaled time grows but stays within ~2x (paper: 1.58 -> 1.9 s).
        assert times[-1] > times[0]
        assert times[-1] < 2.0 * times[0]

    def test_alltoall_blowup_vs_nbx(self):
        """Dense Alltoall cost explodes with p; NBX stays flat — the paper's
        15x fix (Sec. II-C3c)."""
        m = MachineModel()
        dense_28k = m.alltoall_dense_time(28_672)
        dense_56k = m.alltoall_dense_time(57_344)
        nbx = m.sparse_exchange_time(26, 26 * 64)
        assert dense_56k > 1.9 * dense_28k  # Omega(p)
        assert nbx < dense_28k / 10

    def test_kway_sort_stage_count_effect(self):
        m = MachineModel()
        # More ranks under the same k -> more stages only logarithmically.
        t1 = m.kway_sort_time(1e8, 128)
        t2 = m.kway_sort_time(1e8, 128**2)
        assert t2 < 10 * t1

    def test_efficiency_helpers(self):
        eff = parallel_efficiency(np.array([8.0, 4.4]), np.array([1, 2]))
        assert np.isclose(eff[0], 1.0)
        assert 0.9 < eff[1] < 1.0
        w = weak_efficiency(np.array([1.0, 1.25]))
        assert np.isclose(w[1], 0.8)


class TestFits:
    def test_fit_ghost_coeff_recovers_synthetic(self):
        grains = np.array([1e3, 1e4, 1e5, 1e6])
        c_true = 7.5
        ghost = 8.0 * c_true * grains ** (2 / 3)
        c = fit_ghost_coeff(grains, ghost, dim=3)
        assert np.isclose(c, c_true, rtol=1e-12)

    def test_fit_t_elem(self):
        assert np.isclose(fit_t_elem(13e6, 224, 2.87), 2.87 * 224 / 13e6)


class TestApplicationModel:
    def _model(self):
        return ApplicationModel(
            machine=MachineModel(),
            n_elems=700e6,
            dim=3,
            solvers=paper_fig5_solvers(),
        )

    def test_all_solvers_speed_up(self):
        app = self._model()
        for name in ("ns", "pp", "vu", "ch"):
            s = app.speedup(name, 14336, 114688)
            assert 2.0 < s < 8.0, f"{name}: {s}"

    def test_fig5_ordering(self):
        """Paper: NS speedup (6.6x) > VU (5.5x) ~ PP (5.3x) > CH (4x)."""
        app = self._model()
        s = {n: app.speedup(n, 14336, 114688) for n in ("ns", "pp", "vu", "ch")}
        assert s["ns"] > s["pp"]
        assert s["ns"] > s["ch"]
        assert s["ch"] < s["vu"]

    def test_pp_dominates_until_remesh(self):
        """PP-solve is the costliest solver at low-mid scale (paper III-B)."""
        app = self._model()
        b = app.breakdown([14336])
        assert b["pp"][0] == max(b[n][0] for n in ("ns", "pp", "vu", "ch"))

    def test_remesh_upturn(self):
        """Remeshing cost falls, then grows again at extreme scale."""
        app = self._model()
        procs = [14336, 28672, 57344, 114688]
        r = [app.remesh_time(p) for p in procs]
        assert r[1] < r[0]  # initially scales down
        assert r[3] > min(r)  # upturn past the sweet spot

    def test_iter_profile_override(self):
        solvers = paper_fig5_solvers({"pp": 500})
        assert solvers["pp"].iterations == 500
        assert solvers["ns"].iterations == 90


class TestObsCalibration:
    """Span timings and counters from a traced run feed the Fig. 5 model."""

    def _traced_report(self):
        import time

        from repro import obs

        obs.begin_rank()
        with obs.span("chns.step"):
            with obs.span("chns.ch"):
                time.sleep(0.002)
            with obs.span("chns.pp"):
                time.sleep(0.001)
        obs.incr("chns.steps")
        # pooled counters: 3 PP solves + 1 CH inner solve of 60 iterations
        obs.incr("krylov.solves", 4)
        obs.incr("krylov.iterations", 150)
        obs.incr("krylov.solves.pp", 3)
        obs.incr("krylov.iterations.pp", 90)
        obs.incr("newton.iterations", 5)
        snap = obs.end_rank()
        obs.disable()
        return obs.world_report([snap])

    def test_phase_profile_reads_step_spans(self):
        prof = phase_profile(self._traced_report())
        assert prof["ch"] >= 0.002
        assert prof["pp"] >= 0.001
        assert prof["ns"] == 0.0 and prof["remesh"] == 0.0

    def test_iter_profile_from_obs(self):
        prof = iter_profile_from_obs(self._traced_report())
        # 90 PP iters / 3 PP solves; the CH inner solve stays out of it
        assert prof["pp"] == pytest.approx(30.0)
        assert prof["ch"] == pytest.approx(5.0)  # Newton iters per step
        assert "ns" not in prof and "vu" not in prof  # never solved
        # And it plugs straight into the Fig. 5 profile override.
        solvers = paper_fig5_solvers(prof)
        assert solvers["pp"].iterations == pytest.approx(30.0)

    def test_iter_profile_empty_without_solves(self):
        from repro import obs

        obs.begin_rank()
        snap = obs.end_rank()
        obs.disable()
        assert iter_profile_from_obs(obs.world_report([snap])) == {}

    def test_iter_profile_is_per_block_on_a_traced_run(self):
        """Traced quick ``rising_bubble_2d``: each linear block reports its
        own iterations per solve (the stepper's ``iteration_counts`` are
        the oracle) and the CH inner BiCGStab solves, present in the
        pooled counters, leak into none of them."""
        from repro import obs
        from repro.scenarios import build, run_scenario

        cfg = build("rising_bubble_2d", quick=True)
        seen = []
        obs.begin_rank()
        try:
            result = run_scenario(cfg, on_step=seen.append)
            snap = obs.end_rank()
        finally:
            obs.disable()
        assert result.status == "succeeded"
        report = obs.world_report([snap])
        prof = iter_profile_from_obs(report)
        counts = seen[-1].stepper.iteration_counts
        blocks = cfg.time.n_steps * cfg.time.n_blocks
        dim = cfg.domain.dim  # NS and VU solve one system per component
        assert prof["ns"] == pytest.approx(counts["krylov_ns"] / (dim * blocks))
        assert prof["pp"] == pytest.approx(counts["krylov_pp"] / blocks)
        assert prof["vu"] == pytest.approx(counts["krylov_vu"] / (dim * blocks))
        assert len({prof["ns"], prof["pp"], prof["vu"]}) == 3
        assert prof["ch"] == pytest.approx(counts["newton"] / cfg.time.n_steps)
        pooled = report.counter_total("krylov.iterations")
        assert pooled > counts["krylov"]  # CH inner solves are in the pool
