"""Runner tests: success paths, failure capture, the one-stepper contract
(a CH-only job is the stepper without its flow blocks) and the bit-identical
interrupt/restart contract."""

import dataclasses
import json

import numpy as np
import pytest

from repro.amr.driver import remesh
from repro.chns.ch_solver import CHSolver
from repro.mesh.mesh import mesh_from_field
from repro.scenarios import build, run_scenario
from repro.scenarios.runner import JobResult, config_digest
from repro.scenarios.schema import ScenarioError


def _diverging_drop():
    """A config that reliably blows up at step 0 (huge dt, huge Pe)."""
    cfg = build("drop_2d", quick=True)
    cfg.time.dt = 1e6
    cfg.physics["Pe"] = 1e6
    return cfg


def _count_vu_splu(monkeypatch, lu=None):
    """Route :mod:`repro.chns.vu_solver`'s ``splu`` through a recorder (the
    CH block's factorizations stay unseen); it returns ``lu`` instead of the
    factors when one is given.  Returns the list of calls."""
    import types

    import repro.chns.vu_solver as vu_solver

    calls, splu = [], vu_solver.spla.splu

    def recording(*args, **kwargs):
        calls.append(None)
        return splu(*args, **kwargs) if lu is None else lu

    monkeypatch.setattr(
        vu_solver, "spla", types.SimpleNamespace(splu=recording))
    return calls


class TestRun:
    def test_ch_quick_succeeds_with_diagnostics(self):
        res = run_scenario(build("coalescence_2d", quick=True))
        assert res.status == "succeeded"
        assert res.steps_done == res.n_steps > 0
        assert res.newton_iterations > 0
        assert res.n_elems_final > 0
        assert np.isfinite(res.diagnostics["energy"])
        assert "div_l2" not in res.diagnostics  # no velocity
        assert res.error is None

    def test_chns_quick_succeeds(self):
        res = run_scenario(build("rising_bubble_2d", quick=True))
        assert res.status == "succeeded"
        assert res.krylov_iterations > 0  # velocity/pressure solves ran
        assert 0.0 <= res.diagnostics["div_l2"] < np.inf
        assert res.krylov_unconverged == 0

    def test_unconverged_flow_solves_are_counted_not_fatal(self, monkeypatch):
        """A flow solve that reports ``converged=False`` is counted in the
        record and ends nothing: one unconverged VU solve is ``dim`` CG
        solves, one per velocity component.  Only the mesh's first block
        calls ``cg``; the second is one direct solve and the run goes on."""
        import repro.chns.vu_solver as vu_solver

        cfg = build("rising_bubble_2d", quick=True)
        dim, cg, calls = cfg.domain.dim, vu_solver.cg, []

        def first_vu_unconverged(*args, **kwargs):
            calls.append(None)
            res = cg(*args, **kwargs)
            return dataclasses.replace(res, converged=len(calls) > dim)

        monkeypatch.setattr(vu_solver, "cg", first_vu_unconverged)
        res = run_scenario(cfg)
        assert res.status == "succeeded" and res.steps_done == 2
        assert len(calls) == dim and res.vu_factorizations == 1
        assert res.krylov_unconverged == dim
        old = res.to_dict()  # a store written before the counts existed
        assert old.pop("krylov_unconverged") == dim
        assert old.pop("vu_factorizations") == 1
        loaded = JobResult.from_dict(old)
        assert loaded.krylov_unconverged == loaded.vu_factorizations == 0

    def test_failed_direct_vu_solve_falls_back_and_is_counted(
        self, monkeypatch
    ):
        """Factors whose solves miss the residual check: every block after
        the first factors once and then runs CG anyway, and a CG that does
        not converge is counted, not fatal."""
        import repro.chns.vu_solver as vu_solver

        class BadLU:
            def solve(self, B):
                return np.zeros_like(B)

        splu = _count_vu_splu(monkeypatch, BadLU())
        cfg = build("rising_bubble_2d", quick=True)
        cfg.time.n_steps = 3
        dim, cg, calls = cfg.domain.dim, vu_solver.cg, []

        def unconverged(*args, **kwargs):
            calls.append(None)
            return dataclasses.replace(cg(*args, **kwargs), converged=False)

        monkeypatch.setattr(vu_solver, "cg", unconverged)
        res = run_scenario(cfg)
        assert res.status == "succeeded" and res.steps_done == 3
        assert len(splu) == res.vu_factorizations == 1
        assert len(calls) == res.krylov_unconverged == 3 * dim

    def test_mesh_that_lives_one_block_never_factors(self, monkeypatch):
        """Remeshing every step: each mesh runs one flow block, so VU
        never factors; the same job on one mesh factors once."""
        splu = _count_vu_splu(monkeypatch)
        cfg = build("jet_2d", quick=True)
        cfg.time.n_steps = 3
        cfg.refinement.remesh_every = 1
        meshes = []
        res = run_scenario(cfg, on_step=lambda s: meshes.append(s.mesh))
        assert res.status == "succeeded"
        assert len({id(m) for m in meshes}) == 3
        assert splu == [] and res.vu_factorizations == 0
        cfg.refinement.remesh_every = 0
        res = run_scenario(cfg)
        assert res.status == "succeeded"
        assert len(splu) == res.vu_factorizations == 1

    def test_divergence_reported_not_raised(self):
        res = run_scenario(_diverging_drop())
        assert res.status == "failed"
        assert "SolverDivergence" in res.error
        assert res.steps_done < res.n_steps

    def test_cooperative_timeout(self):
        cfg = build("coalescence_2d", quick=True)
        cfg.control.timeout_s = 1e-6
        res = run_scenario(cfg)
        assert res.status == "timeout"
        assert "budget" in res.error

    def test_failed_job_keeps_the_work_it_did(self):
        """The diverging drop runs its Newton to ``maxiter`` at step 0 and
        fails: the record carries the counts and diagnostics of what ran,
        not zeros."""
        res = run_scenario(_diverging_drop())
        assert res.status == "failed" and "step 0" in res.error
        assert res.steps_done == 0
        assert res.newton_iterations > 0 and res.ch_linear > 0
        assert res.ch_factorizations > 0 and res.n_elems_final > 0
        assert np.isfinite(res.diagnostics["mass"])
        assert JobResult.from_dict(json.loads(json.dumps(res.to_dict()))) == res

    def test_full_drop_succeeds(self):
        """Full ``drop_2d`` stalled at step 3 while the CH Jacobian lacked
        its mobility block (the residual halved per iterate and ran out of
        ``maxiter``)."""
        res = run_scenario(build("drop_2d", quick=False))
        assert res.status == "succeeded", res.error
        assert res.steps_done == res.n_steps

    @pytest.mark.parametrize("how", ["failed", "timeout", "interrupted"])
    def test_job_that_dies_early_is_well_formed(self, how):
        """No completed step (or one, for the interrupt): the record still
        has a mesh size, the diagnostics of the state it stopped in, and
        counts that are plain non-negative ints."""
        kwargs = {}
        if how == "failed":
            cfg = _diverging_drop()
        elif how == "timeout":
            cfg = build("coalescence_2d", quick=True)
            cfg.control.timeout_s = 1e-6
        else:
            cfg = build("rising_bubble_2d", quick=True)
            kwargs["interrupt_after_step"] = 1
        res = run_scenario(cfg, **kwargs)
        assert res.status == how
        assert res.steps_done == (1 if how == "interrupted" else 0)
        assert res.n_elems_final > 0
        assert np.isfinite(res.diagnostics["mass"])
        for name in ("newton_iterations", "krylov_iterations", "ch_linear",
                     "ch_factorizations"):
            assert type(getattr(res, name)) is int and getattr(res, name) >= 0
        if how == "timeout":  # stopped before any solve
            assert res.newton_iterations == 0
        if how == "interrupted":
            assert res.newton_iterations > 0 and res.krylov_iterations > 0
            assert "vel_max" in res.diagnostics
        assert JobResult.from_dict(json.loads(json.dumps(res.to_dict()))) == res

    @pytest.mark.parametrize("name", ["drop_2d", "rising_bubble_2d"])
    def test_nonconverged_newton_fails_either_solver(self, monkeypatch, name):
        """One policy for both solver values: a CH Newton solve that
        reports ``converged=False`` ends the job as ``failed``."""
        import repro.chns.ch_solver as ch_solver

        newton_solve = ch_solver.newton_solve
        monkeypatch.setattr(
            ch_solver, "newton_solve",
            lambda *a, **k: dataclasses.replace(
                newton_solve(*a, **k), converged=False),
        )
        res = run_scenario(build(name, quick=True))
        assert res.status == "failed" and res.steps_done == 0
        assert "CH Newton failed to converge at step 0" in res.error
        assert res.newton_iterations > 0

    def test_on_step_sees_live_state(self):
        seen = []
        cfg = build("drop_2d", quick=True)
        cfg.outputs.diagnostics_every = 1
        run_scenario(cfg, on_step=lambda s: seen.append(
            (s.step, float(s.phi.min()), float(s.phi.max()))))
        assert [s[0] for s in seen] == list(range(1, cfg.time.n_steps + 1))
        assert all(-1.5 < lo <= hi < 1.5 for _, lo, hi in seen)

    def test_on_step_gets_the_stepper_without_flow_too(self):
        seen = []
        cfg = build("spinodal_2d", quick=True)
        run_scenario(cfg, on_step=seen.append)
        assert len(seen) == cfg.time.n_steps
        for state in seen:
            ts = state.stepper
            assert ts.mesh is state.mesh and ts.step_count >= state.step
            assert state.vel is None and state.p is None
            assert ts.vel is None and ts.p is None
            assert ts.diagnostics().n_elems == state.mesh.n_elems

    def test_ch_only_job_records_the_step_span(self):
        cfg = build("coalescence_2d", quick=True)
        cfg.outputs.obs = True
        res = run_scenario(cfg)
        assert res.status == "succeeded"
        spans = {s["path"]: s["count"] for s in res.obs_summary["spans"]}
        assert spans["chns.step"] == spans["chns.step/chns.ch"] == cfg.time.n_steps
        assert not any(p.startswith("chns.step/chns.ns") for p in spans)
        counters = res.obs_summary["counters"]
        assert counters["chns.steps"]["total"] == cfg.time.n_steps

    @pytest.mark.parametrize("name", ["coalescence_2d", "rising_bubble_2d"])
    def test_line_search_trials_are_what_the_tracer_counts(self, name):
        cfg = build(name, quick=True)
        cfg.outputs.obs = True
        res = run_scenario(cfg)
        assert res.status == "succeeded"
        counters = res.obs_summary["counters"]
        assert (res.line_search_trials
                == counters["newton.line_search_trials"]["total"]
                >= res.newton_iterations > 0)

    def test_result_roundtrips_through_dict(self):
        res = run_scenario(build("drop_2d", quick=True))
        assert JobResult.from_dict(res.to_dict()) == res
        old = res.to_dict()  # a store written before the CH counts existed
        assert old.pop("ch_linear") > 0 and old.pop("ch_factorizations") > 0
        assert old.pop("line_search_trials") > 0
        loaded = JobResult.from_dict(old)
        assert loaded.ch_factorizations == loaded.line_search_trials == 0


def _ch_only_by_hand(cfg):
    """The CH-only evolution written out: ``CHSolver.solve`` with no
    velocity, a new solver after each ``remesh``.  The oracle for the
    stepper built without flow."""
    prm, phi0, dom = cfg.build_params(), cfg.build_ic(), cfg.domain
    mesh = mesh_from_field(phi0, dom.dim, max_level=dom.max_level,
                           min_level=dom.min_level, threshold=dom.threshold)
    solver = CHSolver(mesh, prm)
    phi = mesh.interpolate(phi0)
    mu = solver.initial_mu(phi)
    every = cfg.refinement.remesh_every
    for step in range(cfg.time.n_steps):
        if every and step > 0 and step % every == 0:
            mesh, moved, _ = remesh(mesh, {"phi": phi, "mu": mu},
                                    cfg.refinement.build())
            phi, mu = moved["phi"], moved["mu"]
            solver = CHSolver(mesh, prm)
        res = solver.solve(phi, mu, None, cfg.time.dt)
        phi, mu = res.phi, res.mu
        yield mesh.n_elems, phi, mu


class TestOnePath:
    @pytest.mark.parametrize("name, quick", [
        ("spinodal_2d", True), ("drop_3d", True), ("coalescence_2d", False),
    ])
    def test_ch_only_job_equals_the_hand_written_loop(self, name, quick):
        """Bitwise, every step, across the remeshes of full
        ``coalescence_2d`` (steps 3, 6, 9)."""
        cfg = build(name, quick=quick)
        assert cfg.solver == "ch" and cfg.control.checkpoint_every == 0
        seen = []
        res = run_scenario(cfg, on_step=lambda s: seen.append(
            (s.mesh.n_elems, s.phi.copy(), s.mu.copy())))
        assert res.status == "succeeded"
        oracle = list(_ch_only_by_hand(cfg))
        assert len(seen) == len(oracle) == cfg.time.n_steps
        for (n, phi, mu), (n_ref, phi_ref, mu_ref) in zip(seen, oracle):
            assert n == n_ref
            assert np.array_equal(phi, phi_ref) and np.array_equal(mu, mu_ref)
        if name == "coalescence_2d":
            assert cfg.refinement.remesh_every == 3
            assert len({n for n, _, _ in seen}) > 1  # the mesh did change


class TestInterruptRestart:
    """Satellite: interrupt a tiny rising-bubble mid-run, restart from its
    checkpoint, and demand a bit-identical final state vs an uninterrupted
    run on the serial backend."""

    def _config(self, tmp_path=None):
        cfg = build("rising_bubble_2d", quick=True)
        cfg.time.n_steps = 4
        cfg.control.checkpoint_every = 1
        cfg.control.backend = "serial"
        return cfg

    COUNTS = ("newton_iterations", "line_search_trials", "krylov_iterations",
              "ch_linear", "ch_factorizations", "vu_factorizations",
              "krylov_unconverged", "n_elems_final", "diagnostics")

    def _straight_and_resumed(self, cfg, tmp_path, interrupt_after):
        """An uninterrupted run *without* a workdir against one cut at
        ``interrupt_after`` and resumed: every field bit-identical, every
        work count of the job record equal, the stepper clock the same at
        every common step.  Returns the straight result."""
        final, clock = {}, {}

        def capture(tag):
            def cb(state):
                clock.setdefault(tag, {})[state.step] = state.stepper.t
                if state.step == cfg.time.n_steps:
                    final[tag] = {
                        k: v.copy()
                        for k, v in (
                            ("phi", state.phi), ("mu", state.mu),
                            ("vel", state.vel), ("p", state.p),
                            ("vel_old", getattr(state.stepper, "vel_old", None)),
                        ) if v is not None
                    }
            return cb

        straight = run_scenario(cfg, on_step=capture("straight"))
        assert straight.status == "succeeded"

        wd = str(tmp_path / "wd")
        cut = run_scenario(cfg, workdir=wd, on_step=capture("cut"),
                           interrupt_after_step=interrupt_after)
        assert cut.status == "interrupted"
        assert cut.steps_done == interrupt_after
        assert "cut" not in final  # never reached the last step

        resumed = run_scenario(cfg, workdir=wd, on_step=capture("resumed"))
        assert resumed.status == "succeeded"
        assert resumed.resumed_from_step == interrupt_after
        assert resumed.steps_done == cfg.time.n_steps

        a, b = final["straight"], final["resumed"]
        assert a.keys() == b.keys() and "phi" in a
        for key in a:
            assert np.array_equal(a[key], b[key]), (
                f"{key} not bit-identical after resume"
            )
        for name in self.COUNTS:
            assert getattr(resumed, name) == getattr(straight, name), name
        assert cfg.time.n_steps in clock["resumed"]
        for step, t in clock["resumed"].items():  # k * dt vs dt + ... + dt
            assert t == pytest.approx(clock["straight"][step], rel=1e-12)
        return straight

    def test_bit_identical_resume(self, tmp_path):
        straight = self._straight_and_resumed(self._config(), tmp_path, 2)
        # a checkpoint step is a factor boundary: one factorization a step,
        # and every VU solve is the first block of its factors' lifetime
        assert straight.ch_factorizations == straight.n_steps
        assert straight.vu_factorizations == 0
        assert straight.ch_linear > 0 and straight.krylov_iterations > 0
        # the resumed record counts the trials before the cut too (COUNTS)
        assert straight.line_search_trials >= straight.newton_iterations > 0

    @pytest.mark.parametrize("name", ["rising_bubble_2d", "spinodal_2d"])
    def test_factors_cross_the_steps_between_checkpoints(self, tmp_path, name):
        """``checkpoint_every = 2``: factors are dropped at steps 2, 4, 6
        whether or not a file is written, and carried across the steps in
        between - on the coupled stepper and on the CH-only path.  VU
        factors at the second block after each drop."""
        cfg = build(name, quick=True)
        cfg.time.n_steps = 6
        cfg.control.checkpoint_every = 2
        cfg.control.backend = "serial"
        straight = self._straight_and_resumed(cfg, tmp_path, 4)
        assert 3 <= straight.ch_factorizations < cfg.time.n_steps
        flow = cfg.solver == "chns"
        assert straight.vu_factorizations == (3 if flow else 0)

    def test_checkpoint_without_counts_still_loads(self, tmp_path):
        """A checkpoint written before the counts were carried resumes with
        zeros: the record then counts the steps after the resume only."""
        from repro.amr.checkpoint import load_checkpoint_meta, save_checkpoint

        cfg = self._config()
        wd = tmp_path / "wd"
        run_scenario(cfg, workdir=str(wd), interrupt_after_step=2)
        path = str(wd / "checkpoint.npz")
        tree, fields, nprocs, meta = load_checkpoint_meta(path)
        assert meta.pop("counts")["newton"] > 0
        save_checkpoint(path, tree, fields, nprocs=nprocs, meta=meta)
        resumed = run_scenario(cfg, workdir=str(wd))
        assert resumed.status == "succeeded" and resumed.resumed_from_step == 2
        assert 0 < resumed.newton_iterations < run_scenario(cfg).newton_iterations

    def test_ch_only_checkpoint_of_the_two_path_runner_resumes(self, tmp_path):
        """Before the runner drove one stepper a CH-only checkpoint held
        ``phi`` / ``mu`` and four counts; it resumes bit-identically."""
        from repro.amr.checkpoint import load_checkpoint_meta, save_checkpoint

        cfg = build("coalescence_2d", quick=False)
        cfg.control.checkpoint_every = 2
        final = {}

        def keep(tag):
            def cb(state):
                final[tag] = (state.step, state.phi.copy(), state.mu.copy())
            return cb

        straight = run_scenario(cfg, on_step=keep("straight"))
        wd = tmp_path / "wd"
        run_scenario(cfg, workdir=str(wd), interrupt_after_step=4)
        path = str(wd / "checkpoint.npz")
        tree, fields, nprocs, meta = load_checkpoint_meta(path)
        assert sorted(fields) == ["mu", "phi"]
        meta["counts"] = {k: meta["counts"][k] for k in (
            "newton", "krylov", "ch_linear", "ch_factorizations")}
        save_checkpoint(path, tree, fields, nprocs=nprocs, meta=meta)
        resumed = run_scenario(cfg, workdir=str(wd), on_step=keep("resumed"))
        assert resumed.status == "succeeded" and resumed.resumed_from_step == 4
        assert final["resumed"][0] == final["straight"][0] == cfg.time.n_steps
        for a, b in zip(final["resumed"][1:], final["straight"][1:]):
            assert np.array_equal(a, b)
        for name in self.COUNTS:
            if name != "line_search_trials":
                assert getattr(resumed, name) == getattr(straight, name), name
        # not in a checkpoint that old: loads as 0, counted from the resume on
        assert 0 < resumed.line_search_trials < straight.line_search_trials

    def test_checkpoint_refuses_foreign_config(self, tmp_path):
        wd = str(tmp_path / "wd")
        cfg = self._config()
        run_scenario(cfg, workdir=wd, interrupt_after_step=1)

        other = self._config()
        other.physics["Re"] = 123.0
        assert config_digest(other) != config_digest(cfg)
        res = run_scenario(other, workdir=wd)
        assert res.status == "failed"
        assert "digest" in res.error


@pytest.mark.slow
def test_refresh_rule_end_to_end(monkeypatch):
    """40 quick ``spinodal_2d`` steps: the ``F``/iteration sequence is a
    function of the config alone, the amortised rule refreshes at least
    once, and in its own units the run costs no more than one that drops
    its factors every step (the per-call lifetime, ``checkpoint_every=1``)."""
    import repro.chns.ch_solver as ch_solver
    from repro.la.newton import FACTOR_COST

    solves = []
    newton_solve = ch_solver.newton_solve

    def recording(*args, **kwargs):
        res = newton_solve(*args, **kwargs)
        solves.append((res.factorizations, res.linear_iterations,
                       res.iterations, res.fallbacks))
        return res

    monkeypatch.setattr(ch_solver, "newton_solve", recording)

    def run(checkpoint_every):
        cfg = build("spinodal_2d", quick=True)
        cfg.time.n_steps = 40
        cfg.control.checkpoint_every = checkpoint_every
        del solves[:]
        res = run_scenario(cfg)
        assert res.status == "succeeded"
        assert res.ch_factorizations == sum(s[0] for s in solves)
        assert res.ch_linear == sum(s[1] for s in solves)
        return res, list(solves)

    carried, sequence = run(0)
    again, sequence_again = run(0)
    per_call, per_call_sequence = run(1)
    assert sequence == sequence_again and len(sequence) == 40
    assert 2 <= carried.ch_factorizations < 40 // 4
    assert [s[0] for s in per_call_sequence] == [1] * 40
    assert not any(s[3] for s in sequence)
    assert carried.newton_iterations == per_call.newton_iterations

    def cost(res):
        return FACTOR_COST * res.ch_factorizations + res.ch_linear

    assert cost(carried) <= cost(per_call)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["drop_2d", "spinodal_2d"])
def test_full_profile_runs_300_steps(name):
    """Both failed before the CH Jacobian had its mobility block:
    ``spinodal_2d`` at step 228, where ``phi_max`` reaches 1 and the
    mobility's derivative grows without bound, ``drop_2d`` at step 3."""
    cfg = build(name, quick=False)
    cfg.time.n_steps = 300
    res = run_scenario(cfg)
    assert res.status == "succeeded", res.error
    assert res.steps_done == 300


@pytest.mark.slow
class TestAllQuickVariants:
    """Every registered variant (3D included) runs to success serially —
    the same sweep the CI scenario-smoke job drives through the CLI."""

    from repro.scenarios import variants as _variants

    @pytest.mark.parametrize("name", _variants())
    def test_quick_variant_succeeds(self, name):
        cfg = build(name, quick=True)
        cfg.control.backend = "serial"
        res = run_scenario(cfg)
        assert res.status == "succeeded", res.error
