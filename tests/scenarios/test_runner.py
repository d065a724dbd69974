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

from ..chns.test_chns import useless_flow_factors
from ..la.test_solver_table import patch_table


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


def newton_never_converges(monkeypatch):
    """Every CH Newton solve runs as usual and reports ``converged=False``."""
    import repro.chns.ch_solver as ch_solver

    newton_solve = ch_solver.newton_solve
    monkeypatch.setattr(
        ch_solver, "newton_solve",
        lambda *a, **k: dataclasses.replace(
            newton_solve(*a, **k), converged=False),
    )


def _jet2d_amr_levels(cfg):
    """Full ``jet_2d`` at the ``jet2d_amr`` benchmark's remesh levels
    (interface 5, feature 6, a remesh every step): its cycles coarsen the
    level-6 start and change the tree most steps."""
    cfg.refinement.remesh["interface_level"] = 5
    cfg.refinement.remesh["feature_level"] = 6
    cfg.refinement.remesh_every = 1
    return cfg


def _run_with_factoring_blocks(cfg):
    """Run ``cfg`` and count, from its cycle record (the mesh of every
    step), the meshes that have a block on which a flow block may factor:
    not the mesh's first, and not followed by a remesh.  Returns the result
    and that count."""
    meshes = []
    res = run_scenario(cfg, on_step=lambda ts: meshes.append(ts.mesh))
    assert res.status == "succeeded"
    every = cfg.refinement.remesh_every
    factoring = set()
    for step, mesh in enumerate(meshes):
        first = step == 0 or meshes[step - 1] is not mesh
        if not first and (step + 1) % every != 0:
            factoring.add(id(mesh))
    assert res.counts["remesh_cycles"] == (len(meshes) - 1) // every
    return res, len(factoring)


#: The counts a record held before ``JobResult.counts``, one flat field
#: each, under the field names of that store.
FLAT_FIELDS = {
    "newton": "newton_iterations", "line_search_trials": "line_search_trials",
    "krylov": "krylov_iterations", "ch_linear": "ch_linear",
    "ch_factorizations": "ch_factorizations",
    "ns_factorizations": "ns_factorizations",
    "pp_factorizations": "pp_factorizations",
    "vu_factorizations": "vu_factorizations",
    "krylov_unconverged": "krylov_unconverged",
    "remesh_cycles": "remesh_cycles", "remesh_unchanged": "remesh_unchanged",
}


def _flat_record(res):
    """``res`` as a store written before ``JobResult.counts`` held it: the
    counts of that store as flat fields, the later ones absent."""
    d = res.to_dict()
    counts = d.pop("counts")
    d.update({flat: counts[name] for name, flat in FLAT_FIELDS.items()})
    return d


class TestRun:
    def test_ch_quick_succeeds_with_diagnostics(self):
        res = run_scenario(build("coalescence_2d", quick=True))
        assert res.status == "succeeded"
        assert res.steps_done == res.n_steps > 0
        assert res.counts["newton"] > 0
        assert res.n_elems_final > 0
        assert np.isfinite(res.diagnostics["energy"])
        assert "div_l2" not in res.diagnostics  # no velocity
        assert res.error is None

    def test_chns_quick_succeeds(self):
        res = run_scenario(build("rising_bubble_2d", quick=True))
        assert res.status == "succeeded"
        assert res.counts["krylov"] > 0  # velocity/pressure solves ran
        assert 0.0 <= res.diagnostics["div_l2"] < np.inf
        assert res.counts["krylov_unconverged"] == 0

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
        assert len(calls) == dim and res.counts["vu_factorizations"] == 1
        assert res.counts["krylov_unconverged"] == dim
        old = _flat_record(res)  # a store written before the counts existed
        assert old.pop("krylov_unconverged") == dim
        assert old.pop("vu_factorizations") == 1
        loaded = JobResult.from_dict(old).counts
        assert loaded.get("krylov_unconverged", 0) == 0
        assert loaded.get("vu_factorizations", 0) == 0

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
        assert len(splu) == res.counts["vu_factorizations"] == 1
        assert len(calls) == res.counts["krylov_unconverged"] == 3 * dim

    def test_mesh_that_lives_one_block_never_factors(self, monkeypatch):
        """Remeshing every step, and every cycle changes the tree: each mesh
        runs one flow block, so no flow block factors and every flow solve
        is the one of a mesh above the size cap, bit for bit; the same job
        on one mesh factors once.  (Quick ``jet_2d`` keeps its first mesh
        through such cycles; full ``jet_2d`` at the ``jet2d_amr``
        benchmark's levels changes it in both.)"""
        splu = _count_vu_splu(monkeypatch)
        cfg = _jet2d_amr_levels(build("jet_2d", quick=False))
        cfg.time.n_steps = 3

        def run():
            steps = []
            res = run_scenario(cfg, on_step=lambda ts: steps.append(
                (ts.mesh, ts.vel.copy(), ts.p.copy())))
            assert res.status == "succeeded"
            return res, steps

        res, steps = run()
        c = res.counts
        assert c["remesh_cycles"] == 2 and c["remesh_unchanged"] == 0
        assert len({id(m) for m, _, _ in steps}) == 3
        assert splu == [] and c["vu_factorizations"] == 0
        assert c["ns_factorizations"] == c["pp_factorizations"] == 0
        patch_table(monkeypatch, ns={"lu": 0}, pp={"lu": 0}, vu={"lu": 0})
        capped, capped_steps = run()
        assert capped.counts["krylov"] == res.counts["krylov"]
        for (_, vel, p), (_, vel_c, p_c) in zip(steps, capped_steps):
            assert np.array_equal(vel, vel_c) and np.array_equal(p, p_c)
        monkeypatch.undo()  # the cap and the splu recorder
        splu = _count_vu_splu(monkeypatch)
        cfg.refinement.remesh_every = 0
        res = run_scenario(cfg)
        assert res.status == "succeeded"
        c = res.counts
        assert len(splu) == c["vu_factorizations"] == 1
        assert c["ns_factorizations"] == c["pp_factorizations"] == 1

    def test_flow_blocks_factor_only_between_first_and_last_block(self):
        """A flow block factors on a block that is neither its mesh's first
        nor one a remesh follows, once per mesh (no refresh this short).
        Full ``jet_2d`` remeshes every 2 steps; its cycle at step 2 keeps
        the mesh, which so lives four blocks and factors at step 2, while
        the mesh of step 4 lives two.  At the ``jet2d_amr`` levels with a
        remesh every 3 steps, the one cycle changes the tree and each mesh
        factors once, at its middle block."""
        cfg = build("jet_2d", quick=False)
        res, expected = _run_with_factoring_blocks(cfg)
        c = res.counts
        assert res.steps_done >= 4 and c["remesh_unchanged"] == 1
        assert expected == 1
        assert c["ns_factorizations"] == c["pp_factorizations"] == expected
        assert c["vu_factorizations"] == expected
        cfg = _jet2d_amr_levels(build("jet_2d", quick=False))
        cfg.time.n_steps = 6
        cfg.refinement.remesh_every = 3
        res, expected = _run_with_factoring_blocks(cfg)
        c = res.counts
        assert c["remesh_cycles"] == 1 and c["remesh_unchanged"] == 0
        assert expected == 2
        assert c["ns_factorizations"] == c["pp_factorizations"] == expected
        assert c["vu_factorizations"] == expected
        old = _flat_record(res)  # a store written before the counts existed
        assert old.pop("ns_factorizations") == old.pop("pp_factorizations")
        loaded = JobResult.from_dict(old).counts
        assert loaded.get("ns_factorizations", 0) == 0
        assert loaded.get("pp_factorizations", 0) == 0

    def test_remesh_cycles_reach_the_record(self):
        """Full ``jet_2d``: two cycles, the first keeps the mesh.  The record
        counts the cycles the ``chns.remesh`` span times; a store written
        before the remesh counts existed loads 0."""
        cfg = build("jet_2d", quick=False)
        cfg.outputs.obs = True
        res = run_scenario(cfg)
        assert res.status == "succeeded"
        c = res.counts
        assert (c["remesh_cycles"], c["remesh_unchanged"]) == (2, 1)
        spans = {s["path"]: s["count"] for s in res.obs_summary["spans"]}
        assert spans["chns.step/chns.remesh"] == c["remesh_cycles"]
        old = _flat_record(res)
        assert old.pop("remesh_cycles") == 2
        assert old.pop("remesh_unchanged") == 1
        loaded = JobResult.from_dict(old).counts
        assert loaded.get("remesh_cycles", 0) == 0
        assert loaded.get("remesh_unchanged", 0) == 0

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
        assert res.counts["newton"] > 0 and res.counts["ch_linear"] > 0
        assert res.counts["ch_factorizations"] > 0 and res.n_elems_final > 0
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
        for name in ("newton", "krylov", "ch_linear", "ch_factorizations"):
            assert type(res.counts[name]) is int and res.counts[name] >= 0
        if how == "timeout":  # stopped before any solve
            assert res.counts["newton"] == 0
        if how == "interrupted":
            assert res.counts["newton"] > 0 and res.counts["krylov"] > 0
            assert "vel_max" in res.diagnostics
        assert JobResult.from_dict(json.loads(json.dumps(res.to_dict()))) == res

    @pytest.mark.parametrize("name", ["drop_2d", "rising_bubble_2d"])
    def test_nonconverged_newton_fails_either_solver(self, monkeypatch, name):
        """One policy for both solver values: a CH Newton solve that
        reports ``converged=False`` ends the job as ``failed``."""
        newton_never_converges(monkeypatch)
        res = run_scenario(build(name, quick=True))
        assert res.status == "failed" and res.steps_done == 0
        assert "CH Newton failed to converge at step 0" in res.error
        assert res.counts["newton"] > 0

    def test_rejected_step_is_not_done(self, monkeypatch):
        """A step whose Newton solve converged to a non-finite state fails
        the job and is not counted in ``steps_done``."""
        solve = CHSolver.solve

        def nan_phi(self, *args, **kwargs):
            res = solve(self, *args, **kwargs)
            return dataclasses.replace(res, phi=np.full_like(res.phi, np.nan))

        monkeypatch.setattr(CHSolver, "solve", nan_phi)
        res = run_scenario(build("drop_2d", quick=True))
        assert res.status == "failed"
        assert "non-finite state after step 0" in res.error
        assert res.steps_done == 0

    def test_on_step_sees_live_state(self):
        seen = []
        cfg = build("drop_2d", quick=True)
        cfg.outputs.diagnostics_every = 1
        run_scenario(cfg, on_step=lambda ts: seen.append(
            (ts.step_count, ts.t, float(ts.phi.min()), float(ts.phi.max()))))
        assert [s[0] for s in seen] == list(range(1, cfg.time.n_steps + 1))
        t = 0.0
        for _, t_seen, lo, hi in seen:
            t += cfg.time.dt
            assert t_seen == t and -1.5 < lo <= hi < 1.5

    def test_on_step_gets_the_stepper_without_flow_too(self):
        seen = []
        cfg = build("spinodal_2d", quick=True)
        run_scenario(cfg, on_step=lambda ts: seen.append(
            (ts.step_count, ts.vel, ts.p, ts.diagnostics().n_elems,
             ts.mesh.n_elems)))
        assert [s[0] for s in seen] == list(range(1, cfg.time.n_steps + 1))
        for _, vel, p, n_diag, n_mesh in seen:
            assert vel is None and p is None and n_diag == n_mesh

    def test_ch_only_job_records_the_step_span(self):
        cfg = build("coalescence_2d", quick=True)
        cfg.outputs.obs = True
        res = run_scenario(cfg)
        assert res.status == "succeeded"
        spans = {s["path"]: s["count"] for s in res.obs_summary["spans"]}
        assert spans["chns.step"] == spans["chns.step/chns.ch"] == cfg.time.n_steps
        assert not any(p.startswith("chns.step/chns.ns") for p in spans)

    @pytest.mark.parametrize("name", ["coalescence_2d", "rising_bubble_2d"])
    def test_line_search_trials_are_what_the_tracer_counts(self, name):
        cfg = build(name, quick=True)
        cfg.outputs.obs = True
        res = run_scenario(cfg)
        assert res.status == "succeeded"
        # each step's Newton solve evaluates the residual once at its start
        # and once per line-search trial
        spans = {s["path"]: s["count"] for s in res.obs_summary["spans"]}
        residuals = spans["chns.step/chns.ch/newton/newton.residual"]
        assert (res.counts["line_search_trials"]
                == residuals - cfg.time.n_steps
                >= res.counts["newton"] > 0)

    def test_result_roundtrips_through_dict(self):
        res = run_scenario(build("drop_2d", quick=True))
        assert JobResult.from_dict(res.to_dict()) == res
        old = _flat_record(res)  # a store before the CH counts existed
        assert old.pop("ch_linear") > 0 and old.pop("ch_factorizations") > 0
        assert old.pop("line_search_trials") > 0
        loaded = JobResult.from_dict(old).counts
        assert loaded.get("ch_factorizations", 0) == 0
        assert loaded.get("line_search_trials", 0) == 0

    def test_flat_record_loads_into_counts(self):
        """A record as the store held it before ``JobResult.counts``: one
        flat field per count, ``newton`` and ``krylov`` under their old
        names.  It loads with the same values in ``counts``, and the two
        names the benchmark harness reads still read them."""
        old = {
            "job_id": "jet_2d", "name": "jet_2d", "family": "jet",
            "status": "succeeded", "steps_done": 6, "n_steps": 6,
            "wall_s": 1.25, "newton_iterations": 13, "line_search_trials": 14,
            "krylov_iterations": 502, "ch_linear": 31, "ch_factorizations": 2,
            "ns_factorizations": 1, "pp_factorizations": 1,
            "vu_factorizations": 1, "krylov_unconverged": 0,
            "remesh_cycles": 2, "remesh_unchanged": 1, "n_elems_final": 412,
            "diagnostics": {"mass": 0.5}, "error": None,
            "resumed_from_step": None, "seed": 0, "backend": "serial",
            "obs_summary": None,
        }
        res = JobResult.from_dict(json.loads(json.dumps(old)))
        assert res.counts == {
            "newton": 13, "line_search_trials": 14, "krylov": 502,
            "ch_linear": 31, "ch_factorizations": 2, "ns_factorizations": 1,
            "pp_factorizations": 1, "vu_factorizations": 1,
            "krylov_unconverged": 0, "remesh_cycles": 2,
            "remesh_unchanged": 1,
        }
        assert (res.newton_iterations, res.krylov_iterations) == (13, 502)
        assert (res.job_id, res.status, res.n_elems_final) == (
            "jet_2d", "succeeded", 412)
        assert JobResult.from_dict(res.to_dict()) == res


def _ch_only_by_hand(cfg):
    """The CH-only evolution written out: ``CHSolver.solve`` with no
    velocity, a new solver after each ``remesh`` that returns a new mesh.
    The oracle for the stepper built without flow."""
    prm, phi0, dom = cfg.build_params(), cfg.build_ic(), cfg.domain
    mesh = mesh_from_field(phi0, dom.dim, max_level=dom.max_level,
                           min_level=dom.min_level, threshold=dom.threshold)
    solver = CHSolver(mesh, prm)
    phi = mesh.interpolate(phi0)
    mu = solver.initial_mu(phi)
    every = cfg.refinement.remesh_every
    for step in range(cfg.time.n_steps):
        if every and step > 0 and step % every == 0:
            new_mesh, moved, _ = remesh(mesh, {"phi": phi, "mu": mu},
                                        cfg.refinement.build())
            phi, mu = moved["phi"], moved["mu"]
            if new_mesh is not mesh:
                mesh, solver = new_mesh, CHSolver(new_mesh, prm)
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
        res = run_scenario(cfg, on_step=lambda ts: seen.append(
            (ts.mesh.n_elems, ts.phi.copy(), ts.mu.copy())))
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

    def _straight_and_resumed(self, cfg, tmp_path, interrupt_after):
        """An uninterrupted run *without* a workdir against one cut at
        ``interrupt_after`` and resumed: every field bit-identical at every
        step after the cut, every work count of the job record equal, the
        stepper clock equal (``==``) at every common step.  Returns the
        straight result."""
        fields, clock = {}, {}

        def capture(tag):
            def cb(ts):
                clock.setdefault(tag, {})[ts.step_count] = ts.t
                fields.setdefault(tag, {})[ts.step_count] = {
                    k: v.copy() for k, v in ts.fields().items()}
            return cb

        straight = run_scenario(cfg, on_step=capture("straight"))
        assert straight.status == "succeeded"

        wd = str(tmp_path / "wd")
        cut = run_scenario(cfg, workdir=wd, on_step=capture("cut"),
                           interrupt_after_step=interrupt_after)
        assert cut.status == "interrupted"
        assert cut.steps_done == interrupt_after
        assert max(clock["cut"]) == interrupt_after  # never got further

        resumed = run_scenario(cfg, workdir=wd, on_step=capture("resumed"))
        assert resumed.status == "succeeded"
        assert resumed.resumed_from_step == interrupt_after
        assert resumed.steps_done == cfg.time.n_steps

        assert sorted(fields["resumed"]) == list(
            range(interrupt_after + 1, cfg.time.n_steps + 1))
        for step, b in fields["resumed"].items():
            a = fields["straight"][step]
            assert a.keys() == b.keys() and "phi" in a
            for key in a:
                assert np.array_equal(a[key], b[key]), (
                    f"{key} not bit-identical at step {step} after resume"
                )
        assert resumed.counts == straight.counts
        assert resumed.n_elems_final == straight.n_elems_final
        assert resumed.diagnostics == straight.diagnostics
        for tag in ("cut", "resumed"):
            for step, t in clock[tag].items():
                assert t == clock["straight"][step], (tag, step)
        return straight

    def test_bit_identical_resume(self, tmp_path):
        straight = self._straight_and_resumed(self._config(), tmp_path, 2)
        # a checkpoint step is a factor boundary: one factorization a step,
        # and every VU solve is the first block of its factors' lifetime
        c = straight.counts
        assert c["ch_factorizations"] == straight.n_steps
        assert c["vu_factorizations"] == 0
        assert c["ns_factorizations"] == c["pp_factorizations"] == 0
        assert c["ch_linear"] > 0 and c["krylov"] > 0
        # the resumed record counts the trials before the cut too (counts)
        assert c["line_search_trials"] >= c["newton"] > 0

    def test_late_cut_resumes_the_same_clock(self, tmp_path):
        """Cut at step 10 of 12: ``t`` is a sum of ``dt``s, which
        ``10 * dt`` is not (0.011 against 0.011000000000000003 at step 11);
        the resumed stepper continues from the checkpoint's ``t``."""
        cfg = self._config()
        cfg.time.n_steps = 12
        self._straight_and_resumed(cfg, tmp_path, 10)

    def test_checkpoint_without_t_resumes_at_step_times_dt(self, tmp_path):
        """A checkpoint written before ``meta`` carried ``t`` resumes with
        ``t = step * dt``: cut at step 10, that is not the sum of ten
        ``dt``s the checkpoint now holds."""
        from repro.amr.checkpoint import load_checkpoint_meta, save_checkpoint

        cfg = self._config()
        cfg.time.n_steps = 11
        dt, wd = cfg.time.dt, tmp_path / "wd"
        run_scenario(cfg, workdir=str(wd), interrupt_after_step=10)
        path = str(wd / "checkpoint.npz")
        tree, fields, nprocs, meta = load_checkpoint_meta(path)
        assert meta.pop("t") == sum([dt] * 10) != 10 * dt
        save_checkpoint(path, tree, fields, nprocs=nprocs, meta=meta)
        clock = {}
        resumed = run_scenario(cfg, workdir=str(wd), on_step=lambda ts:
                               clock.setdefault(ts.step_count, ts.t))
        assert resumed.status == "succeeded"
        assert resumed.resumed_from_step == 10
        assert clock == {11: 10 * dt + dt}

    @pytest.mark.parametrize("name", ["rising_bubble_2d", "spinodal_2d"])
    def test_factors_cross_the_steps_between_checkpoints(self, tmp_path, name):
        """``checkpoint_every = 2``: factors are dropped at steps 2, 4, 6
        whether or not a file is written, and carried across the steps in
        between - on the coupled stepper and on the CH-only path.  NS, PP
        and VU factor at the second block after each drop."""
        cfg = build(name, quick=True)
        cfg.time.n_steps = 6
        cfg.control.checkpoint_every = 2
        cfg.control.backend = "serial"
        straight = self._straight_and_resumed(cfg, tmp_path, 4)
        assert 3 <= straight.counts["ch_factorizations"] < cfg.time.n_steps
        flow = cfg.solver == "chns"
        assert straight.counts["vu_factorizations"] == (3 if flow else 0)
        assert straight.counts["ns_factorizations"] == (3 if flow else 0)
        assert straight.counts["pp_factorizations"] == (3 if flow else 0)

    def test_resume_across_a_cycle_that_keeps_the_mesh(self, tmp_path):
        """Full ``jet_2d`` for 12 steps, a remesh every 2 and a checkpoint
        every 3: resumed at step 6, the run remeshes at steps 6 (new tree),
        8 (the same tree: mesh, plans and the CH factors of steps 6-7 carry
        over) and 10.  Whether a cycle keeps the mesh is a function of the
        fields, so the resumed run takes the same cycles and ends bit for
        bit where the straight one does."""
        cfg = build("jet_2d", quick=False)
        cfg.time.n_steps = 12
        cfg.control.checkpoint_every = 3
        cfg.control.backend = "serial"
        meshes = []
        run_scenario(cfg, on_step=lambda ts: meshes.append(ts.mesh))
        kept = [step for step in range(6, cfg.time.n_steps)
                if step % cfg.refinement.remesh_every == 0
                and meshes[step] is meshes[step - 1]]
        assert kept == [8]  # an unchanged cycle after the resume point
        cut = run_scenario(cfg, interrupt_after_step=6)
        straight = self._straight_and_resumed(cfg, tmp_path, 6)
        assert straight.counts["remesh_cycles"] == 5
        assert (straight.counts["remesh_unchanged"]
                == cut.counts["remesh_unchanged"] + 1)

    def test_resumed_job_that_fails_keeps_its_done_steps(self, tmp_path,
                                                          monkeypatch):
        """Resumed at step 2, a job whose first step fails has done the two
        steps of its checkpoint."""
        cfg = self._config()
        wd = str(tmp_path / "wd")
        run_scenario(cfg, workdir=wd, interrupt_after_step=2)
        newton_never_converges(monkeypatch)
        res = run_scenario(cfg, workdir=wd)
        assert res.status == "failed" and "at step 2" in res.error
        assert res.steps_done == res.resumed_from_step == 2

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
        straight = run_scenario(cfg)
        assert 0 < resumed.counts["newton"] < straight.counts["newton"]

    def test_checkpoint_without_remesh_counts_loads_zero(self, tmp_path):
        """A checkpoint whose counts predate the remesh counts resumes with
        them at 0: full ``jet_2d`` cut at step 3 then counts only its
        cycle at step 4, the one that changes the tree."""
        from repro.amr.checkpoint import load_checkpoint_meta, save_checkpoint

        cfg = build("jet_2d", quick=False)
        cfg.control.checkpoint_every = 3
        wd = tmp_path / "wd"
        run_scenario(cfg, workdir=str(wd), interrupt_after_step=3)
        path = str(wd / "checkpoint.npz")
        tree, fields, nprocs, meta = load_checkpoint_meta(path)
        assert meta["counts"].pop("remesh_cycles") == 1
        assert meta["counts"].pop("remesh_unchanged") == 1
        save_checkpoint(path, tree, fields, nprocs=nprocs, meta=meta)
        resumed = run_scenario(cfg, workdir=str(wd))
        assert resumed.status == "succeeded" and resumed.resumed_from_step == 3
        c = resumed.counts
        assert (c["remesh_cycles"], c["remesh_unchanged"]) == (1, 0)

    def test_checkpoint_without_fallback_counts_loads_zero(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint whose counts predate the fallback counts resumes
        with them at 0.  NS and PP hold factors that precondition nothing,
        so every factoring block (steps 1, 3, 5 with a checkpoint every 2)
        falls back once per velocity component and once for PP; cut at
        step 4, the resumed record counts only step 5's."""
        from repro.amr.checkpoint import load_checkpoint_meta, save_checkpoint

        useless_flow_factors(monkeypatch)
        cfg = build("rising_bubble_2d", quick=True)
        cfg.time.n_steps = 6
        cfg.control.checkpoint_every = 2
        dim = cfg.domain.dim
        straight = run_scenario(cfg)
        assert straight.status == "succeeded"
        assert straight.counts["ns_fallbacks"] == 3 * dim
        assert straight.counts["pp_fallbacks"] == 3
        wd = tmp_path / "wd"
        run_scenario(cfg, workdir=str(wd), interrupt_after_step=4)
        path = str(wd / "checkpoint.npz")
        tree, fields, nprocs, meta = load_checkpoint_meta(path)
        assert meta["counts"].pop("ns_fallbacks") == 2 * dim
        assert meta["counts"].pop("pp_fallbacks") == 2
        assert meta["counts"].pop("ch_fallbacks") == 0
        save_checkpoint(path, tree, fields, nprocs=nprocs, meta=meta)
        resumed = run_scenario(cfg, workdir=str(wd))
        assert resumed.status == "succeeded" and resumed.resumed_from_step == 4
        c = resumed.counts
        assert (c["ns_fallbacks"], c["pp_fallbacks"], c["ch_fallbacks"]) == (
            dim, 1, 0)
        fallbacks = ("ns_fallbacks", "pp_fallbacks", "ch_fallbacks")
        for name, n in straight.counts.items():
            if name not in fallbacks:
                assert c[name] == n, name

    def test_ch_only_checkpoint_of_the_two_path_runner_resumes(self, tmp_path):
        """Before the runner drove one stepper a CH-only checkpoint held
        ``phi`` / ``mu`` and four counts; it resumes bit-identically."""
        from repro.amr.checkpoint import load_checkpoint_meta, save_checkpoint

        cfg = build("coalescence_2d", quick=False)
        cfg.control.checkpoint_every = 2
        final = {}

        def keep(tag):
            def cb(ts):
                final[tag] = (ts.step_count, ts.phi.copy(), ts.mu.copy())
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
        later = ("line_search_trials", "remesh_cycles", "remesh_unchanged")
        for name, n in straight.counts.items():
            if name not in later:
                assert resumed.counts[name] == n, name
        assert resumed.n_elems_final == straight.n_elems_final
        assert resumed.diagnostics == straight.diagnostics
        # not in a checkpoint that old: loads as 0, counted from the resume on
        c, s = resumed.counts, straight.counts
        assert 0 < c["line_search_trials"] < s["line_search_trials"]
        assert (c["remesh_cycles"], s["remesh_cycles"]) == (2, 3)
        assert c["remesh_unchanged"] == s["remesh_unchanged"] == 0

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
    from repro.la.factors import FACTOR_COST

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
        assert res.counts["ch_factorizations"] == sum(s[0] for s in solves)
        assert res.counts["ch_linear"] == sum(s[1] for s in solves)
        return res, list(solves)

    carried, sequence = run(0)
    again, sequence_again = run(0)
    per_call, per_call_sequence = run(1)
    assert sequence == sequence_again and len(sequence) == 40
    assert 2 <= carried.counts["ch_factorizations"] < 40 // 4
    assert [s[0] for s in per_call_sequence] == [1] * 40
    assert not any(s[3] for s in sequence)
    assert carried.counts["newton"] == per_call.counts["newton"]

    def cost(res):  # in applications of the factors, two per iteration
        c = res.counts
        return FACTOR_COST * c["ch_factorizations"] + 2 * c["ch_linear"]

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
