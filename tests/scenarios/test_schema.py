"""Schema tests: JSON round-trip fidelity and up-front validation."""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.scenarios import build, variants
from repro.scenarios.schema import (
    BC_BUILDERS,
    IC_BUILDERS,
    DomainConfig,
    InitialCondition,
    JobControl,
    RefinementPolicy,
    ScenarioConfig,
    ScenarioError,
    TimeConfig,
)


class TestRoundTrip:
    @pytest.mark.parametrize("name", variants())
    def test_registry_configs_roundtrip_through_json(self, name):
        cfg = build(name, quick=True)
        wire = json.dumps(cfg.to_dict())
        back = ScenarioConfig.from_dict(json.loads(wire))
        # the canonical wire form is the equality contract (tuples in
        # builder params come back as lists; to_dict normalizes both sides)
        assert back.to_dict() == cfg.to_dict()
        assert ScenarioConfig.from_dict(back.to_dict()) == back  # fixed point
        # and the round-tripped config still validates + builds callables
        back.validate()
        assert callable(back.build_ic())

    def test_fr_infinity_survives_json(self):
        cfg = build("drop_2d", quick=True)
        cfg.physics["Fr"] = np.inf
        d = json.loads(json.dumps(cfg.to_dict()))
        assert d["physics"]["Fr"] == "inf"
        back = ScenarioConfig.from_dict(d)
        assert np.isinf(back.build_params().Fr)

    def test_gravity_dir_tuple_restored(self):
        cfg = build("rising_bubble_3d", quick=True)
        back = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        prm = back.build_params()
        assert prm.gravity_dir == (0.0, 0.0, -1.0)


class TestValidation:
    def _base(self, **kw):
        cfg = ScenarioConfig(name="t", family="drop", **kw)
        return cfg

    def test_unknown_top_level_key_rejected(self):
        d = build("drop_2d", quick=True).to_dict()
        d["grabity"] = 1
        with pytest.raises(ScenarioError, match="grabity"):
            ScenarioConfig.from_dict(d)

    def test_unknown_section_key_rejected(self):
        d = build("drop_2d", quick=True).to_dict()
        d["time"]["dtt"] = 0.1
        with pytest.raises(ScenarioError, match="dtt"):
            ScenarioConfig.from_dict(d)

    def test_unknown_physics_key_rejected(self):
        cfg = self._base(physics={"Reynolds": 10.0})
        with pytest.raises(ScenarioError, match="Reynolds"):
            cfg.validate()

    def test_unknown_ic_rejected(self):
        cfg = self._base(ic=InitialCondition(kind="vortex"))
        with pytest.raises(ScenarioError, match="vortex"):
            cfg.validate()

    def test_bad_dim_rejected(self):
        with pytest.raises(ScenarioError, match="dim"):
            self._base(domain=DomainConfig(dim=4)).validate()

    def test_level_ordering_rejected(self):
        with pytest.raises(ScenarioError):
            self._base(
                domain=DomainConfig(dim=2, max_level=3, min_level=5)
            ).validate()

    def test_feature_level_below_max_level_rejected(self):
        cfg = self._base(
            domain=DomainConfig(dim=2, max_level=5, min_level=3),
            refinement=RefinementPolicy(
                remesh_every=1,
                remesh={"coarse_level": 2, "interface_level": 4,
                        "feature_level": 4},
            ),
        )
        with pytest.raises(ScenarioError, match="feature_level"):
            cfg.validate()

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ScenarioError):
            self._base(time=TimeConfig(dt=0.0, n_steps=2)).validate()

    def test_bc_requires_chns(self):
        cfg = self._base(solver="ch", bc="no_slip")
        with pytest.raises(ScenarioError, match="chns"):
            cfg.validate()

    def test_n_blocks_requires_chns(self):
        """Projection blocks without a projection were accepted and
        ignored; every registry variant carries ``n_blocks == 1``."""
        cfg = self._base(solver="ch", time=TimeConfig(n_blocks=2))
        with pytest.raises(ScenarioError, match="n_blocks.*chns"):
            cfg.validate()
        self._base(solver="chns", time=TimeConfig(n_blocks=2)).validate()
        from repro.scenarios import build, variants

        for name in variants():
            for quick in (True, False):
                assert build(name, quick=quick).time.n_blocks == 1

    def test_precond_is_jacobi_or_nothing(self):
        """The key stays (the frozen benchmark specs spell it); the NS
        momentum preconditioner it once selected is the constant Jacobi."""
        self._base(solver="chns", precond="jacobi").validate()
        with pytest.raises(ScenarioError, match="pcd"):
            self._base(solver="chns", precond="pcd").validate()
        with pytest.raises(ScenarioError, match="chns"):
            self._base(solver="ch", precond="jacobi").validate()

    def test_unknown_backend_rejected(self):
        cfg = self._base(control=JobControl(backend="gpu"))
        with pytest.raises(ScenarioError, match="gpu"):
            cfg.validate()


class TestBuilders:
    def test_seed_reaches_seeded_ic(self):
        a = InitialCondition(kind="spinodal", params={"amp": 0.1})
        x = np.random.default_rng(3).uniform(0, 1, (40, 2))
        f0, f1 = a.build(seed=0), a.build(seed=1)
        assert not np.array_equal(f0(x), f1(x))
        assert np.array_equal(f0(x), a.build(seed=0)(x))  # deterministic

    def test_every_registered_ic_evaluates(self):
        minimal = {
            "drop": {"center": [0.5, 0.5], "radius": 0.2, "Cn": 0.05},
            "two_drops": {"c1": [0.4, 0.5], "r1": 0.1, "c2": [0.6, 0.5],
                          "r2": 0.1, "Cn": 0.05},
            "filament": {"y0": 0.5, "half_width": 0.1, "x0": 0.2,
                         "x1": 0.8, "Cn": 0.05},
            "jet_column": {},
            "rising_bubble": {},
            "rayleigh_taylor": {},
            "spinodal": {},
        }
        assert set(minimal) == set(IC_BUILDERS)
        x2 = np.random.default_rng(0).uniform(0, 1, (25, 2))
        for kind, params in minimal.items():
            ic = InitialCondition(kind=kind, params=params)
            phi = ic.build(seed=0)(x2)
            assert phi.shape == (25,) and np.all(np.isfinite(phi))

    def test_every_registered_bc_builds(self):
        for name in BC_BUILDERS:
            cfg = ScenarioConfig(name="t", family="drop", solver="chns",
                                 bc=name)
            assert callable(cfg.build_bc())


class TestRepoBenchmarkContract:
    """``benchmarks/perf`` is frozen between re-baselines: the scenario
    dicts of its workload specs must keep loading and every name its tracer
    wraps must keep resolving, or a simplification here breaks it silently.
    Read-only: nothing under ``benchmarks/perf`` is run or written."""

    PERF = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"

    def test_workload_scenarios_load_and_build(self):
        specs = sorted((self.PERF / "workloads").glob("*.json"))
        assert specs
        for path in specs:
            spec = json.loads(path.read_text())
            dicts = spec.get("scenarios", [])
            if "scenario" in spec:
                dicts = dicts + [spec["scenario"]]
            assert dicts, path.name
            for d in dicts:
                cfg = ScenarioConfig.from_dict(d)
                cfg.build_params()
                cfg.build_bc()
                cfg.refinement.build()

    def test_traced_names_resolve(self):
        spec = importlib.util.spec_from_file_location(
            "perf_trace", self.PERF / "trace.py"
        )
        trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trace)
        for modname, attr, *_ in trace.FUNCTIONS:
            assert callable(getattr(importlib.import_module(modname), attr))
        for modname, clsname, attr, *_ in trace.METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            assert attr in cls.__dict__, (modname, clsname, attr)
