"""Per-iterate operator cache in the CH block: residual + jacobian at the
same Newton iterate must share one mobility-stiffness assembly and one
quad-point phi evaluation, instead of assembling each twice.  The count is
the ``repro.obs`` counter ``ch.mobility_assemblies`` (the phi evaluation is
made in the same cached build)."""

import numpy as np
import pytest

from repro import obs
from repro.chns import ch_solver
from repro.chns.ch_solver import CHSolver
from repro.chns.params import CHNSParams
from repro.la.newton import IterateCache
from repro.mesh.mesh import Mesh
from repro.octree.build import uniform_tree


@pytest.fixture(scope="module")
def mesh():
    return Mesh.from_tree(uniform_tree(2, 3))


@pytest.fixture()
def solver(mesh):
    return CHSolver(mesh, CHNSParams(Cn=0.05, Pe=100.0, Re=10.0))


def drop(mesh):
    x = mesh.dof_xy()
    return np.tanh(
        (0.25 - np.linalg.norm(x - 0.5, axis=1)) / (np.sqrt(2) * 0.05)
    )


def counters():
    return obs.snapshot()["counters"]


class TestIterateCache:
    def test_same_iterate_shares_value(self):
        cache = IterateCache()
        x = np.arange(5.0)
        calls = []
        v1 = cache.get(x, "k", lambda: calls.append(1) or 42)
        v2 = cache.get(x.copy(), "k", lambda: calls.append(1) or 43)
        assert v1 == v2 == 42 and len(calls) == 1

    def test_new_iterate_invalidates(self):
        cache = IterateCache()
        x = np.arange(5.0)
        assert cache.get(x, "k", lambda: 1) == 1
        assert cache.get(x + 1e-16, "k", lambda: 2) == 2  # any change counts
        assert cache.get(x, "other", lambda: 3) == 3  # and clears all keys
        assert cache.get(x, "k", lambda: 4) == 4


class TestCHOperatorSharing:
    def test_one_mobility_assembly_per_iterate(self, mesh, solver):
        """The acceptance counter: residual + jacobian at one iterate =
        exactly one mobility-stiffness assembly, one phi quad evaluation."""
        phi = drop(mesh)
        mu = solver.initial_mu(phi)
        residual, jacobian, _ = solver.operators(phi, mu, None, 1e-3)
        x = np.concatenate([phi, mu])
        with obs.tracing():
            residual(x)
            jacobian(x)
            assert counters()["ch.mobility_assemblies"] == 1

            # A genuinely new iterate assembles again — the cache is
            # per-iterate, not stale across the Newton trajectory.
            x2 = x.copy()
            x2[: mesh.n_dofs] *= 0.9
            residual(x2)
            assert counters()["ch.mobility_assemblies"] == 2

    def test_full_solve_assembles_only_on_residual_iterates(self, mesh, solver):
        """Across a whole Newton solve the jacobian calls piggyback on the
        residual's assemblies: total mobility assemblies == residual evals
        (each at a distinct iterate: the initial one plus one per
        line-search trial), never residual + jacobian evals."""
        phi = drop(mesh)
        mu = solver.initial_mu(phi)
        with obs.tracing():
            res = solver.solve(phi, mu, None, 1e-3)
            c = counters()
            spans = obs.flatten_spans(obs.snapshot())
        assert res.newton.converged and res.newton.iterations >= 1
        residual_evals = 1 + res.newton.line_search_trials
        assert spans["newton/newton.residual"]["count"] == residual_evals
        assert spans["newton/newton.jacobian"]["count"] == res.newton.iterations
        assert c["ch.mobility_assemblies"] == residual_evals

    def test_solution_unchanged_by_caching(self, mesh, monkeypatch):
        """Caching is an evaluation-sharing optimization only: the Newton
        trajectory is identical to recomputing everything."""
        prm = CHNSParams(Cn=0.05, Pe=100.0, Re=10.0)
        phi = drop(mesh)
        s1 = CHSolver(mesh, prm)
        mu = s1.initial_mu(phi)
        with obs.tracing():
            r1 = s1.solve(phi, mu, None, 1e-3)
            cached = counters()["ch.mobility_assemblies"]

        class NoCache(IterateCache):
            def get(self, x, key, build):
                return build()

        monkeypatch.setattr(ch_solver, "IterateCache", NoCache)
        with obs.tracing():
            r2 = CHSolver(mesh, prm).solve(phi, mu, None, 1e-3)
            uncached = counters()["ch.mobility_assemblies"]
        assert np.array_equal(r1.phi, r2.phi)
        assert np.array_equal(r1.mu, r2.mu)
        assert uncached > cached
