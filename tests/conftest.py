"""Fixtures shared by the test modules."""

from types import SimpleNamespace

import pytest

from few2d import oracles


@pytest.fixture
def fd_work(monkeypatch):
    """Records the fd oracle's LAPACK bisections as (size, tol) in ``bisected``
    and its refinements as (size, certified) in ``refined``."""
    work = SimpleNamespace(bisected=[], refined=[])
    bisect, refine = oracles.eigh_tridiagonal, oracles._refined_levels

    def counted_bisection(diag, off, **kwargs):
        work.bisected.append((diag.size, kwargs["tol"]))
        return bisect(diag, off, **kwargs)

    def counted_refinement(diag, off, guess, start=None):
        refined = refine(diag, off, guess, start)
        work.refined.append((diag.size, refined is not None))
        return refined

    monkeypatch.setattr(oracles, "eigh_tridiagonal", counted_bisection)
    monkeypatch.setattr(oracles, "_refined_levels", counted_refinement)
    return work
