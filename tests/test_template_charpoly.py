"""The charpoly of the deformation template's lane matrix at d <= 2 in
closed form (displayzoo._template_charpoly, which gives the unit parts
u_k of its coefficients c_k = p^(k-1) u_k; a sweep reads its polygons
off them mod p, see tests/test_residue_polygons.py): the closed form must
be the determinant as a polynomial identity (checked symbolically by the
oracles), its coefficients, the u_k times their powers of p
(closed_form_charpoly), those of Berkowitz on the lane matrix, and each
lane's polygon and certificate read from them those of the Berkowitz
route (_graded_lane_pairs of _template_lanes), at the certifying
precision N* = d n + 1, at the default N, below N* (where no lane is
certified) and at N = 1.  Sweeps at d >= 3 keep Berkowitz."""

import random

import pytest

from gustrata import _linalg, default_precision, make_context
from gustrata.displayzoo import _template_lanes
from gustrata.fcrystal import _graded_lane_pairs, _graded_scale, _lane_polygons
from gustrata.strata import CHUNK, _enumerate_points, verify_local_strata

from _oracles import template_charpoly_closed_form, template_charpoly_symbolic
from _sweeps import berkowitz_charpoly, closed_form_charpoly


@pytest.mark.parametrize("n", range(3, 11))
def test_closed_form_is_the_determinant(n):
    """det(yI - X(s) Y(t)) expanded over Z in p, s_i and t_i, with s and
    t independent (t = sigma(s) at d = 2, t = s at d = 1)."""
    assert template_charpoly_symbolic(n) == template_charpoly_closed_form(n)


def precisions(n, d):
    """N*, the default N, N* - 1 and 1."""
    nstar = d * n + 1
    return nstar, default_precision(n, d), nstar - 1, 1


def chunk_polygons(ctx, n, chunk):
    """Each lane's polygon, None where it is not certified, read from the
    closed form's coefficients; asserts that the Berkowitz route reads the
    same."""
    lops, coeffs = closed_form_charpoly(ctx, n, chunk)
    closed = _lane_polygons(_linalg.coefficient_slope_pairs(
        lops, [coeffs], ctx.d, _graded_scale(ctx.d)), ctx.N)
    assert closed == _lane_polygons(_graded_lane_pairs(
        *_template_lanes(ctx, n, chunk)), ctx.N)
    return closed


def assert_certified_from_nstar(polygons, n, d, N):
    """Every lane is certified from N* up and none below it."""
    if N > d * n:
        assert None not in polygons, N
    else:
        assert all(polygon is None for polygon in polygons), N


EXHAUSTIVE = ([(n, p, 1) for p in (2, 3) for n in range(3, 8)]
              + [(n, p, 2) for p in (2, 3) for n in range(3, 6)])


@pytest.mark.parametrize("n,p,d", EXHAUSTIVE)
def test_every_lane_of_an_exhaustive_sweep(n, p, d):
    points = list(_enumerate_points(n, p ** d, "exhaustive", None, None))
    for N in precisions(n, d):
        ctx = make_context(p, d, N)
        polygons = []
        for k in range(0, len(points), CHUNK):
            polygons += chunk_polygons(ctx, n, points[k:k + CHUNK])
        assert len(polygons) == len(points)
        assert_certified_from_nstar(polygons, n, d, N)


SEEDED = [(p, d, n) for p, d in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2),
                                 (3, 2), (5, 2), (7, 2)]
          for n in (3, 4, 9, 16, 33, 64)] + [
    (1000003, d, n) for d in (1, 2) for n in (3, 4, 9, 20)]


@pytest.mark.parametrize("p,d,n", SEEDED)
def test_seeded_chunks(p, d, n):
    """Random chunks with some zero parameters, the zero point and the
    point of all codes q - 1: the closed form's coefficients, unpacked
    lane by lane, are Berkowitz's, and the polygons those of the
    Berkowitz route.  The default N is left out at n = 64, d = 2 and for
    p = 1000003 past n = 9, where its Berkowitz runs take seconds."""
    rng = random.Random(f"charpoly {p} {d} {n}")
    q = p ** d
    for N in precisions(n, d):
        if N == default_precision(n, d) and (
                (n, d) == (64, 2) or (p > 7 and n > 9)):
            continue
        ctx = make_context(p, d, N)
        chunk = [tuple(0 if rng.random() < 0.2 else rng.randrange(q)
                       for _ in range(n - 1)) for _ in range(6)]
        chunk += [(0,) * (n - 1), (q - 1,) * (n - 1)]
        lops, coeffs = closed_form_charpoly(ctx, n, chunk)
        ref_lops, factors = _template_lanes(ctx, n, chunk)
        ref = berkowitz_charpoly(ref_lops, factors, n)
        assert len(coeffs) == len(ref) == n + 1
        for lane in range(len(chunk)):
            assert [lops.unpack(c[lane]) for c in coeffs] == \
                [ref_lops.unpack(c[lane]) for c in ref], (N, lane)
        assert_certified_from_nstar(chunk_polygons(ctx, n, chunk), n, d, N)


@pytest.mark.parametrize("n,p,d,berkowitz", [
    (8, 3, 1, False), (6, 5, 1, False), (5, 3, 2, False), (4, 2, 2, False),
    (4, 2, 3, True)])
def test_only_sweeps_at_d3_and_up_run_berkowitz(n, p, d, berkowitz,
                                                monkeypatch):
    """A spy on _linalg._berkowitz: a sweep certified at N* runs none at
    d <= 2 and runs it at d = 3."""
    calls = []
    original = _linalg._berkowitz

    def spy(lops, srows):
        calls.append(len(srows))
        return original(lops, srows)

    monkeypatch.setattr(_linalg, "_berkowitz", spy)
    report = verify_local_strata(n, p, d, "random", 2 * CHUNK + 3, 11)
    assert report.points == 2 * CHUNK + 3
    assert report.precision_retries == 0
    assert bool(calls) == berkowitz
