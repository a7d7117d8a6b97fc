"""Soliton residuals, identity checks and theorem verdicts.

The unconditional identities are exercised on randomized smooth fields over
five charts, with pinned closed-form values on the round sphere as anchors.
Conditional checks are certified in both directions: trivial solitons must
come back identity-holds, and a non-soliton potential must trip the
hypothesis gates rather than the conclusions.
"""

import importlib.util
import itertools
import math
import re
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from solitonlab.geometry import (
    ScalarField,
    chart,
    div_sym2,
    frame,
    gradient_vector_jets,
    lie_jet,
    lie_metric_jets,
    norm2_covec,
    norm2_sym2,
    scalar_field,
    scalar_jets,
    trace_g,
    trace_g_jet,
    vector_field,
    vector_jets,
)
from solitonlab import solitons
from solitonlab.manifest import bundled
from solitonlab.quadrature import default_grid, grid_nodes
from solitonlab.records import asdict
from solitonlab.solitons import (
    CHECK_IDS,
    GRADIENT_ONLY,
    CheckReport,
    SolitonError,
    SolitonSpec,
    Tolerances,
    Workspace,
    _build_report,
    _phi_laplacian,
    check_contracted_trace,
    check_schur,
    evaluate_theorem,
    full_grid_frame,
    grid_frame,
    identity_bochner,
    identity_div_lie,
    identity_lemma_hessian,
    identity_prop_p2,
    identity_trace_lie2,
    remark_csc,
    run_check,
    workspace,
)

from conftest import SCALAR_TERMS, VECTOR_TERMS, random_scalar, random_vector
from test_geometry import (
    annulus,
    max_abs,
    product_s2_s1,
    sphere2,
    sphere3_hopf,
    torus2,
    torus3,
    warped_sphere,
)

TAU = 2 * math.pi

CHART_BUILDERS = {
    "sphere2": sphere2,
    "sphere3": sphere3_hopf,
    "torus2": torus2,
    "torus3": torus3,
    "s2xs1": product_s2_s1,
    "warped": warped_sphere,
}

# Small grids keep the randomized sweeps quick; the identities are pointwise,
# so any interior nodes are as good as the production defaults.
TEST_COUNTS = {
    "sphere2": (24, 32),
    "sphere3": (10, 12, 12),
    "torus2": (12, 12),
    "torus3": (8, 8, 8),
    "s2xs1": (10, 12, 8),
    "warped": (24, 32),
}


def trivial(ch, kind, mu, lam=1.0):
    return SolitonSpec(
        name=f"{ch.name}-{kind}-trivial", chart=ch, kind=kind, lam=lam, mu=mu,
        potential=scalar_field(ch, "0"),
    )


def grid_for(ch):
    return default_grid(ch, TEST_COUNTS[ch.name])


def killing_residual(field, grid=None):
    """max over nodes of |L_xi g| for a bare vector field, read from its
    workspace; zero exactly for Killing fields."""
    ws = workspace(field, grid)
    return float(np.sqrt(np.max(norm2_sym2(ws.fr, ws.T))))


def tc_killing_residual(spec, grid):
    return evaluate_theorem("T-C", spec, grid).residuals["killing_residual"]


# ------------------------------------------------------- unconditional suite


@pytest.mark.parametrize("name", sorted(CHART_BUILDERS))
def test_unconditional_identities_randomized(name, rng):
    ch = CHART_BUILDERS[name]()
    grid = grid_for(ch)
    for _ in range(10):
        rep = identity_trace_lie2(random_vector(ch, rng), grid)
        assert rep.verdict == "identity-holds"
        assert rep.max_residual <= 1e-8
        rep = identity_bochner(random_scalar(ch, rng), grid)
        assert rep.verdict == "identity-holds"
        assert rep.max_residual <= 1e-8


@pytest.mark.parametrize("name", sorted(CHART_BUILDERS))
def test_div_lie_formula_unconditional(name, rng):
    # The divergence formula line must hold for arbitrary smooth potentials,
    # even though the surrounding check gates its Ricci conclusion.
    ch = CHART_BUILDERS[name]()
    for _ in range(3):
        spec = SolitonSpec(
            name="scratch", chart=ch, kind="yamabe", lam=1.0, mu=0.0,
            potential=random_scalar(ch, rng),
        )
        rep = identity_div_lie(spec, grid_for(ch))
        assert rep.residuals["div_lie_formula"] <= 1e-8


@pytest.mark.parametrize("name", sorted(CHART_BUILDERS))
def test_schur_identity(name):
    ch = CHART_BUILDERS[name]()
    rep = check_schur(ch, grid_for(ch))
    assert rep.verdict == "identity-holds"
    assert rep.max_residual <= 1e-8


def test_trace_lie2_accepts_bare_fields(rng):
    ch = sphere2()
    rep = identity_trace_lie2(vector_field(ch, ("0", "1")), grid_for(ch))
    assert rep.verdict == "identity-holds"


def test_bare_vector_field_never_builds_d2T(monkeypatch):
    # Only the derivative of L_xi L_xi g needs d2T; the trace formula and the
    # Killing residual of a bare field read no such thing.
    calls = []
    original = solitons.lie_jet

    def counting(vj, Ts, k):
        if k == 2:
            calls.append(1)
        return original(vj, Ts, k)

    monkeypatch.setattr(solitons, "lie_jet", counting)
    ch = sphere2()
    field = vector_field(ch, ("sin(th)*cos(ph)", "cos(th)"))
    grid = grid_for(ch)
    assert identity_trace_lie2(field, grid).verdict == "identity-holds"
    killing_residual(field, grid)
    assert calls == []
    workspace(field, grid).dU
    assert calls == [1]


def test_gradient_dU_reads_the_hessian_jets(monkeypatch):
    # L_{grad f} g = 2 Hess f, so a gradient's d2T is 2 d^2 Hess f: the
    # workspace's vector jets stop at d2xi, nothing builds d3xi, and no
    # second derivative of a Lie derivative is taken.
    grad_calls, lie2_calls = [], []
    original_grad, original_lie = solitons.gradient_vector_jets, solitons.lie_jet
    monkeypatch.setattr(solitons, "gradient_vector_jets",
                        lambda *args: grad_calls.append(args)
                        or original_grad(*args))

    def counting(vj, Ts, k):
        if k == 2:
            lie2_calls.append(1)
        return original_lie(vj, Ts, k)

    monkeypatch.setattr(solitons, "lie_jet", counting)
    ch = sphere2()
    spec = SolitonSpec(name="cos-th", chart=ch, kind="yamabe", lam=1.0,
                       mu=2.0, potential=scalar_field(ch, "cos(th)"))
    grid = grid_for(ch)
    workspace.cache_clear()
    for cid in CHECK_IDS:
        run_check(spec, cid, grid)
    ws = workspace(spec, grid)
    assert "dU" in vars(ws) and len(grad_calls) == 1
    assert len(grad_calls[0]) == 2 and len(grad_calls[0][1]) == 4
    assert len(ws.sj) == 5 and len(ws.vj) == 3
    assert lie2_calls == []


def test_bare_scalar_field_jets_stop_at_order_three(rng):
    # d4f feeds only dU, which only a SolitonSpec's premise gates read; a
    # bare field's workspace has no d4f to build d^2 Hess f from.
    ch = sphere2()
    ws = workspace(random_scalar(ch, rng), grid_for(ch))
    assert len(ws.sj) == 4
    with pytest.raises(ValueError, match=r"needs d\^4 f"):
        ws.dU


@pytest.mark.parametrize("kind", ["ricci", "yamabe"])
@pytest.mark.parametrize("name", ["warped", "sphere3", "s2xs1"])
def test_gradient_lie_jets_match_the_vector_route(name, kind, rng):
    # The workspace builds T, dT and d2T of a gradient from the Hessian jets;
    # the route every vector field takes, Lie derivatives of the metric over
    # the jets of grad f to d3xi, must give the same T, dT and dU.
    ch = CHART_BUILDERS[name]()
    spec = SolitonSpec(name="scratch", chart=ch, kind=kind, lam=0.7, mu=1.3,
                       potential=random_scalar(ch, rng))
    ws = workspace(spec, grid_for(ch))
    fr = ws.fr
    vj = gradient_vector_jets(fr, ws.sj)
    assert len(vj) == 4
    T, dT = lie_metric_jets(fr, vj)
    d2T = lie_jet(vj, [fr.g, fr.dg, fr.d2g, fr.d3g], 2)
    dU = lie_jet(vj, [T, dT, d2T], 1)
    for got, want in ((ws.T, T), (ws.dT, dT), (ws.dU, dU)):
        assert max_abs(got - want) <= 1e-11 * max_abs(want)


def scratch_soliton(field, kind="yamabe", lam=1.0, mu=2.0):
    """A soliton over a potential or a vector field."""
    key = "potential" if isinstance(field, ScalarField) else "vector"
    return SolitonSpec(name="scratch", chart=field.chart, kind=kind, lam=lam,
                       mu=mu, **{key: field})


def test_workspace_keeps_the_frames_and_fields_own_batch():
    # The flat torus with f = 0 or a constant field is one node's numbers;
    # on the round sphere the metric and cos(th) vary along th only.  The
    # workspace keeps every quantity on that batch instead of expanding it
    # to the grid.
    cases = ((torus2(), scalar_field(torus2(), "0"), (1, 1)),
             (sphere2(), scalar_field(sphere2(), "cos(th)"), (64, 1)),
             (torus2(), vector_field(torus2(), ("1", "0")), (1, 1)))
    for ch, field, batch in cases:
        ws = Workspace(scratch_soliton(field), default_grid(ch))
        hess = ("H",) if isinstance(field, ScalarField) else ()
        for name in ("U", "dU", "residual") + hess:
            assert getattr(ws, name).shape[:2] == batch, (ch.name, name)


def spy_frames(monkeypatch, name):
    """Replace ``solitons.<name>``, whose first argument is a frame, by a
    spy; returns the list of the frames it is called with."""
    frames, original = [], getattr(solitons, name)
    monkeypatch.setattr(solitons, name, lambda fr, *args: frames.append(fr)
                        or original(fr, *args))
    return frames


def test_fitted_workspace_keeps_the_full_grid(monkeypatch):
    # FitProblem.fit sets from_hessian False after workspace() builds the
    # entry and before anything is read.  That workspace, and so a cold
    # fit with its post-fit schur and report maxima, stays on the full-grid
    # views until the benchmark can time a faster fit (ROADMAP item 3).
    ch = torus2()
    grid = grid_for(ch)
    spec = trivial(ch, "ricci", 0.0)
    workspace.cache_clear()
    ws = workspace(spec, grid)
    ws.from_hessian = False
    full = tuple(grid.counts)
    for name in ("U", "dU", "residual", "H"):
        assert getattr(ws, name).shape[:2] == full, name
    for name, a in vars(ws.fr).items():
        if name != "chart":
            assert a.shape[:2] == full, name
    assert all(a.shape[:2] == full for a in ws.sj)
    contracted = spy_frames(monkeypatch, "div_sym2")
    reduced = spy_frames(monkeypatch, "max_norm")
    for cid in CHECK_IDS:
        assert run_check(spec, cid, grid).verdict != "violated", cid
    assert contracted and reduced
    assert all(fr.r.shape == full for fr in contracted + reduced)


def test_schur_contracts_on_the_frames_own_batch(monkeypatch):
    # Schur is a statement about the metric, which varies along th on the
    # round sphere and along no axis on the flat torus.  On a Chart, a bare
    # field and a soliton that no fit made, div Ric is contracted on that
    # batch, not on one copy of it per grid node.
    contracted = spy_frames(monkeypatch, "div_sym2")
    workspace.cache_clear()
    for ch, batch in ((torus2(), (1, 1)), (sphere2(), (64, 1))):
        field = scalar_field(ch, "0")
        for target in (ch, field, scratch_soliton(field)):
            contracted.clear()
            assert check_schur(target).verdict == "identity-holds"
            assert [fr.r.shape for fr in contracted] == [batch], (ch, target)


def test_report_maxima_reduce_on_the_workspace_frame(monkeypatch):
    # Every conclusion and hypothesis field is reduced by max_norm on the
    # frame of the Workspace the check read, on its own batch: the flat
    # torus's is (1, 1), whatever f's batch.
    ch = torus2()
    grid = grid_for(ch)
    field = scalar_field(ch, "sin(x)")
    reduced = spy_frames(monkeypatch, "max_norm")
    workspace.cache_clear()
    for target in (ch, field, scratch_soliton(field)):
        reduced.clear()
        ids = [cid for cid in CHECK_IDS
               if isinstance(target, solitons._target_types(
                   solitons._CATALOG[cid]))]
        for cid in ids:
            evaluate_theorem(cid, target, grid)
        fr = workspace(target, grid).fr
        assert fr.r.shape == (1, 1)
        assert len(reduced) >= len(ids) and all(f is fr for f in reduced)


# The quantities that read f's jets, which a vector field's workspace has not.
POTENTIAL_ONLY = ("H", "lap", "hess2", "dH", "dlap", "glapf", "gfr", "lap_phi")


def workspace_arrays(ws):
    """Every field quantity of ``ws`` after the field's jets, by name: the
    cached properties in class order, lists and pairs split into their
    arrays."""
    skip = ("fr", "sj", "vj") + (() if ws.from_hessian else POTENTIAL_ONLY)
    names = [k for k, v in vars(Workspace).items()
             if isinstance(v, cached_property) and k not in skip]
    out = {}
    for name in names:
        value = getattr(ws, name)
        if isinstance(value, (list, tuple)):
            out.update({f"{name}[{i}]": v for i, v in enumerate(value)})
        else:
            out[name] = value
    return out


@pytest.mark.parametrize("name", sorted(CHART_BUILDERS))
def test_own_batch_workspace_agrees_with_the_full_grid_views(name, rng):
    # The reference workspace reads the frame and the field's jets expanded
    # to the grid; the workspace reads them on their own batches.  Both
    # must give every quantity to rounding, on the grid.
    ch = CHART_BUILDERS[name]()
    grid = grid_for(ch)
    x, _ = grid_nodes(ch, grid)
    potentials = [scalar_field(ch, t) for t in ("0", SCALAR_TERMS[name][0])]
    vectors = [vector_field(ch, (t,) + ("0",) * (ch.dim - 1))
               for t in ("0", VECTOR_TERMS[name][0][0])]
    fields = (potentials + [random_scalar(ch, rng)] + vectors
              + [random_vector(ch, rng)])
    for field, kind in itertools.product(fields, ("ricci", "yamabe")):
        spec = scratch_soliton(field, kind, lam=0.7, mu=1.3)
        ws, ref = Workspace(spec, grid), Workspace(spec, grid)
        batch = x.shape[:-1]
        ref.__dict__["fr"] = full_grid_frame(grid_frame(ch, grid), batch)
        jets = (scalar_jets(field, x, order=4) if spec.is_gradient
                else vector_jets(field, x))
        ref.__dict__["sj" if spec.is_gradient else "vj"] = [
            np.broadcast_to(a, batch + a.shape[len(batch):]) for a in jets]
        got, want = workspace_arrays(ws), workspace_arrays(ref)
        assert got.keys() == want.keys()
        for key, value in want.items():
            diff = np.abs(np.broadcast_to(got[key], np.shape(value)) - value)
            assert np.max(diff) <= 1e-13 * (1 + np.max(np.abs(value))), (
                field, kind, key)


# ------------------------------------------------------------ pinned anchors


def test_bochner_pinned_on_sphere():
    # f = cos(th) on the unit sphere: both sides equal 3 cos(th)^2 - 1,
    # which is 1/2 at th = pi/4.
    ch = sphere2()
    x = np.array([[math.pi / 4, 0.3], [math.pi / 3, 1.1]])
    fr = frame(ch, x)
    sj = scalar_jets(scalar_field(ch, "cos(th)"), x)
    half_lap_phi = 0.5 * _phi_laplacian(fr, sj)
    th = x[..., 0]
    assert max_abs(half_lap_phi - (3 * np.cos(th) ** 2 - 1)) < 1e-12
    assert abs(half_lap_phi[0] - 0.5) < 1e-12

    rep = identity_bochner(scalar_field(ch, "cos(th)"))
    assert rep.verdict == "identity-holds"
    assert rep.max_residual < 1e-10


def test_div_lie_pinned_on_sphere():
    # f = cos(th): div(L_{grad f} g) = 2 sin(th) dth, and the two terms on
    # the right are 4 sin(th) and -2 sin(th).  At the equator both sides
    # evaluate to 2.
    ch = sphere2()
    x = np.array([[math.pi / 2, 0.0], [0.9, 2.0]])
    fr = frame(ch, x)
    sj = scalar_jets(scalar_field(ch, "cos(th)"), x, order=4)
    vj = gradient_vector_jets(fr, sj)
    T, dT = lie_metric_jets(fr, vj)
    divT = div_sym2(fr, T, dT)
    th = x[..., 0]
    assert max_abs(divT[..., 0] - 2 * np.sin(th)) < 1e-12
    assert max_abs(divT[..., 1]) < 1e-12
    assert abs(divT[0, 0] - 2.0) < 1e-12


def test_contracted_trace_values():
    # f = cos(th) on the unit sphere: 2 lambda lap f = -4 cos(th) and
    # n (mu - r) = 0, so the residual is 4 max |cos(th)| over the grid.
    ch = sphere2()
    spec = SolitonSpec(
        name="cos-th", chart=ch, kind="yamabe", lam=1.0, mu=2.0,
        potential=scalar_field(ch, "cos(th)"),
    )
    rep = check_contracted_trace(spec)
    x, _ = grid_nodes(ch, default_grid(ch))
    expected = 4 * float(np.max(np.abs(np.cos(x[..., 0]))))
    assert abs(rep.residuals["contracted_trace"] - expected) < 1e-10
    assert abs(rep.info["mean_rhs"]) < 1e-12


def warped_random_solitons(kind, rng):
    """Two solitons of ``kind`` with random potentials on the warped sphere,
    where r varies, so a wrong constant in front of mu - r or dr shows."""
    ch = warped_sphere()
    return [SolitonSpec(name="scratch", chart=ch, kind=kind, lam=0.7, mu=1.3,
                        potential=random_scalar(ch, rng)) for _ in range(2)]


@pytest.mark.parametrize("kind", ["ricci", "yamabe"])
def test_contracted_trace_is_the_residual_trace_less_tr_U(kind, rng):
    # 2 lam lap f - n (mu - r) (Yamabe; n mu - r for Ricci) is tr S - tr U
    # for any potential, S the soliton residual.
    for spec in warped_random_solitons(kind, rng):
        grid = grid_for(spec.chart)
        rep = run_check(spec, "contracted_trace", grid)
        ws = workspace(spec, grid)
        want = max_abs(trace_g(ws.fr, ws.residual) - ws.traceU)
        assert rep.residuals["contracted_trace"] == pytest.approx(want, rel=1e-12)


def residual_derivative(ws):
    """dS, the first derivative of the soliton residual S, assembled from
    the workspace's jets."""
    spec, fr = ws.target, ws.fr
    dS = ws.dU + spec.lam * ws.dT
    if spec.kind == "ricci":
        return dS + fr.dRic - spec.mu * fr.dg
    return (dS + fr.dr[..., :, None, None] * fr.g[..., None, :, :]
            - (spec.mu - fr.r)[..., None, None, None] * fr.dg)


def trace_defect(ws):
    """D = tr S - tr U, S the soliton residual: 2 lam lap f - n (mu - r)
    for Yamabe, 2 lam lap f - (n mu - r) for Ricci."""
    return trace_g(ws.fr, ws.residual) - ws.traceU


@pytest.mark.parametrize("kind", ["ricci", "yamabe"])
def test_div_lie_conclusion_is_the_residual_divergence_over_two_lambda(kind,
                                                                       rng):
    # Ric(grad f) - c dr, c = (n-1)/(2 lam) for Yamabe and 1/(4 lam) for
    # Ricci, is (div S - d tr S - div U + d tr U)/(2 lam) for any potential,
    # S the soliton residual.
    for spec in warped_random_solitons(kind, rng):
        grid = grid_for(spec.chart)
        rep = run_check(spec, "div_lie", grid)
        ws = workspace(spec, grid)
        fr, lam, dS = ws.fr, spec.lam, residual_derivative(ws)
        rhs = (div_sym2(fr, ws.residual, dS) - trace_g_jet(fr, ws.residual, dS)
               - div_sym2(fr, ws.U, ws.dU) + trace_g_jet(fr, ws.U, ws.dU))
        want = float(np.sqrt(np.max(norm2_covec(fr, rhs / (2 * lam)))))
        assert rep.residuals["ric_gradf_conclusion"] == pytest.approx(
            want, rel=1e-10)


@pytest.mark.parametrize("check_id, kind", [("T-1", "yamabe"), ("T-2", "ricci")])
def test_pairing_integrals_are_the_residual_pairing_over_two_lambda(
        check_id, kind, rng):
    # On a closed chart, int |Hess f|^2 + int Ric(grad f, grad f)
    # - c int g(grad f, grad r), c = n/(2 lam) for T-1 and 1/(2 lam) for
    # T-2, is int lap f (tr S - tr U)/(2 lam) for any potential (Bochner and
    # two integrations by parts).  With lam small and int g(grad f, grad r)
    # > 0 the pairing hypothesis fails, and its residual is c int g(grad f,
    # grad r) - int Ric(grad f, grad f).
    ch = warped_sphere()
    spec = SolitonSpec(name="scratch", chart=ch, kind=kind, lam=0.2, mu=1.3,
                       potential=random_scalar(ch, rng))
    grid = grid_for(ch)
    rep = run_check(spec, check_id, grid)
    ws = workspace(spec, grid)
    assert rep.integrals["int_g_gradf_gradr"] > 1.0
    bound = rep.hypothesis_residuals["ricci_pairing_lower_bound"]
    assert bound > 0
    rhs = ws.integral(ws.lap * (trace_g(ws.fr, ws.residual) - ws.traceU))
    assert rep.integrals["int_hess_norm2"] - bound == pytest.approx(
        rhs / (2 * spec.lam), rel=1e-10)


@pytest.mark.parametrize("kind", ["ricci", "yamabe"])
def test_t_sq_pairing_is_the_residual_trace_pairing(kind, rng):
    # With rho = n(mu - r)/(2 lam) for Yamabe and (n mu - r)/(2 lam) for
    # Ricci, T-SQ's hypothesis reads int Ric(grad f, grad f) >= int rho^2,
    # and int |Hess f|^2 + int Ric(grad f, grad f) - int rho^2 is
    # int (lap f + rho) D/(2 lam) for any potential (Bochner, integrated).
    # With lam small the hypothesis fails, and its residual is
    # int rho^2 - int Ric(grad f, grad f).
    ch = warped_sphere()
    spec = SolitonSpec(name="scratch", chart=ch, kind=kind, lam=0.05, mu=1.3,
                       potential=random_scalar(ch, rng))
    grid = grid_for(ch)
    rep = evaluate_theorem("T-SQ", spec, grid)
    ws = workspace(spec, grid)
    n, lam, r = ch.dim, spec.lam, ws.fr.r
    rho = (n * (spec.mu - r) if kind == "yamabe" else n * spec.mu - r) / (2 * lam)
    bound = rep.hypothesis_residuals["ricci_pairing_lower_bound"]
    assert bound > 0
    rhs = ws.integral((ws.lap + rho) * trace_defect(ws)) / (2 * lam)
    assert rep.integrals["int_hess_norm2"] - bound == pytest.approx(
        rhs, rel=1e-10)


@pytest.mark.parametrize("kind", ["ricci", "yamabe"])
def test_t_cor_pairing_is_the_residual_trace_pairing(kind, rng):
    # int (lap f)^2 - c int g(grad f, grad r), c = n/(2 lam) for Yamabe and
    # 1/(2 lam) for Ricci, is int lap f D/(2 lam) for any potential; T-COR
    # reports lam int g(grad f, grad r).
    for spec in warped_random_solitons(kind, rng):
        grid = grid_for(spec.chart)
        rep = evaluate_theorem("T-COR", spec, grid)
        ws = workspace(spec, grid)
        lam = spec.lam
        c = (spec.dim if kind == "yamabe" else 1.0) / (2 * lam)
        lhs = (ws.integral(ws.lap**2)
               - c / lam * rep.integrals["lam_int_g_gradf_gradr"])
        rhs = ws.integral(ws.lap * trace_defect(ws)) / (2 * lam)
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("kind", ["ricci", "yamabe"])
def test_lemma_hessian_lines_are_the_residual_trace_gradient(kind, rng):
    # Differentiating D = 2 lam lap f - n (mu - r) (Yamabe; n mu - r for
    # Ricci) gives g(grad D, grad f) = 2 lam g(grad lap f, grad f)
    # + (n or 1) g(grad f, grad r), the traced_gradient line; with Bochner
    # the main line is g(grad D, grad f)/(2 lam), for any potential.
    for spec in warped_random_solitons(kind, rng):
        grid = grid_for(spec.chart)
        rep = evaluate_theorem("lemma_hessian", spec, grid)
        ws = workspace(spec, grid)
        fr = ws.fr
        dD = (trace_g_jet(fr, ws.residual, residual_derivative(ws))
              - trace_g_jet(fr, ws.U, ws.dU))
        want = max_abs(np.einsum("...ab,...a,...b->...", fr.ginv, dD,
                                 ws.sj[1]))
        assert rep.residuals["traced_gradient"] == pytest.approx(want,
                                                                 rel=1e-10)
        assert rep.residuals["main"] == pytest.approx(want / (2 * spec.lam),
                                                      rel=1e-10)


# ------------------------------------------------------- residual invariants


@pytest.mark.parametrize("kind", ["ricci", "yamabe"])
@pytest.mark.parametrize("name", ["sphere2", "torus2", "s2xs1"])
def test_residual_trace_invariant(name, kind, rng):
    ch = CHART_BUILDERS[name]()
    spec = SolitonSpec(
        name="scratch", chart=ch, kind=kind, lam=1.3, mu=0.7,
        potential=random_scalar(ch, rng),
    )
    ws = workspace(spec, grid_for(ch))
    n = ch.dim
    lhs = trace_g(ws.fr, ws.residual)
    if kind == "yamabe":
        want = ws.traceU + 2 * spec.lam * ws.lap - n * (spec.mu - ws.fr.r)
    else:
        want = ws.traceU + 2 * spec.lam * ws.lap + ws.fr.r - n * spec.mu
    assert max_abs(lhs - want) <= 1e-9


def test_zero_potential_residual_is_exact():
    ch = sphere2()
    ws = workspace(trivial(ch, "ricci", 1.0), grid_for(ch))
    assert max_abs(ws.residual - (ws.fr.Ric - ws.fr.g)) == 0.0
    ws = workspace(trivial(ch, "yamabe", 2.0), grid_for(ch))
    want = -(2.0 - ws.fr.r)[..., None, None] * ws.fr.g
    assert max_abs(ws.residual - want) == 0.0


def test_default_grid_spellings_share_one_cache_entry():
    ch = annulus()
    spec = SolitonSpec(
        name="scratch", chart=ch, kind="ricci", lam=1.0, mu=0.0,
        potential=scalar_field(ch, "rho^2*cos(phi)"),
    )
    grid = default_grid(ch)
    misses = grid_frame.cache_info().misses
    fr = grid_frame(ch)
    assert grid_frame(ch, None) is fr
    assert grid_frame(ch, grid) is fr
    assert grid_frame(ch, grid=grid) is fr
    ws = workspace(spec)
    assert workspace(spec, None) is ws
    assert workspace(spec, grid) is ws
    assert workspace(spec, grid=grid) is ws
    # The Hessian route reads that cache entry's frame, not a copy.
    assert ws.fr is fr
    assert grid_frame.cache_info().misses - misses <= 1


def test_full_check_computes_each_shared_quantity_once(monkeypatch):
    # The gate maxima, |Hess f|^2 and Ric(xi, xi) are Workspace attributes:
    # a full check reads each as often as its rows need, and computes each
    # once.  The spies keep every argument alive, so `is` cannot alias.
    seen = []

    def spy(name):
        original = getattr(solitons, name)
        monkeypatch.setattr(solitons, name, lambda *args: seen.append(
            (name, args)) or original(*args))

    for name in ("max_norm", "norm2_sym2", "ric_vv", "trace_g_jet",
                 "div_sym2"):
        spy(name)
    ch = sphere2()
    spec = SolitonSpec(name="scratch", chart=ch, kind="yamabe", lam=1.0,
                       mu=2.0, potential=scalar_field(ch, "cos(th)"))
    grid = default_grid(ch, (12, 16))
    workspace.cache_clear()
    for cid in CHECK_IDS:
        run_check(spec, cid, grid)
    # max_norm hands a number back as it is; only a field is reduced.
    fields = [(name, args) for name, args in seen
              if isinstance(args[-1], np.ndarray)]
    repeated = [(name, k) for k, (name, args) in enumerate(fields)
                if any(n == name and a[-1] is args[-1] for n, a in fields[:k])]
    assert repeated == []
    assert workspace.cache_info().misses == 1
    ws = workspace(spec, grid)
    once = [(name, args[-1]) for name, args in fields]
    for name, arg in [("max_norm", ws.residual), ("max_norm", ws.traceU),
                      ("norm2_sym2", ws.H), ("ric_vv", ws.vj[0])]:
        assert sum(n == name and a is arg for n, a in once) == 1, name
    for name in ("trace_g_jet", "div_sym2"):  # the const_trace, div_free gates
        assert sum(n == name and args[1] is ws.U for n, args in seen) == 1


# -------------------------------------------------------------- the verdicts


def lattice_expectation(tag, spec):
    if tag == "T-1" and spec.kind != "yamabe":
        return "hypothesis-not-met"
    if tag == "T-2" and spec.kind != "ricci":
        return "hypothesis-not-met"
    if tag == "T-N2" and (spec.kind != "yamabe" or spec.dim <= 2):
        return "hypothesis-not-met"
    return "identity-holds"


TRIVIAL_CASES = [
    ("sphere2", "yamabe", 2.0),
    ("sphere2", "ricci", 1.0),
    ("sphere3", "ricci", 2.0),
    ("sphere3", "yamabe", 6.0),
    ("torus2", "yamabe", 0.0),
    ("torus2", "ricci", 0.0),
]


@pytest.mark.parametrize("name,kind,mu", TRIVIAL_CASES)
def test_trivial_solitons_pass_every_check(name, kind, mu):
    ch = CHART_BUILDERS[name]()
    spec = trivial(ch, kind, mu)
    grid = grid_for(ch)
    for check_id in CHECK_IDS:
        rep = run_check(spec, check_id, grid)
        assert rep.verdict == lattice_expectation(check_id, spec), (
            f"{check_id} on {spec.name}: {rep.verdict}, "
            f"hyp={rep.hypothesis_residuals}, res={rep.residuals}"
        )


@pytest.mark.parametrize("kind,mu", [("yamabe", 2.0), ("ricci", 1.0)])
def test_nonsoliton_trips_hypotheses(kind, mu):
    ch = sphere2()
    spec = SolitonSpec(
        name="cos-th", chart=ch, kind=kind, lam=1.0, mu=mu,
        potential=scalar_field(ch, "cos(th)"),
    )
    grid = grid_for(ch)
    conditional = (
        "lemma_hessian", "div_lie", "prop_p2", "contracted_trace",
        "remark_csc", "T-C", "T-1", "T-2", "T-COR", "T-SQ", "T-N2", "P-CSC",
    )
    for check_id in conditional:
        rep = run_check(spec, check_id, grid)
        assert rep.verdict == "hypothesis-not-met", (check_id, rep.verdict)
        assert rep.hypothesis_residuals["soliton_residual"] > 1e-7
    # The unconditional checks still pass on the same input.
    for check_id in ("trace_lie2", "bochner", "schur"):
        assert run_check(spec, check_id, grid).verdict == "identity-holds"


def test_tc_integral_hypothesis_on_nonsoliton():
    # int Ric(grad f, grad f) for f = cos(th) on the unit sphere is 8 pi / 3,
    # so the nonpositivity gate must report that exact violation.
    ch = sphere2()
    spec = SolitonSpec(
        name="cos-th", chart=ch, kind="yamabe", lam=1.0, mu=2.0,
        potential=scalar_field(ch, "cos(th)"),
    )
    rep = evaluate_theorem("T-C", spec, grid_for(ch))
    assert rep.verdict == "hypothesis-not-met"
    assert abs(rep.integrals["int_ric_xi_xi"] - 8 * math.pi / 3) < 1e-10
    assert abs(
        rep.hypothesis_residuals["int_ric_xi_xi_nonpositive"]
        - 8 * math.pi / 3
    ) < 1e-10



@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["yamabe", "ricci"])
def test_flat_box_soliton_pins_prop_p2(kind, n):
    # On [-1,1]^n with the identity metric, f = a|x|^2/2 has Hess f = a g,
    # grad f = a x and L_xi L_xi g = 4a^2 g, so it is an exact soliton of
    # either kind with mu = 4a^2 + 2 lambda a.  tr L_xi L_xi g = 4a^2 n gates
    # prop_p2, but its residual keeps a closed form: (1/2) lap |grad f|^2 =
    # |Hess f|^2 = div(nabla_{grad f} grad f) = a^2 n, which leaves
    # 2a^2 n/(n-1) for yamabe and 2a^2 n for ricci.
    a, lam = 0.3, 1.0
    coords = ("x", "y", "z")[:n]
    box = chart(f"box{n}", coords, (-1.0,) * n, (1.0,) * n, (False,) * n,
                [["1" if i == j else "0" for j in range(n)]
                 for i in range(n)])
    f = scalar_field(box, f"{a}*({'+'.join(c + '^2' for c in coords)})/2")
    spec = scratch_soliton(f, kind, lam=lam, mu=4 * a * a + 2 * lam * a)
    rep = run_check(spec, "prop_p2", default_grid(box, (8,) * n))
    tol = rep.tolerances["pointwise"]
    hyp = rep.hypothesis_residuals
    assert rep.verdict == "hypothesis-not-met"
    assert hyp["soliton_residual"] <= 1e-12
    assert hyp["div_lie2_max"] <= 1e-12
    assert abs(hyp["trace_lie2_max"] - 4 * a * a * n) <= tol
    want = 2 * a * a * n / (n - 1) if kind == "yamabe" else 2 * a * a * n
    assert abs(rep.residuals["prop_p2"] - want) <= tol

# Each check's premises, read from its statement's docstring, as the
# hypothesis keys of its report: a dropped gate shows here even where every
# bundled soliton meets it.  The unconditional identities have none.
_S, _TF, _DF = "soliton_residual", "trace_lie2_max", "div_lie2_max"
PREMISES = {
    "trace_lie2": set(),
    "bochner": set(),
    "lemma_hessian": {_S, _TF},
    "div_lie": {_S, "grad_trace_lie2_max", _DF},
    "prop_p2": {_S, _TF, _DF},
    "contracted_trace": {_S, _TF},
    "remark_csc": {_S, "div_xi_deviation", "trace_lie2_deviation"},
    "schur": set(),
    "T-C": {_S, _TF, "int_ric_xi_xi_nonpositive"},
    "T-1": {_S, _TF, "kind", "ricci_pairing_lower_bound"},
    "T-2": {_S, _TF, "kind", "ricci_pairing_lower_bound"},
    "T-COR": {_S, _TF, "lam_int_g_gradf_gradr_nonpositive"},
    "T-SQ": {_S, _TF, "ricci_pairing_lower_bound"},
    "T-N2": {_S, _TF, _DF, "kind", "dimension_exceeds_two"},
    "P-CSC": {_S, _DF, "lam_int_ric_gradf_gradr_nonpositive"},
}


@pytest.mark.parametrize("check_id", CHECK_IDS)
def test_reports_gate_the_papers_premises(check_id):
    spec = bundled("sphere3_yamabe_trivial").soliton
    rep = evaluate_theorem(check_id, spec, default_grid(spec.chart, (8, 8, 8)))
    assert set(rep.hypothesis_residuals) == PREMISES[check_id]


def test_kind_mismatch_is_flagged_not_raised():
    ch = sphere2()
    rep = evaluate_theorem("T-1", trivial(ch, "ricci", 1.0), grid_for(ch))
    assert rep.verdict == "hypothesis-not-met"
    assert rep.hypothesis_residuals["kind"] == 1.0
    assert any("yamabe" in note for note in rep.notes)


def test_tn2_needs_three_dimensions():
    ch = sphere2()
    rep = evaluate_theorem("T-N2", trivial(ch, "yamabe", 2.0), grid_for(ch))
    assert rep.verdict == "hypothesis-not-met"
    assert rep.hypothesis_residuals["dimension_exceeds_two"] == 1.0
    ch3 = sphere3_hopf()
    rep = evaluate_theorem("T-N2", trivial(ch3, "yamabe", 6.0), grid_for(ch3))
    assert rep.verdict == "identity-holds"


def test_killing_vector_specs():
    flat = torus2()
    spec = SolitonSpec(
        name="torus-killing", chart=flat, kind="yamabe", lam=1.0, mu=0.0,
        vector=vector_field(flat, ("1", "0")),
    )
    grid = grid_for(flat)
    assert tc_killing_residual(spec, grid) <= 1e-12
    assert remark_csc(spec, grid).verdict == "identity-holds"
    assert evaluate_theorem("T-C", spec, grid).verdict == "identity-holds"

    prod = product_s2_s1()
    spec = SolitonSpec(
        name="rotation-killing", chart=prod, kind="yamabe", lam=1.0, mu=2.0,
        vector=vector_field(prod, ("0", "0", "1")),
    )
    grid = grid_for(prod)
    assert tc_killing_residual(spec, grid) <= 1e-12
    assert remark_csc(spec, grid).verdict == "identity-holds"


def test_killing_residual_values():
    ch = sphere2()
    assert killing_residual(vector_field(ch, ("0", "1"))) <= 1e-12
    spec = SolitonSpec(
        name="cos-th", chart=ch, kind="yamabe", lam=1.0, mu=2.0,
        potential=scalar_field(ch, "cos(th)"),
    )
    grid = default_grid(ch)
    x, _ = grid_nodes(ch, grid)
    expected = 2 * math.sqrt(2) * float(np.max(np.abs(np.cos(x[..., 0]))))
    assert abs(tc_killing_residual(spec, grid) - expected) < 1e-12
    assert tc_killing_residual(trivial(ch, "yamabe", 2.0), grid) == 0.0


# ----------------------------------------------------------- report plumbing


@given(
    res=st.floats(0, 1e-3),
    hyp=st.floats(0, 1e-3),
)
def test_verdict_lattice_property(res, hyp):
    grid = default_grid(torus2(), (8, 8))
    rep = _build_report(
        "trace_lie2", grid_frame(torus2(), grid), grid, Tolerances(),
        conclusions={"line": (res, 1e-8)},
        hypotheses={"gate": (hyp, 1e-7)},
    )
    if hyp > 1e-7:
        assert rep.verdict == "hypothesis-not-met"
    elif res <= 1e-8:
        assert rep.verdict == "identity-holds"
    else:
        assert rep.verdict == "violated"
    assert rep.max_residual == res


def test_report_fields_round_out():
    ch = sphere2()
    rep = check_contracted_trace(trivial(ch, "yamabe", 2.0), grid_for(ch))
    assert rep.check_id == "contracted_trace"
    assert rep.grid == TEST_COUNTS["sphere2"]
    assert rep.tolerances["pointwise"] == 1e-8
    assert set(rep.info) == {"mean_lhs", "mean_rhs"}


def test_pcsc_reports_trace_deviation_as_info():
    ch = sphere2()
    rep = evaluate_theorem("P-CSC", trivial(ch, "yamabe", 2.0), grid_for(ch))
    assert rep.verdict == "identity-holds"
    assert "trace_lie2_deviation" in rep.info
    assert "trace_lie2_max" not in rep.hypothesis_residuals


# ------------------------------------------------------------------ plumbing


def test_gradient_only_checks_reject_vector_specs():
    flat = torus2()
    spec = SolitonSpec(
        name="torus-killing", chart=flat, kind="yamabe", lam=1.0, mu=0.0,
        vector=vector_field(flat, ("1", "0")),
    )
    for check_id in ("bochner", "lemma_hessian", "T-1", "P-CSC"):
        with pytest.raises(SolitonError, match="gradient"):
            run_check(spec, check_id, grid_for(flat))


def test_every_check_reports_on_a_target_or_refuses_it():
    # schur reads a frame only; trace_lie2 and bochner also take a bare
    # field, bochner a ScalarField only; every other check a SolitonSpec.
    ch = torus2()
    grid = grid_for(ch)
    vector = vector_field(ch, ("1", "0"))
    targets = {
        "chart": ch,
        "scalar": scalar_field(ch, "sin(x)"),
        "vector": vector,
        "gradient spec": trivial(ch, "yamabe", 0.0),
        "vector spec": SolitonSpec(name="torus-killing", chart=ch,
                                   kind="yamabe", lam=1.0, mu=0.0,
                                   vector=vector),
    }
    takes = {
        "chart": {"schur"},
        "scalar": {"schur", "trace_lie2", "bochner"},
        "vector": {"schur", "trace_lie2"},
        "gradient spec": set(CHECK_IDS),
        "vector spec": set(CHECK_IDS) - set(GRADIENT_ONLY),
    }
    for name, target in targets.items():
        for check_id in CHECK_IDS:
            if check_id in takes[name]:
                rep = evaluate_theorem(check_id, target, grid)
                assert isinstance(rep, CheckReport), (name, check_id)
            else:
                with pytest.raises(SolitonError, match=re.escape(repr(check_id))):
                    evaluate_theorem(check_id, target, grid)


def test_spec_validation():
    ch = torus2()
    f = scalar_field(ch, "0")
    with pytest.raises(SolitonError, match="lambda"):
        SolitonSpec(name="bad", chart=ch, kind="yamabe", lam=0.0, mu=0.0,
                    potential=f)
    with pytest.raises(SolitonError, match="kind"):
        SolitonSpec(name="bad", chart=ch, kind="cigar", lam=1.0, mu=0.0,
                    potential=f)
    with pytest.raises(SolitonError, match="exactly one"):
        SolitonSpec(name="bad", chart=ch, kind="yamabe", lam=1.0, mu=0.0)
    with pytest.raises(SolitonError, match="exactly one"):
        SolitonSpec(name="bad", chart=ch, kind="yamabe", lam=1.0, mu=0.0,
                    potential=f, vector=vector_field(ch, ("1", "0")))


def test_unknown_check_id_lists_valid_ones():
    ch = torus2()
    with pytest.raises(SolitonError, match="T-SQ"):
        run_check(trivial(ch, "yamabe", 0.0), "bogus", grid_for(ch))


def test_unknown_check_id_is_rejected_before_any_work():
    ch = torus2()
    workspace.cache_clear()
    grid_frame.cache_clear()
    with pytest.raises(SolitonError, match="valid ids: trace_lie2, bochner"):
        evaluate_theorem("bogus", trivial(ch, "yamabe", 0.0))
    assert grid_frame.cache_info().misses == 0
    assert workspace.cache_info().misses == 0


# ------------------------------------------------------- the tracer contract


def load_tracer():
    """perfbench/tracer.py, imported by path and left as it is."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def test_tracer_check_names_exist():
    tracer = load_tracer()
    assert set(tracer.CHECK_IDS) == set(CHECK_IDS)
    for name in tracer.CHECK_FUNCTIONS.values():
        assert callable(getattr(solitons, name))


def test_named_entry_points_are_catalog_bindings():
    # The tracer times each named entry point as the span of its check id, so
    # each must give that id's report; the formula it checks is the docstring
    # of the statement its catalog row runs.
    spec = warped_random_solitons("yamabe", np.random.default_rng(7))[0]
    grid = grid_for(spec.chart)
    for check_id, name in load_tracer().CHECK_FUNCTIONS.items():
        target = spec.chart if check_id == "schur" else spec
        want = asdict(evaluate_theorem(check_id, target, grid))
        assert asdict(getattr(solitons, name)(target, grid)) == want, name
    for check_id, row in solitons._CATALOG.items():
        statement = getattr(row.conclude, "func", row.conclude)
        assert statement.__doc__, check_id


def test_run_check_passes_through_a_traced_name(monkeypatch):
    # The benchmark's tracer rebinds these module attributes and names the
    # span solitons.check.<id>; evaluate_theorem's span takes the id from its
    # first argument.  A dispatch that bypasses them goes untraced.
    tracer = load_tracer()
    seen = []

    def recorder(original, check_id=None):
        def record(*args, **kwargs):
            seen.append(check_id if check_id is not None else args[0])
            return original(*args, **kwargs)
        return record

    monkeypatch.setattr(solitons, "evaluate_theorem",
                        recorder(solitons.evaluate_theorem))
    for check_id, name in tracer.CHECK_FUNCTIONS.items():
        monkeypatch.setattr(solitons, name,
                            recorder(getattr(solitons, name), check_id))
    ch = torus2()
    spec = trivial(ch, "yamabe", 0.0)
    grid = default_grid(ch, (8, 8))
    for check_id in CHECK_IDS:
        seen.clear()
        run_check(spec, check_id, grid)
        assert check_id in seen, (check_id, seen)
