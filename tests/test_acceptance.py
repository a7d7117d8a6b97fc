"""Acceptance gate: one test per shipping criterion.

Each criterion prints a single PASS/FAIL line through the capture bypass so
the gate's outcome is visible in any pytest run.  Budgets are wall-clock
seconds measured around exactly the work the criterion names.
"""

import importlib.util
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from conftest import random_scalar, random_vector
from test_geometry import grad_laplacian
from solitonlab.fitting import BasisExpansion, FitProblem
from solitonlab.geometry import (
    div_sym2,
    div_vector,
    frame,
    gradient_vector_jets,
    hessian,
    laplacian,
    lie_metric_jets,
    norm2_sym2,
    raise_covec,
    ric_vv,
    scalar_field,
    scalar_jets,
    vector_jets,
)
from solitonlab.manifest import bundled
from solitonlab.quadrature import default_grid, grid_nodes
from solitonlab.solitons import (
    SolitonSpec,
    _phi_laplacian,
    check_schur,
    grid_frame,
    identity_bochner,
    identity_div_lie,
    identity_trace_lie2,
    run_check,
)

SUITE = ("sphere2", "sphere3", "torus2", "torus3", "product_s2_s1",
         "warped_sphere")
FIELD_SEED = 20260816
VECTOR_SEED = 918273


@contextmanager
def announced(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: PASS")


def suite_scalars(ch, rng):
    return [random_scalar(ch, rng) for _ in range(10)]


def test_criterion_1_curvature_oracle(capsys):
    with announced(capsys, "1 curvature oracle"):
        for name in ("sphere2", "sphere3", "torus2", "torus3"):
            ch = bundled(name).chart
            start = time.perf_counter()
            fr = grid_frame(ch)
            n = ch.dim
            if name.startswith("sphere"):
                assert float(np.max(np.abs(fr.r - n * (n - 1)))) <= 1e-9
                dev = fr.Ric - (n - 1) * fr.g
                assert float(np.sqrt(np.max(norm2_sym2(fr, dev)))) <= 1e-9
            else:
                assert float(np.max(np.abs(fr.r))) == 0.0
                assert float(np.max(np.abs(fr.Ric))) == 0.0
            assert time.perf_counter() - start < 5.0


def test_criterion_2_unconditional_identities(capsys):
    with announced(capsys, "2 unconditional identity suite"):
        rng = np.random.default_rng(FIELD_SEED)
        start = time.perf_counter()
        worst = 0.0
        per_chart = {}
        for name in SUITE:
            chart_start = time.perf_counter()
            ch = bundled(name).chart
            schur = check_schur(ch)
            assert schur.verdict == "identity-holds"
            worst = max(worst, schur.max_residual)
            for f in suite_scalars(ch, rng):
                spec = SolitonSpec(name=ch.name, chart=ch, kind="yamabe",
                                   lam=1.0, mu=0.0, potential=f)
                trace = identity_trace_lie2(spec)
                boch = identity_bochner(spec)
                div = identity_div_lie(spec)
                assert trace.verdict == "identity-holds"
                assert boch.verdict == "identity-holds"
                worst = max(worst, trace.max_residual, boch.max_residual,
                            div.residuals["div_lie_formula"])
            per_chart[name] = time.perf_counter() - chart_start
        elapsed = time.perf_counter() - start
        assert worst <= 1e-8
        breakdown = ", ".join(f"{k} {v:.1f} s" for k, v in per_chart.items())
        assert elapsed < 60.0, f"{elapsed:.1f} s in all: {breakdown}"


def test_criterion_3_closed_form_spot_checks(capsys):
    with announced(capsys, "3 closed-form spot checks"):
        ch = bundled("sphere2").chart
        f = scalar_field(ch, "cos(th)")

        x = np.array([[math.pi / 4, 0.3]])
        fr = frame(ch, x)
        sj = scalar_jets(f, x, order=4)
        gradf = raise_covec(fr, sj[1])
        lhs = 0.5 * _phi_laplacian(fr, sj)
        rhs = (
            norm2_sym2(fr, hessian(fr, sj))
            + ric_vv(fr, gradf, gradf)
            + np.einsum("...a,...a->...", grad_laplacian(fr, sj), gradf)
        )
        assert abs(float(lhs[0]) - 0.5) <= 1e-10
        assert abs(float(rhs[0]) - 0.5) <= 1e-10

        x = np.array([[math.pi / 2, 1.2]])
        fr = frame(ch, x)
        sj = scalar_jets(f, x, order=4)
        gradf = raise_covec(fr, sj[1])
        T, dT = lie_metric_jets(fr, gradient_vector_jets(fr, sj))
        lhs = div_sym2(fr, T, dT)[..., 0]
        rhs = (
            2.0 * grad_laplacian(fr, sj)[..., 0]
            + 2.0 * np.einsum("...b,...b->...", fr.Ric[..., 0, :], gradf)
        )
        assert abs(float(lhs[0]) - 2.0) <= 1e-10
        assert abs(float(rhs[0]) - 2.0) <= 1e-10

        grid = default_grid(ch)
        x, w = grid_nodes(ch, grid)
        fr = grid_frame(ch)
        sj = scalar_jets(f, x, order=3)
        gradf = raise_covec(fr, sj[1])
        pairing = float(np.sum(ric_vv(fr, gradf, gradf) * w * fr.sqrtg))
        volume = float(np.sum(w * fr.sqrtg))
        assert abs(pairing - 8 * math.pi / 3) <= 1e-7
        assert abs(volume - 4 * math.pi) <= 1e-8


TRIVIAL_MANIFESTS = (
    "sphere2_yamabe_trivial",
    "sphere2_ricci_trivial",
    "sphere3_ricci_trivial",
    "sphere3_yamabe_trivial",
    "torus2_yamabe_trivial",
    "torus2_ricci_trivial",
)
VERDICT_TAGS = ("T-C", "T-1", "T-2", "T-COR", "T-SQ", "T-N2", "P-CSC",
                "remark_csc")


def applicable(tag, spec):
    if tag == "T-1":
        return spec.kind == "yamabe"
    if tag == "T-2":
        return spec.kind == "ricci"
    if tag == "T-N2":
        return spec.kind == "yamabe" and spec.dim > 2
    return True


def test_criterion_4_theorem_verdicts(capsys):
    with announced(capsys, "4 theorem verdict suite"):
        start = time.perf_counter()
        for name in TRIVIAL_MANIFESTS:
            spec = bundled(name).soliton
            for tag in VERDICT_TAGS:
                rep = run_check(spec, tag)
                if applicable(tag, spec):
                    assert rep.verdict == "identity-holds", (name, tag)
                    assert rep.max_residual <= 1e-7, (name, tag)
                else:
                    assert rep.verdict == "hypothesis-not-met", (name, tag)
        for name in ("sphere2_nonsoliton_yamabe", "sphere2_nonsoliton_ricci"):
            spec = bundled(name).soliton
            for tag in VERDICT_TAGS:
                rep = run_check(spec, tag)
                assert rep.verdict == "hypothesis-not-met", (name, tag)
        assert time.perf_counter() - start < 60.0


def test_criterion_5_integration_by_parts(capsys):
    with announced(capsys, "5 integration-by-parts sanity"):
        rng = np.random.default_rng(FIELD_SEED)
        rng_vec = np.random.default_rng(VECTOR_SEED)
        for name in SUITE:
            ch = bundled(name).chart
            x, w = grid_nodes(ch, default_grid(ch))
            fr = grid_frame(ch)
            for f in suite_scalars(ch, rng):
                sj = scalar_jets(f, x, order=3)
                total = float(np.sum(laplacian(fr, sj) * w * fr.sqrtg))
                assert abs(total) <= 1e-8, (name, f.source)
            for _ in range(10):
                xi = random_vector(ch, rng_vec)
                vj = vector_jets(xi, x)
                div = div_vector(fr, vj[0], vj[1])
                total = float(np.sum(div * w * fr.sqrtg))
                assert abs(total) <= 1e-8, (name, xi.sources)


def test_criterion_6_fit_convergence(capsys):
    with announced(capsys, "6 fit convergence"):
        start = time.perf_counter()

        fit = bundled("torus2_fit_ricci").fit
        res = FitProblem(fit.kind, fit.basis).fit(fit.init)
        assert res.objective <= 1e-12
        assert abs(res.mu) <= 1e-6

        fit = bundled("sphere2_fit_yamabe").fit
        res = FitProblem(fit.kind, fit.basis).fit(fit.init)
        assert abs(res.mu - 2.0) <= 1e-6

        ch = bundled("sphere2").chart
        problem = FitProblem("ricci",
                             BasisExpansion(chart=ch, family="product",
                                            degree=1),
                             grid=default_grid(ch, (16, 16)))

        def stack_at(p):
            return problem.residual_stack((0.0, *p[:-2]), p[-2], p[-1])

        rng = np.random.default_rng(11)
        for _ in range(5):
            p = np.concatenate([
                rng.uniform(-0.2, 0.2, len(problem.terms) - 1),
                rng.uniform(0.5, 1.5, 1),
                rng.uniform(-0.5, 0.5, 1),
            ])
            y0 = stack_at(p)
            grad = 2.0 * problem._jacobian((0.0, *p[:-2]), p[-2]).T @ y0
            fd = np.zeros_like(grad)
            for j in range(len(p)):
                h = 1e-5 * max(1.0, abs(p[j]))
                plus, minus = p.copy(), p.copy()
                plus[j] += h
                minus[j] -= h
                yp, ym = stack_at(plus), stack_at(minus)
                fd[j] = (float(yp @ yp) - float(ym @ ym)) / (2 * h)
            scale = max(float(np.linalg.norm(fd)), 1e-12)
            assert float(np.linalg.norm(grad - fd)) / scale <= 1e-4

        assert time.perf_counter() - start < 120.0


def test_criterion_7_determinism(capsys, tmp_path):
    with announced(capsys, "7 determinism"):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_suite.py"
        spec = importlib.util.spec_from_file_location("run_suite", script)
        suite = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(suite)
        for sub in ("first", "second"):
            assert suite.main(["--out-dir", str(tmp_path / sub)]) == 0
        first = sorted((tmp_path / "first").glob("*.json"))
        second = sorted((tmp_path / "second").glob("*.json"))
        assert [p.name for p in first] == [p.name for p in second]
        assert first
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name
