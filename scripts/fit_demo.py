"""Potential-fitting walkthrough on two manifolds.

First the flat torus, where the Ricci fit has an exact minimum (any constant
potential, mu = 0) and the optimizer should drive the objective to roundoff.
Then the warped sphere, where no gradient Yamabe soliton exists; the fit
settles at a nonzero floor and the post-fit checks report
hypothesis-not-met, which is the honest reading of that landscape.
"""

import numpy as np

from solitonlab.fitting import BasisExpansion, FitInit, FitOptions, FitProblem
from solitonlab.manifest import bundled
from solitonlab.quadrature import default_grid
from solitonlab.solitons import run_check


def show(title, problem, result):
    print(f"== {title}")
    print(f"   terms      {problem.basis.terms()}")
    trail = ", ".join(f"{J:.3e}" for J in problem.history[:8])
    more = " ..." if len(problem.history) > 8 else ""
    print(f"   J trail    {trail}{more}")
    print(f"   J* = {result.objective:.3e}   mu* = {result.mu:.12g}   "
          f"lambda* = {result.lam:.6g}   iterations = {result.iterations}")
    print(f"   converged  {result.converged} ({result.reason}); "
          f"lambda clamp hit: {result.lam_clamped}")


def main():
    rng = np.random.default_rng(7)

    man = bundled("torus2_fit_ricci")
    ch = man.chart
    basis = BasisExpansion(chart=ch, family=man.fit.family,
                           degree=man.fit.degree)
    init = FitInit(coefficients=tuple(rng.normal(scale=0.2, size=5)),
                   lam=1.0, mu=0.5)
    problem = FitProblem(ch, man.fit.kind, basis)
    result = problem.fit(init)
    show("flat torus, Ricci kind, fourier degree 1", problem, result)
    print()

    man = bundled("warped_sphere")
    ch = man.chart
    basis = BasisExpansion(chart=ch, family="poly-cos", degree=2)
    problem = FitProblem(ch, "yamabe", basis,
                         grid=default_grid(ch, (32, 64)),
                         opts=FitOptions(max_iterations=25))
    result = problem.fit(FitInit(coefficients=(0.0, 0.1, 0.1), lam=1.0, mu=2.0))
    show("warped sphere, Yamabe kind, poly-cos degree 2", problem, result)
    for cid in ("remark_csc", "T-1"):
        rep = run_check(result.soliton, cid)
        print(f"   post-fit   {cid:12s} {rep.verdict} "
              f"(max residual {rep.max_residual:.3e})")


if __name__ == "__main__":
    main()
