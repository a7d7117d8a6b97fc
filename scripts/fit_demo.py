"""Potential-fitting walkthrough on two manifolds.

First the flat torus, where the Ricci fit has an exact minimum (any constant
potential, mu = 0) and the optimizer should drive the objective to roundoff.
Then the warped sphere, where no gradient Yamabe soliton exists; the fit
settles at a nonzero floor, ends with "no decrease at maximum damping", and
the post-fit checks report hypothesis-not-met, which is the honest reading
of that landscape.

The script exits non-zero when either fit does not end that way.
"""

import sys

import numpy as np

from solitonlab.fitting import BasisExpansion, FitInit, FitProblem
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
    init = FitInit(coefficients=tuple(rng.normal(scale=0.2, size=5)),
                   lam=1.0, mu=0.5)
    problem = FitProblem(man.fit.kind, man.fit.basis)
    result = problem.fit(init)
    show("flat torus, Ricci kind, fourier degree 1", problem, result)
    if not (result.converged and result.objective < 1e-20):
        return "the torus fit did not converge to J* < 1e-20"
    print()

    ch = bundled("warped_sphere").chart
    problem = FitProblem("yamabe", BasisExpansion(ch, "poly-cos", 2),
                         grid=default_grid(ch, (32, 64)))
    result = problem.fit(FitInit(coefficients=(0.0, 0.1, 0.1), lam=1.0, mu=2.0))
    show("warped sphere, Yamabe kind, poly-cos degree 2", problem, result)
    for cid in ("remark_csc", "T-1"):
        rep = run_check(result.soliton, cid)
        print(f"   post-fit   {cid:12s} {rep.verdict} "
              f"(max residual {rep.max_residual:.3e})")
    if (result.converged or result.reason != "no decrease at maximum damping"
            or not result.objective > 0.3):
        return ("the warped-sphere fit did not stop at its floor "
                "(no decrease at maximum damping, J* > 0.3)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
