"""Seeded inputs for the three benchmark workloads.

Everything the program receives is built here from the run's seed: the
generated manifests (random gradient potentials, perturbed fit starts) and the
warm corpus plan (random potentials, vector fields and integrands per chart).
The same seed gives the same inputs, and every seed gives inputs of the same
shape and expression length, so the cost of a pass does not depend on it.

The term tables give globally smooth fields on each chart: scalar terms extend
across seams and poles, and non-periodic vector components vanish at the axis
ends.  That is what makes the integral identities of the corpus exact zeros.
"""

import json
import random
from pathlib import Path

# The six base charts of the library loop; bundled manifest name -> chart name.
BASE_CHARTS = {
    "sphere2": "sphere2",
    "sphere3": "sphere3",
    "torus2": "torus2",
    "torus3": "torus3",
    "product_s2_s1": "s2xs1",
    "warped_sphere": "warped",
}

# Bundled manifests that carry a soliton block.
SOLITON_MANIFESTS = (
    "sphere2_nonsoliton_ricci",
    "sphere2_nonsoliton_yamabe",
    "sphere2_ricci_trivial",
    "sphere2_yamabe_trivial",
    "sphere3_ricci_trivial",
    "sphere3_yamabe_trivial",
    "torus2_killing_vector",
    "torus2_ricci_trivial",
    "torus2_yamabe_trivial",
)

# The fixed integrals of scripts/run_suite.py, copied so that the workload
# does not change when that script does.
SUITE_INTEGRALS = (
    ("sphere2", "1"),
    ("sphere2", "r"),
    ("sphere2_nonsoliton_yamabe", "ric(gradf,gradf)"),
    ("sphere2_nonsoliton_yamabe", "g(gradf, gradr)"),
    ("sphere2_nonsoliton_yamabe", "lap(f)"),
    ("torus2_killing_vector", "g(xi,xi)"),
    ("warped_sphere", "r^2"),
)

# Charts without a bundled soliton manifest; cli-check adds one generated
# manifest on each.
GENERATED_CHECK_CHARTS = ("torus3", "product_s2_s1")

FIT_MANIFESTS = ("torus2_fit_ricci", "sphere2_fit_yamabe")

SCALAR_TERMS = {
    "sphere2": ("cos(th)", "cos(th)^2", "sin(th)*cos(ph)", "sin(th)*sin(ph)"),
    "warped": ("cos(th)", "cos(th)^2", "sin(th)*cos(ph)", "sin(th)*sin(ph)"),
    "sphere3": (
        "cos(2*eta)",
        "cos(eta)*cos(x1)",
        "sin(eta)*sin(x2)",
        "cos(eta)*sin(x1)*sin(eta)*cos(x2)",
    ),
    "torus2": ("sin(x)", "cos(y)", "sin(x)*cos(y)", "cos(2*x)"),
    "torus3": ("sin(x)", "cos(y)*sin(z)", "cos(x)*cos(z)", "sin(2*y)"),
    "s2xs1": ("cos(th)", "sin(th)*cos(ph)", "cos(ps)", "cos(th)*sin(ps)"),
}

VECTOR_TERMS = {
    "sphere2": (
        ("sin(th)", "sin(th)*cos(th)", "sin(th)*cos(ph)", "sin(th)*sin(ph)"),
        SCALAR_TERMS["sphere2"],
    ),
    "warped": (
        ("sin(th)", "sin(th)*cos(th)", "sin(th)*cos(ph)", "sin(th)*sin(ph)"),
        SCALAR_TERMS["warped"],
    ),
    "sphere3": (
        ("sin(2*eta)", "sin(2*eta)*cos(2*eta)", "sin(2*eta)*cos(x1)",
         "sin(2*eta)*sin(x2)"),
        SCALAR_TERMS["sphere3"],
        SCALAR_TERMS["sphere3"],
    ),
    "torus2": (SCALAR_TERMS["torus2"], SCALAR_TERMS["torus2"]),
    "torus3": (SCALAR_TERMS["torus3"],) * 3,
    "s2xs1": (
        ("sin(th)", "sin(th)*cos(th)", "sin(th)*cos(ps)", "sin(th)*sin(ph)"),
        SCALAR_TERMS["s2xs1"],
        SCALAR_TERMS["s2xs1"],
    ),
}

# Extended-grammar integrands of the warm corpus and the value each must
# integrate to: "volume" and "int_r" come from the reference file, 0 is exact
# on these closed manifolds (divergence theorem, integration by parts, and
# the integrated Bochner formula).  {s} is a second random scalar written in
# the coordinates only.
CORPUS_INTEGRANDS = (
    ("1", "volume"),
    ("r", "int_r"),
    ("lap(f)", 0.0),
    ("lap({s})", 0.0),
    ("g(gradf,gradf) + f*lap(f)", 0.0),
    ("norm2_hess(f) + ric(gradf,gradf) - lap(f)^2", 0.0),
)


def _lin(rng, terms):
    coeffs = [rng.uniform(-0.6, 0.6) for _ in range(len(terms) + 1)]
    parts = [f"{coeffs[0]:.3f}"]
    parts += [f"{c:.3f}*{t}" for c, t in zip(coeffs[1:], terms)]
    return " + ".join(parts)


def random_scalar(rng, chart_name):
    return _lin(rng, SCALAR_TERMS[chart_name])


def random_vector(rng, chart_name):
    return [_lin(rng, terms) for terms in VECTOR_TERMS[chart_name]]


def _soliton_constants(rng):
    kind = rng.choice(("ricci", "yamabe"))
    lam = round(rng.uniform(0.5, 1.5), 3) * rng.choice((-1, 1))
    mu = round(rng.uniform(-1.0, 1.0), 3)
    return kind, lam, mu


def _bundled_json(root, name):
    path = Path(root) / "src" / "solitonlab" / "manifests" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def write_check_manifests(root, work, seed):
    """One manifest per chart in GENERATED_CHECK_CHARTS with a seeded random
    gradient potential; returns {label: path}."""
    rng = random.Random(f"cli-check/{seed}")
    out = {}
    for name in GENERATED_CHECK_CHARTS:
        data = _bundled_json(root, name)
        kind, lam, mu = _soliton_constants(rng)
        data["soliton"] = {
            "kind": kind,
            "potential": {"gradient": random_scalar(rng, BASE_CHARTS[name])},
            "lambda": lam,
            "mu": mu,
        }
        path = Path(work) / f"generated_{name}.json"
        path.write_text(json.dumps(data, indent=2), encoding="utf-8")
        out[f"generated_{name}"] = str(path)
    return out


def write_fit_manifests(root, work, seed):
    """The bundled fit manifests with slightly perturbed starting values.

    The perturbation is small enough that both fits still converge to the
    outcomes the acceptance gate asserts (criterion 6)."""
    rng = random.Random(f"cli-fit/{seed}")
    out = {}
    for name in FIT_MANIFESTS:
        data = _bundled_json(root, name)
        init = data["fit"]["init"]
        init["coefficients"] = [
            round(float(c) + rng.uniform(-2e-3, 2e-3), 6)
            for c in init["coefficients"]
        ]
        init["lambda"] = round(float(init["lambda"]) + rng.uniform(-0.01, 0.01), 6)
        init["mu"] = round(float(init["mu"]) + rng.uniform(-0.01, 0.01), 6)
        path = Path(work) / f"perturbed_{name}.json"
        path.write_text(json.dumps(data, indent=2), encoding="utf-8")
        out[name] = str(path)
    return out


def corpus_plan(seed):
    """Per chart: one random gradient potential, one random vector field and
    the integrand list, whose coordinate-only integrand uses a second random
    scalar."""
    rng = random.Random(f"warm-corpus/{seed}")
    plan = []
    for manifest_name, chart_name in BASE_CHARTS.items():
        potential = random_scalar(rng, chart_name)
        vector = random_vector(rng, chart_name)
        other = random_scalar(rng, chart_name)
        integrands = [
            (text.format(s=other), expect) for text, expect in CORPUS_INTEGRANDS
        ]
        plan.append({
            "manifest": manifest_name,
            "chart": chart_name,
            "potentials": [potential],
            "vectors": [vector],
            "integrands": integrands,
        })
    return plan
