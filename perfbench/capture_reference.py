"""Write perfbench/reference.json from the program at the current checkout.

Usage (from the root of a source checkout):

    PYTHONPATH=src python3 perfbench/capture_reference.py

The reference pins the outputs of the fixed cli-check invocations (exit
code, verdicts, residuals, integrals, describe values) and, per base chart,
the volume, the integral of the scalar curvature and its range, which the
warm corpus checks against.  Recapture only when an output is meant to
change, and say why in the change that does it.
"""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
from solitonlab.cli import main as cli_main  # noqa: E402


def _invoke(argv):
    sink = io.StringIO()
    with redirect_stdout(sink):
        code = cli_main(argv)
    return code, json.loads(sink.getvalue())


def main():
    invocations = {}
    fixed = [(f"{n}__check", ["check", n]) for n in inputs.SOLITON_MANIFESTS]
    fixed += [(f"{n}__describe", ["describe", n]) for n in inputs.BASE_CHARTS]
    fixed += [(f"{n}__integral{k}", ["integrate", n, text])
              for k, (n, text) in enumerate(inputs.SUITE_INTEGRALS)]
    for label, argv in fixed:
        code, report = _invoke(argv)
        invocations[label] = {"argv": argv, "exit_code": code,
                              "report": oracle.extract(argv[0], report)}
    charts = {}
    for name in inputs.BASE_CHARTS:
        described = invocations[f"{name}__describe"]["report"]
        _, integral = _invoke(["integrate", name, "r"])
        charts[name] = {"volume": described["volume"], "int_r": integral["value"],
                        "r_min": described["r_min"], "r_max": described["r_max"]}
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True).stdout.strip() or None
    data = {"captured_from": sha, "invocations": invocations, "charts": charts}
    oracle.REFERENCE.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {oracle.REFERENCE} ({len(invocations)} invocations)")


if __name__ == "__main__":
    main()
