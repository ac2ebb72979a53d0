"""Golden reports: the CLI's JSON reports on the corpus, pinned.

Each case is one in-process ``gfinv.cli.run`` call.  ``tests/reports.json``
holds, per case, its exit code, its stderr and its JSON report without
``timing``.  A change that is meant to keep behaviour leaves every case as
the file has it.  The cases are:

- ``synthesize`` of every corpus program from its ``init.gf``, with the
  template or the maximum degree of its ``expected.json``, except
  fast_dice_roller, whose search runs into its 60 s timeout;
- ``synthesize`` of nontermination from (4-X)/(2-X)^2, an init whose
  cut-off series tail has no known mass, at maximum degree 1;
- ``check`` of every known invariant, of half of it and of it plus 1;
- ``unroll --steps 30`` of every corpus program;
- ``chain`` of ``benchmarks/appendix_chain.txt``, plain and with
  ``--contraction 1/2``;
- ``expand "1/(1-X-Y)" --degree 8``.

After an intended change of behaviour, rewrite the file by running this
module as a script from the repository root, and review its diff:

    PYTHONPATH=src python tests/test_reports.py
"""

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

from gfinv.cli import run

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
GOLDEN = Path(__file__).resolve().parent / "reports.json"
NOT_SYNTHESIZED = {"fast_dice_roller"}  # its search runs into the 60 s timeout


def cases() -> dict:
    """Case name -> argv of ``gfinv``."""
    out = {}
    for d in sorted(p for p in BENCH.iterdir() if p.is_dir()):
        prog = str(d / "program.pgcl")
        init = ["--init", (d / "init.gf").read_text().strip()]
        expected = json.loads((d / "expected.json").read_text())
        if d.name not in NOT_SYNTHESIZED:
            opts = (["--template", str(d / expected["template"])] if "template" in expected
                    else ["--max-degree", str(expected["max_degree"])])
            out[f"synthesize {d.name}"] = ["synthesize", prog, *init, *opts]
        inv = expected.get("invariant")
        if "invariant_file" in expected:
            inv = (d / expected["invariant_file"]).read_text().strip()
        if inv is not None:
            for label, text in (("", inv), (" half", f"1/2*({inv})"),
                                (" plus 1", f"({inv}) + 1")):
                out[f"check {d.name}{label}"] = ["check", prog, *init, "--invariant", text]
        out[f"unroll {d.name}"] = ["unroll", prog, *init, "--steps", "30"]
    out["synthesize nontermination from (4-X)/(2-X)^2"] = [
        "synthesize", str(BENCH / "nontermination" / "program.pgcl"),
        "--init", "(4-X)/(2-X)^2", "--max-degree", "1"]
    chain = str(BENCH / "appendix_chain.txt")
    out["chain"] = ["chain", chain]
    out["chain contraction 1/2"] = ["chain", chain, "--contraction", "1/2"]
    out["expand 1/(1-X-Y)"] = ["expand", "1/(1-X-Y)", "--degree", "8"]
    return out


def outcome(argv) -> dict:
    """Exit code, stderr and report (without ``timing``) of one call."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = run(argv, out=buf)
    report = json.loads(buf.getvalue()) if buf.getvalue().strip() else None
    if report is not None:
        report.pop("timing", None)
    return {"exit": rc, "stderr": err.getvalue(), "report": report}


CASES = cases()


@functools.lru_cache(maxsize=None)
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_the_golden_file_has_every_case():
    assert sorted(golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_unchanged(name):
    assert outcome(CASES[name]) == golden()[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: outcome(argv) for name, argv in CASES.items()},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)
