"""Golden pin of the optimization pipeline's output.

For 30 seeds x {gcc, clang} trunk x every level, two digests must match
``tests/data/golden/pass_pipeline.json``:

* the ``module_fingerprint`` of the optimized IR, which covers every
  instruction and every ``DbgValue`` operand (affine expressions
  included), so any change in what salvage rewrites or kills shows;
* a digest of the ordered fired-defect records ``(defect_id, point,
  function, vreg/symbol)``, so any change in which ``ctx.fires`` calls a
  pass makes, or in what order, shows.

A pass speed-up must leave both unchanged.  Regenerate the file only
when a change is meant to alter pipeline output::

    PYTHONPATH=src python tests/test_pass_golden.py --write
"""

import hashlib
import json
import os
import sys

from repro.compilers import Compiler
from repro.compilers.frontend import FrontendSession
from repro.ir.clone import module_fingerprint

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden",
                           "pass_pipeline.json")
SEEDS = range(30)
FAMILIES = ("gcc", "clang")


def _fired_digest(hooks) -> str:
    digest = hashlib.sha256()
    for record in hooks.fired:
        context = record.context
        subject = context.get("vreg", context.get(
            "symbol", context.get("callee", "")))
        digest.update(f"{record.defect.defect_id}|{record.point}|"
                      f"{context.get('function', '')}|{subject}\n"
                      .encode("utf-8"))
    return digest.hexdigest()


def pipeline_digests():
    """``"seed/family/level" -> [ir fingerprint, fired digest]``."""
    compilers = [Compiler(family, "trunk") for family in FAMILIES]
    digests = {}
    for seed in SEEDS:
        session = FrontendSession(seed)
        for compiler in compilers:
            for level in compiler.levels:
                compilation = compiler.compile_ir(
                    session.ir_module(), level,
                    program_token=session.program_token)
                digests[f"{seed}/{compiler.family}/{level}"] = [
                    module_fingerprint(compilation.module),
                    _fired_digest(compilation.hooks)]
    return digests


def test_pass_pipeline_matches_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    actual = pipeline_digests()
    assert sorted(actual) == sorted(golden)
    drifted = [key for key in golden if actual[key] != golden[key]]
    assert not drifted, f"pipeline output drifted for {drifted[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(pipeline_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
