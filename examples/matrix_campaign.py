#!/usr/bin/env python3
"""Run the full evaluation matrix through the compile-once driver.

Demonstrates the matrix subsystem:

* ``run_matrix_campaign`` pushes every pool program through every
  (family x version x level x debugger) cell while paying the frontend
  — generate, validate, resolve, lower — **once per program**: cells
  mutate cheap clones of one shared IR lowering, and both debuggers
  observe one execution per compiled cell;
* every cell is bit-identical (``to_json()``) to the per-cell
  reference ``run_campaign_on_programs`` — one ``Compiler.compile`` per
  level over the same generated programs — only ~2x faster over the
  2-family grid (``run_campaign`` itself is the 1x1 matrix);
* per-seed lowered-module fingerprints ride in the artifact, so sharded
  runs can prove their workers lowered the same IR.

The same matrix is also available from the shell::

    repro-campaign --families gcc,clang --pool-size 24 \
        --output matrix.json
"""

import os
import time

from repro import (
    Compiler, GdbLike, MatrixCampaignResult, generate_validated,
    run_campaign_on_programs, run_matrix_campaign,
)

POOL = int(os.environ.get("POOL", "12"))


def main():
    started = time.perf_counter()
    matrix = run_matrix_campaign(pool_size=POOL,
                                 families=("gcc", "clang"))
    elapsed = time.perf_counter() - started
    print(f"matrix campaign: {POOL} programs, {len(matrix.cells)} "
          f"cells, {elapsed:.2f}s ({POOL / elapsed:.2f} programs/sec)\n")
    print(matrix.format_summary())

    # Any cell is exactly the per-cell reference over the same seeds.
    programs = [generate_validated(seed) for seed in range(POOL)]
    per_cell = run_campaign_on_programs(programs, Compiler("gcc", "trunk"),
                                        GdbLike())
    cell = matrix.cell("gcc", "trunk", "gdb-like")
    assert cell.to_json() == per_cell.to_json(), \
        "matrix cells must be bit-identical to the per-cell reference"

    # Artifacts round-trip exactly, fingerprints included.
    loaded = MatrixCampaignResult.from_json(matrix.to_json())
    assert loaded.to_json() == matrix.to_json()
    print(f"\n{len(matrix.fingerprints)} frontend fingerprints, "
          f"4 cells, artifact round-trips exactly.")


if __name__ == "__main__":
    main()
