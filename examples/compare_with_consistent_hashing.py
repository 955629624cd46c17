#!/usr/bin/env python
"""Reproduce (a scaled-down) figure 9: the local approach vs Consistent Hashing.

The paper compares the balance quality of its local approach against
Consistent Hashing with 32 and 64 partitions per node as 1..1024 homogeneous
nodes join.  This example runs a smaller instance (256 nodes, fewer runs) so
it finishes in a few seconds, prints the checkpoint table and draws an ASCII
chart; the full-size reproduction is ``repro run fig9`` (shape-checked by
``tests/test_paper_figures.py``).

Run with::

    python examples/compare_with_consistent_hashing.py
"""

from __future__ import annotations

from repro.experiments import render_result, run_fig9


def main() -> None:
    result = run_fig9(
        runs=5,
        n_nodes=256,
        vmins=(32, 128),
        ch_partitions=(32, 64),
        seed=42,
    )
    print(render_result(result, checkpoints=(1, 32, 64, 128, 192, 256)))

    # The paper's qualitative conclusion: with a well-chosen Vmin the local
    # approach beats CH at the same partition budget.
    local = result.get("local approach, Vmin=128").final()
    ch32 = result.get("CH, 32 partitions/node").final()
    print(
        f"\nfinal sigma at 256 nodes: local (Vmin=128) = {local:.2f}%  "
        f"vs  CH-32 = {ch32:.2f}%  -> local wins: {local < ch32}"
    )


if __name__ == "__main__":
    main()
