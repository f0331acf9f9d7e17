#!/usr/bin/env python3
"""Walk the packaged mesh(6,6) -> jigsaw(3,2) dilution step by step.

Prints the vertex/edge counts along the way, verifies the final hypergraph
against the 3x2 jigsaw, and optionally writes the artifacts to a directory
for replay through the CLI (``hgdilute dilute mesh66.hg fig3.dseq``).
"""

import argparse
import os
import sys

from hgdilute.dilution import MergeOn, apply_sequence_states
from hgdilute.formats import fig3_sequence, write_hypergraph, write_sequence
from hgdilute.generators import jigsaw, mesh
from hgdilute.hypergraph import isomorphic


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", help="write mesh66.hg / fig3.dseq / result.hg here")
    args = parser.parse_args()

    source = mesh(6, 6)
    seq = fig3_sequence()
    states = apply_sequence_states(source, seq)
    print(f"source: {len(source.vertices)} vertices, {len(source.edges)} edges")
    for step, state in zip(seq.steps, states[1:]):
        kind = "merge" if isinstance(step, MergeOn) else "delete"
        arg = getattr(step, "vertex", None)
        print(f"  {kind:<6} {arg:<6} -> {len(state.vertices):>2} vertices, "
              f"{len(state.edges):>2} edges")
    result = states[-1]
    witness = isomorphic(result, jigsaw(3, 2))
    print(f"result: {len(result.vertices)} vertices, {len(result.edges)} edges; "
          f"isomorphic to the 3x2 jigsaw: {witness is not None}")

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for name, text in (
            ("mesh66.hg", write_hypergraph(source)),
            ("fig3.dseq", write_sequence(seq)),
            ("result.hg", write_hypergraph(result)),
        ):
            with open(os.path.join(args.out_dir, name), "w") as fh:
                fh.write(text)
        print(f"artifacts written to {args.out_dir}/")
    return 0 if witness is not None else 1


if __name__ == "__main__":
    sys.exit(main())
