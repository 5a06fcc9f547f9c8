"""Write reference.json: the lambda-k values of the criterion-8 digraphs.

    python3 perfbench/record_reference.py

The values were recorded from the seed commit's solver and are the
reference the sweep workload checks its random digraphs against (together
with the semi-degree bound and monotonicity in k, which hold for any
digraph).  Re-record only when the generator itself changes.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from steinercycles import min_packing_number  # noqa: E402
from steinercycles.harness import random_digraph  # noqa: E402

from workloads import CORPUS_SEED, REFERENCE  # noqa: E402


def main():
    rng = random.Random(CORPUS_SEED)
    rows = []
    for _ in range(300):
        d = random_digraph(rng)
        values = [min_packing_number(d, k).value
                  for k in range(2, d.vertex_count + 1)]
        rows.append({"n": d.vertex_count, "arcs": [list(a) for a in d.arcs],
                     "values": values})
    REFERENCE.write_text(json.dumps({
        "generator": f"steinercycles.harness.random_digraph, "
                     f"random.Random({CORPUS_SEED}), 300 draws",
        "random_digraphs": rows,
    }, separators=(",", ":")) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
