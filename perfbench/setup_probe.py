"""Time what a user pays before the first call, in a fresh interpreter.

Reads ``{"graphs": [...], "decomps": [...]}`` (input texts) as JSON on
stdin, then times ``import widthiso`` plus parsing every text through
``widthiso.formats``.  Prints the elapsed seconds and the median time of
the interpreter speed probe taken right after.

    python3 perfbench/setup_probe.py <src-dir> < inputs.json
"""

import json
import statistics
import sys
import time

import speed

texts = json.load(sys.stdin)
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from widthiso import formats  # noqa: E402  (imports the whole package)

for text in texts["graphs"]:
    formats.parse_graph(text)
for text in texts["decomps"]:
    formats.parse_tree_decomposition(text)
elapsed = time.perf_counter() - start
print(elapsed, statistics.median(speed.probe() for _ in range(15)))
