"""Rewrite the output-contract corpus, tests/contract/expected, from the code.

    python tests/contract/regen.py

It runs the manifest as the contract test does (corpus.outputs, in a
temporary directory), replaces expected/ with what the commands gave, and
prints each file it added, changed or removed, then the corpus total.
Where the pin of corpus.py cannot hold, or the outputs would outgrow the
corpus budget (corpus.BUDGET bytes), it writes nothing and exits 1.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from corpus import BUDGET, EXPECTED, expected, outputs, size


def _flat(corpus: dict) -> dict:
    return {f"{name}/{path}": text for name, files in corpus.items()
            for path, text in files.items()}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        problem, found = outputs(Path(tmp))
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    total = size(found)
    if total > BUDGET:
        print(f"error: the corpus would hold {total:,} bytes, over its budget "
              f"of {BUDGET:,}", file=sys.stderr)
        return 1
    before, after = _flat(expected()), _flat(found)
    shutil.rmtree(EXPECTED, ignore_errors=True)
    for path, text in after.items():
        (EXPECTED / path).parent.mkdir(parents=True, exist_ok=True)
        (EXPECTED / path).write_bytes(text.encode("utf-8"))
    for path in sorted(before.keys() | after.keys()):
        if before.get(path) != after.get(path):
            change = ("added" if path not in before else
                      "removed" if path not in after else "changed")
            print(f"{change} tests/contract/expected/{path}")
    print(f"corpus: {total:,} bytes of a {BUDGET:,}-byte budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
