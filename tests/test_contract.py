import contextlib
import difflib
import json

import pytest

from contract import corpus


def test_cli_outputs_match_the_committed_corpus(tmp_path):
    # Every manifest command in one pinned process; regen.py rewrites the
    # corpus after a change that alters an output on purpose.
    problem, found = corpus.outputs(tmp_path)
    if problem:
        pytest.fail(problem)
    want = corpus.expected()
    assert sorted(found) == sorted(want), "the manifest and the corpus name other commands"
    wrong = [(name, path) for name in sorted(want)
             for path in sorted(want[name].keys() | found[name].keys())
             if want[name].get(path) != found[name].get(path)]
    if wrong:
        name, path = wrong[0]
        diff = difflib.unified_diff(want[name].get(path, "").splitlines(),
                                    found[name].get(path, "").splitlines(),
                                    "expected", "found", lineterm="", n=1)
        pytest.fail(f"{len(wrong)} outputs differ from tests/contract/expected, "
                    f"first {name}/{path}:\n" + "\n".join(list(diff)[:40]))


def test_the_committed_corpus_keeps_its_budget():
    # regen.py refuses to write a corpus over budget; this catches one
    # edited by hand.
    assert corpus.size(corpus.expected()) <= corpus.BUDGET


def test_every_json_artifact_of_the_corpus_is_canonical():
    # Each JSON file under out/ and each stdout that is one JSON document
    # is json.dumps of its own value, indented and sorted, plus a newline.
    texts = {}
    for name, files in corpus.expected().items():
        for path, text in files.items():
            if path.startswith("out/") and path.endswith(".json"):
                texts[f"{name}/{path}"] = text
            elif path == "stdout":
                with contextlib.suppress(ValueError):
                    json.loads(text)
                    texts[f"{name}/{path}"] = text
    assert texts, "the corpus holds no JSON artifact"
    for where, text in texts.items():
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", where
