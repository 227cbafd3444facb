"""Reports stay byte-identical outside their timing block.

tests/report_digests.json maps the argv of a fast CLI command to its exit
code and the sha256 of its JSON report with `timing` removed, dumped with
sorted keys and indent=1.  Each command reruns in process through
`cli.main`; a change that alters the exit code or any number, label, order,
note or failure string in a report fails here.  After an
intended change to a report, regenerate the file and say why in CHANGES.md.
"""

import hashlib
import json
import os

import pytest

from rackhom import cli

with open(os.path.join(os.path.dirname(__file__), "report_digests.json")) as fh:
    DIGESTS = json.load(fh)


def report_digest(doc: dict) -> str:
    doc = dict(doc)
    doc.pop("timing", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True, indent=1).encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_report_digest_unchanged(argv, capsys):
    code = cli.main(argv.split())
    out = capsys.readouterr().out
    assert code == DIGESTS[argv]["exit"]
    assert report_digest(json.loads(out)) == DIGESTS[argv]["sha256"]
