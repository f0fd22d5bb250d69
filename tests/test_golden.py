"""Every report of every command on the committed fixture matches its
recorded sha256 (``golden_reports.py`` explains the fixture and how to
rewrite the table after a deliberate change)."""

import json

import golden_reports as golden


def test_reports_match_golden_digests(tmp_path):
    table = json.loads((golden.GOLDEN / "digests.json").read_text(encoding="utf-8"))
    cassette = (golden.GOLDEN / "cassette.json").read_bytes()
    digests = golden.run_digests(tmp_path)
    assert sorted(digests) == sorted(table), "the set of report files changed"
    changed = [rel for rel, digest in digests.items() if digest != table[rel]]
    assert not changed, f"reports differ from the golden digests: {changed}"
    # replaying never records
    assert (golden.GOLDEN / "cassette.json").read_bytes() == cassette
