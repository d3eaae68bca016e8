"""Outputs pinned to values recorded before the sector-native state core.

``golden_outputs.json`` holds, for fixed inputs, the sha256 of the ``sample``
CSV bytes with the exact ``d2_hat`` and ``std_error`` (2,000 shots, seed
2020), and every ``ObservableReport`` field of the six ``eval`` states the
benchmark evaluates. A change of representation must reproduce them: the
sample streams byte for byte, the report within 1e-12 relative.
"""
import hashlib
import json
import warnings
from pathlib import Path

import pytest

from npsteer.cli import main as cli_main
from npsteer.observables import observable_report
from npsteer.statespec import parse_state_spec

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())

# Variances of number eigenstates sit at the rounding level of zero (1e-31 to
# 1e-27 here); a relative tolerance means nothing for them.
ZERO_LEVEL = 1e-20


@pytest.mark.parametrize("case", GOLDEN["samples"], ids=lambda c: json.dumps(c["spec"]))
def test_sample_stream_and_estimate_are_pinned(case, tmp_path, capsys):
    out = tmp_path / "s.csv"
    argv = ["sample", "--state", json.dumps(case["spec"]), "--shots", "2000",
            "--seed", "2020", "--out", str(out)]
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == case["sha256"]
    est = json.loads((tmp_path / "s.csv.est.json").read_text())
    assert est["d2_hat"] == case["d2_hat"]
    assert est["std_error"] == case["std_error"]


@pytest.mark.parametrize("case", GOLDEN["reports"], ids=lambda c: json.dumps(c["spec"]))
def test_report_fields_are_pinned(case):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = observable_report(parse_state_spec(json.dumps(case["spec"])).build())
    got = report.to_json_dict()
    assert list(got) == list(case["report"])
    for key, want in case["report"].items():
        assert got[key] == pytest.approx(want, rel=1e-12, abs=ZERO_LEVEL), key


def test_readme_verdict_lines_are_pinned(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("prints one line per criterion\n\n```\n", 1)[1].split("```", 1)[0]
    want = [line.split("  [")[0] for line in block.splitlines()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli_main(["eval", "--state", '{"family": "number_phase", "n": 2}']) == 0
    got = [line.split("  [")[0] for line in capsys.readouterr().out.splitlines()[: len(want)]]
    assert got == want
