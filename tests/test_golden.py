"""Outputs pinned to values recorded before the sector-native state core.

``golden_outputs.json`` holds, for fixed inputs, the sha256 of the ``sample``
CSV bytes with the exact ``d2_hat`` and ``std_error`` (2,000 shots, seed
2020), and every ``ObservableReport`` field of the six ``eval`` states the
benchmark evaluates. A change of representation must reproduce them: the
sample streams byte for byte, the report within 1e-12 relative.

Its ``bytes`` entries hold the sha256 of whole outputs recorded before the
output tables were built from their column lists: the ``eval`` stdout
(verdict lines and JSON or CSV payload) and the ``sweep`` and ``curves``
files. ``{out}`` in an argv stands for the output file.

Its ``chunked_samples`` entries were recorded before the bootstrap moved to a
helper thread and the CSV writer to chunks: a run long enough to span many
writer chunks, run again with index draws split into several chunks.
"""
import hashlib
import json
import warnings
from pathlib import Path

import pytest

from npsteer import phase_povm
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


@pytest.mark.parametrize("draw_chunk", [phase_povm.DRAW_CHUNK, 1 << 15])
@pytest.mark.parametrize("case", GOLDEN["chunked_samples"], ids=lambda c: json.dumps(c["spec"]))
def test_chunked_sample_outputs_are_pinned(case, draw_chunk, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(phase_povm, "DRAW_CHUNK", draw_chunk)
    out = tmp_path / "s.csv"
    argv = ["sample", "--state", json.dumps(case["spec"]), "--shots", str(case["shots"]),
            "--seed", str(case["seed"]), "--out", str(out)]
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert case["shots"] > 4 * phase_povm.CSV_CHUNK_ROWS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == case["sha256"]
    est_bytes = (tmp_path / "s.csv.est.json").read_bytes()
    assert hashlib.sha256(est_bytes).hexdigest() == case["est_sha256"]
    est = json.loads(est_bytes)
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


@pytest.mark.parametrize("case", GOLDEN["bytes"], ids=lambda c: " ".join(c["argv"][:1] + c["argv"][2:]))
def test_output_bytes_are_pinned(case, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [arg.replace("{out}", str(out)) for arg in case["argv"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli_main(argv) == 0
    stdout = capsys.readouterr().out
    data = stdout.encode() if case["output"] == "stdout" else out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == case["sha256"]
