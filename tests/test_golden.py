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

Its ``bytes`` entries were recorded again, all but that of ``curves``, when the
sums of products in the number moments and the noise distributions moved from
``np.dot`` to ``np.sum``: the bytes then stopped depending on the BLAS thread
count, and every number moved by rounding only.

Its ``chunked_samples`` entries were recorded before the bootstrap moved to a
helper thread and the CSV writer to chunks: a run long enough to span many
writer chunks, run again with index draws split into several chunks, with and
without the helper thread.

Its two ``mean`` sweeps, the last ``bytes`` entries, were recorded before a noise sweep
point reused the sectors of the point before it: a split_fock base whose supports cross
N = 300, where its kernel moves from exact binomials to log-factorials, and a poissonian
mixture whose support shifts and widens.

The ``eval`` entry of the poissonian(50) split_fock mixture was recorded again when the
exact verdicts' slack came to scale with the larger of |lhs| and |bound|. That state is
separable. Its HZ_ENT margin, -1.0e-10 against lhs = bound = 625, comes from rounding and
the trimmed Poisson tails, and the old entry pinned it as VIOLATED. The HZ_ENT line now
reads not violated, and every number keeps its bytes.
"""
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import npsteer
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


@pytest.mark.parametrize("helpers", [0, 1])
@pytest.mark.parametrize("draw_chunk", [phase_povm.DRAW_CHUNK, 1 << 15])
@pytest.mark.parametrize("case", GOLDEN["chunked_samples"], ids=lambda c: json.dumps(c["spec"]))
def test_chunked_sample_outputs_are_pinned(case, draw_chunk, helpers, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(phase_povm, "DRAW_CHUNK", draw_chunk)
    monkeypatch.setattr(phase_povm, "_helper_count", lambda: helpers)
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


def _bytes_case_id(case) -> str:
    return " ".join(case["argv"][:1] + case["argv"][2:])


def _output_bytes(case, tmp_path, capsys) -> bytes:
    out = tmp_path / "out"
    argv = [arg.replace("{out}", str(out)) for arg in case["argv"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli_main(argv) == 0
    stdout = capsys.readouterr().out
    return stdout.encode() if case["output"] == "stdout" else out.read_bytes()


@pytest.mark.parametrize("case", GOLDEN["bytes"], ids=_bytes_case_id)
def test_output_bytes_are_pinned(case, tmp_path, capsys):
    data = _output_bytes(case, tmp_path, capsys)
    assert hashlib.sha256(data).hexdigest() == case["sha256"]


# A squeezed state, a 400-photon mixture and a sweep of it: long sums, which BLAS would split
# across threads.
ONE_THREAD_CASES = [
    case for case in GOLDEN["bytes"]
    if case["argv"][2] in (
        '{"family": "tmss", "r": 2.0}',
        '{"family": "mixture", "base": "number_phase", "noise": '
        '{"kind": "gaussian", "mean": 400.0, "std": 10.0}}',
        '{"family": "mixture", "base": "number_phase", "phi": 0.7, "noise": '
        '{"kind": "gaussian", "mean": 400.0, "std": 10.0}}',
    ) and len(case["argv"]) in (3, 7)
]


@pytest.mark.parametrize("case", ONE_THREAD_CASES, ids=_bytes_case_id)
def test_output_bytes_do_not_depend_on_blas_threads(case, tmp_path, capsys):
    """The bytes of a child run with BLAS pinned to one thread, as the benchmark runs it,
    equal those of this process, whose BLAS uses every CPU unless the caller pinned it."""
    want = _output_bytes(case, tmp_path, capsys)
    out = tmp_path / "child"
    argv = [arg.replace("{out}", str(out)) for arg in case["argv"]]
    src = str(Path(npsteer.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    child = subprocess.run([sys.executable, "-m", "npsteer", *argv], env=env,
                           capture_output=True, check=True)
    got = child.stdout if case["output"] == "stdout" else out.read_bytes()
    assert got == want


@pytest.mark.parametrize("helpers", [0, 1])
@pytest.mark.parametrize("case", [c for c in GOLDEN["bytes"] if c["argv"][0] in ("eval", "sweep")],
                         ids=_bytes_case_id)
def test_output_bytes_do_not_depend_on_density_helpers(case, helpers, tmp_path, capsys,
                                                       monkeypatch):
    """The relative density shares its blocks with the helper threads; the bytes do not show it."""
    monkeypatch.setattr(phase_povm, "_helper_count", lambda: helpers)
    data = _output_bytes(case, tmp_path, capsys)
    assert hashlib.sha256(data).hexdigest() == case["sha256"]
