"""The paper scripts, run small: pinned output bytes and the paper's robustness claims;
the README's Library example, run as it stands; the README naming every export; and the
README's tables of state keys and sweep variables matching those of ``npsteer.statespec``,
and its rows of the product criteria matching the shifts in ``npsteer.criteria``.

``script_goldens.json`` holds every CSV that ``scripts/figure_data.py --n-max 5``
and ``scripts/noise_robustness.py --steps 16`` write, and the stdout of the
second, as text. Record it again with ``python tests/test_scripts.py``.
"""
import csv
import importlib.util
import io
import json
import re
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import npsteer
from npsteer import criteria, statespec

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = Path(__file__).parent / "script_goldens.json"
RUNS = {
    "figure_data": ["--n-max", "5"],
    "noise_robustness": ["--steps", "16"],
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def run_script(name: str, out_dir: Path) -> dict:
    """Run one script into ``out_dir``; its CSVs by file name, and its stdout (noise_robustness)."""
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert _load(name).main(["--out-dir", str(out_dir), *RUNS[name]]) == 0
    outputs = {p.name: p.read_text() for p in sorted(out_dir.glob("*.csv"))}
    if name == "noise_robustness":  # figure_data's stdout names the output paths
        outputs["stdout"] = stdout.getvalue()
    return outputs


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return {name: run_script(name, tmp_path_factory.mktemp(name)) for name in RUNS}


def rows(text: str) -> list[dict]:
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


@pytest.mark.parametrize("name", RUNS)
def test_script_outputs_are_pinned(outputs, name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    assert sorted(outputs[name]) == sorted(golden)
    for entry, text in golden.items():
        assert outputs[name][entry] == text, f"{name}: {entry}"


def test_gaussian_thresholds_follow_the_large_mean_rules(outputs):
    table = rows(outputs["noise_robustness"]["gaussian_thresholds.csv"])
    assert [row["mean"] for row in table] == [50.0, 100.0, 200.0, 400.0]
    for row in table:
        assert 0.97 <= row["ent_n_var"] / (row["mean"] / 2.0) <= 1.0
        assert 0.97 <= row["steer_n_var"] / (row["mean"] / 8.0) <= 1.0


@pytest.mark.parametrize("name,entry,columns", [
    ("noise_robustness", "poissonian_margins.csv", ("ent_margin", "steer_margin")),
    ("noise_robustness", "thermal_margins.csv", ("ent_margin", "steer_margin")),
    ("figure_data", "poissonian.csv", ("np_ent_margin", "np_steer_margin")),
    ("figure_data", "thermal.csv", ("np_ent_margin", "np_steer_margin")),
])
def test_poissonian_and_thermal_dephasing_certify_nothing(outputs, name, entry, columns):
    table = rows(outputs[name][entry])
    assert table
    for row in table:
        for column in columns:
            assert row[column] < 0.0, (entry, row)


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme_library"}
    exec(compile(block, "<README Library block>", "exec"), namespace)
    assert (tmp_path / "s.csv").stat().st_size > 0
    assert type(namespace["mix"]).__name__ == "SectorMixture"
    assert "NP_ENT" in capsys.readouterr().out


def test_every_export_is_named_in_the_readme():
    readme = (ROOT / "README.md").read_text()
    assert [name for name in npsteer.__all__ if not re.search(rf"\b{name}\b", readme)] == []


def readme_rows(after: str) -> list[list[str]]:
    """The rows of the first Markdown table after the text ``after`` in the README, header
    and rule left out: each row a list of its cells' text."""
    lines = (ROOT / "README.md").read_text().split(after, 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.lstrip().startswith("|"))
    rows = []
    for line in lines[start + 2:]:
        if not line.lstrip().startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split("|")])
    return rows


def readme_table(after: str) -> list[list[list[str]]]:
    """``readme_rows(after)``, each cell the names in backticks in it."""
    return [[re.findall(r"`([^`]+)`", cell) for cell in row] for row in readme_rows(after)]


def key_columns(table: dict) -> list[list[list[str]]]:
    """Rows of name, required keys and optional keys, as the README tables list them."""
    return [
        [[name], [k for k, (_, req) in keys.items() if req],
         [k for k, (_, req) in keys.items() if not req]]
        for name, (keys, _) in table.items()
    ]


def test_readme_state_tables_match_the_spec_tables():
    assert readme_table("## State descriptions") == key_columns(statespec._FAMILIES)
    assert readme_table("object with a `kind` key") == key_columns(statespec._NOISE)


def test_readme_sweep_table_matches_the_sweep_keys():
    want = []
    for var, path in statespec.SWEEP_KEYS.items():
        # the families with the path's first key, then, for a noise key, the kinds that have it
        owners = [f for f, (keys, _) in statespec._FAMILIES.items() if path[0] in keys]
        if len(path) > 1:
            owners += [n for n, (keys, _) in statespec._NOISE.items() if path[-1] in keys]
        want.append([[var], [".".join(path)], owners])
    assert readme_table("Each sweep variable sets one key") == want


def test_readme_criteria_rows_match_the_product_shifts():
    """Each product criterion's row reads lhs (Δ²N + s) D² and bound s, s its shift."""
    rows = {row[0]: row for row in readme_rows("## Criteria reference")}
    for cid, (shift, _) in criteria.PRODUCT_CRITERIA.items():
        lhs, bound = rows[f"`{cid}`"][1:3]
        added = re.fullmatch(r"`\(Δ²N(_j|) \+ (\S+)\) D\1²`", lhs)
        assert added and Fraction(added[2]) == Fraction(bound) == Fraction(shift), (cid, lhs, bound)


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: run_script(name, Path(tmp) / name) for name in RUNS}
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {GOLDEN_PATH}")
