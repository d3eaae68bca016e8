import csv
import json
import math
import threading

import pytest

from npsteer import REPORT_FIELDS
from npsteer.cli import CURVE_COLUMNS, SWEEP_COLUMNS, main

# The criteria `eval` reports, in the order of its lines, payload and CSV columns.
EVAL_CRITERIA = (
    "NP_ENT",
    "NP_STEER",
    "NAIVE_ENT",
    "NAIVE_STEER",
    "HZ_ENT",
    "HZ_STEER_A_BY_B",
    "HZ_STEER_B_BY_A",
)

NP1 = '{"family": "number_phase", "n": 1}'
NP3 = '{"family": "number_phase", "n": 3}'
TMSS1 = '{"family": "tmss", "r": 1.0}'
POISSON3 = (
    '{"family": "mixture", "base": "number_phase", "noise": {"kind": "poissonian", "mean": 3.0}}'
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_json(out: str) -> dict:
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("{"))
    return json.loads("\n".join(lines[start:]))


def read_csv(path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames), list(reader)


def split_dispersion(n: int) -> float:
    e = sum(
        math.sqrt(math.comb(n, m) * math.comb(n, m - 1)) for m in range(1, n + 1)
    ) / 2.0**n
    return 1.0 - e * e


def assert_cannot_write(code, out, err, path):
    assert code == 2
    assert err == f"error: cannot write {path}: No such file or directory\n"
    assert out == ""


class TestEval:
    def test_flat_pair_state_report_and_verdicts(self, capsys, tmp_path):
        out_path = tmp_path / "eval.json"
        code, out, _ = run(
            capsys, "eval", "--state", NP1, "--out", str(out_path)
        )
        assert code == 0  # verdict content never drives the exit code
        lines = [line for line in out.splitlines() if line]
        assert [line.split()[0] for line in lines] == list(EVAL_CRITERIA)
        assert "VIOLATED" in lines[0]
        payload = json.loads(out_path.read_text())
        assert payload["spec"]["family"] == "number_phase"
        assert payload["report"]["d2_rel"] == pytest.approx(0.75, abs=1e-14)
        assert [v["id"] for v in payload["verdicts"]] == list(EVAL_CRITERIA)

    def test_payload_lands_on_stdout_without_out(self, capsys):
        code, out, _ = run(capsys, "eval", "--state", NP1)
        assert code == 0
        payload = stdout_json(out)
        assert payload["report"]["n_mean"] == pytest.approx(1.0)

    def test_squeezed_state_not_flagged_and_quadrature_value(self, capsys, tmp_path):
        out_path = tmp_path / "eval.json"
        code, out, _ = run(capsys, "eval", "--state", TMSS1, "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        by_id = {v["id"]: v for v in payload["verdicts"]}
        assert not by_id["NP_ENT"]["violated"]
        assert not by_id["NP_STEER"]["violated"]
        assert payload["report"]["quad_sum"] == pytest.approx(
            2.0 * math.exp(-2.0), rel=1e-6
        )

    def test_poissonian_mixture_not_flagged(self, capsys, tmp_path):
        spec = (
            '{"family": "mixture", "base": "number_phase",'
            ' "noise": {"kind": "poissonian", "mean": 5.0}}'
        )
        out_path = tmp_path / "eval.json"
        code, _, _ = run(capsys, "eval", "--state", spec, "--out", str(out_path))
        assert code == 0
        by_id = {v["id"]: v for v in json.loads(out_path.read_text())["verdicts"]}
        assert not by_id["NP_ENT"]["violated"]
        assert by_id["NAIVE_ENT"].get("advisory")  # wide phase density

    def test_csv_format_columns(self, capsys, tmp_path):
        out_path = tmp_path / "eval.csv"
        code, _, _ = run(
            capsys, "eval", "--state", NP1, "--format", "csv", "--out", str(out_path)
        )
        assert code == 0
        header, rows = read_csv(out_path)
        want = list(REPORT_FIELDS)
        for cid in EVAL_CRITERIA:
            want += [f"{cid.lower()}_margin", f"{cid.lower()}_violated"]
        assert header == want
        assert len(rows) == 1
        assert float(rows[0]["d2_rel"]) == pytest.approx(0.75, abs=1e-14)
        assert rows[0]["np_ent_violated"] == "1"
        assert rows[0]["hz_steer_a_by_b_violated"] == "0"

    def test_no_ansi_codes_when_not_a_tty(self, capsys):
        _, out, _ = run(capsys, "eval", "--state", NP1)
        assert "\x1b[" not in out

    def test_grid_flag_is_validated(self, capsys):
        code, _, err = run(capsys, "eval", "--state", NP1, "--grid", "63")
        assert code == 2
        assert "even" in err

    def test_unknown_family_exits_two_with_known_list(self, capsys):
        code, _, err = run(capsys, "eval", "--state", '{"family": "cat", "n": 1}')
        assert code == 2
        assert "tmss" in err and "split_fock" in err

    def test_missing_state_exits_two(self, capsys):
        code, _, err = run(capsys, "eval")
        assert code == 2
        assert "--state" in err

    def test_unattainable_truncation_exits_three(self, capsys):
        code, _, err = run(
            capsys, "eval", "--state", '{"family": "tmss", "r": 1.5, "cutoff": 10}'
        )
        assert code == 3
        assert "truncation" in err

    def test_squeezed_grid_over_the_array_limit_exits_three(self, capsys, refuse_large_arrays):
        code, out, err = run(capsys, "eval", "--state", '{"family": "tmss", "r": 5}')
        assert code == 3
        assert "at cutoff " in err and " x " in err and " bytes, over the " in err
        assert out == ""

    def test_squeezing_beyond_double_precision_exits_three(self, capsys):
        code, out, err = run(capsys, "eval", "--state", '{"family": "tmss", "r": 20}')
        assert code == 3
        assert "double precision" in err
        assert out == ""

    @pytest.mark.parametrize("t", [1.5, -0.5])
    def test_split_mixture_transmissivity_out_of_range_exits_two(self, capsys, t):
        spec = json.dumps({"family": "mixture", "base": "split_fock", "transmissivity": t,
                           "noise": {"kind": "poissonian", "mean": 3.0}})
        code, out, err = run(capsys, "eval", "--state", spec)
        assert code == 2
        assert "transmissivity" in err
        assert out == ""

    @pytest.mark.parametrize(
        "spec, flags",
        [
            (TMSS1, ["--tail-tol", "inf"]),  # was an OverflowError traceback, exit 1
            (POISSON3, ["--tail-tol", "inf"]),  # was exit 0 with a false NP_ENT violation
            (POISSON3, ["--tail-tol", "2"]),  # was exit 0, trimmed to n_mean 3.49
            (POISSON3, ["--tail-tol", "nan"]),
            (POISSON3, ["--tail-tol", "0"]),
            ('{"family": "tmss", "r": 1.0, "tail_tol": 1.5}', []),
        ],
    )
    def test_tail_tolerance_out_of_range_exits_two(self, capsys, spec, flags):
        code, out, err = run(capsys, "eval", "--state", spec, *flags)
        assert code == 2
        assert "tail_tol" in err
        assert out == ""

    def test_tail_tolerance_flag_error_names_the_flag_not_the_spec(self, capsys):
        code, out, err = run(capsys, "eval", "--state", TMSS1, "--tail-tol", "inf")
        assert code == 2
        assert err == "error: --tail-tol must be finite with 0 < tail_tol < 1, got inf\n"
        assert "bad state spec" not in err
        assert out == ""

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        path = tmp_path / "no" / "such" / "eval.json"
        code, out, err = run(capsys, "eval", "--state", NP1, "--out", str(path))
        assert_cannot_write(code, out, err, path)


class TestEvalAsserts:
    def test_matching_expectations_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--state", NP1,
            "--assert", "NP_ENT=violated,HZ_STEER_A_BY_B=ok",
        )
        assert code == 0
        assert "ASSERT OK" in out

    def test_mismatch_exits_one(self, capsys):
        code, out, _ = run(capsys, "eval", "--state", NP1, "--assert", "NP_ENT=ok")
        assert code == 1
        assert "ASSERT FAILED" in out
        assert "expected ok, got violated" in out

    def test_unknown_criterion_exits_two(self, capsys):
        code, _, err = run(capsys, "eval", "--state", NP1, "--assert", "FOO=violated")
        assert code == 2
        assert "FOO" in err

    def test_malformed_expression_exits_two(self, capsys):
        code, _, err = run(capsys, "eval", "--state", NP1, "--assert", "NP_ENT:bad")
        assert code == 2
        assert "ID=violated|ok" in err


class TestSweep:
    def test_split_dispersion_column_matches_closed_form(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        spec = '{"family": "split_fock", "n": 1}'
        code, out, _ = run(
            capsys, "sweep", "--state", spec,
            "--sweep", "N:0:20:1", "--out", str(out_path),
        )
        assert code == 0
        assert "21 sweep rows" in out
        header, rows = read_csv(out_path)
        assert header == list(SWEEP_COLUMNS)
        assert len(rows) == 21
        for row in rows:
            n = int(float(row["parameter"]))
            assert float(row["d2_rel"]) == pytest.approx(
                split_dispersion(n), abs=1e-12
            )
            assert float(row["n_var"]) == pytest.approx(0.0, abs=1e-15)
        # balanced splitting sits exactly on the steering boundary
        assert float(rows[4]["hz_steer_a_by_b_margin"]) == pytest.approx(0.0, abs=1e-12)

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = '{"family": "split_fock", "n": 1}'
        args = ["sweep", "--state", spec, "--sweep", "N:1:6:1"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_squeezing_sweep_keeps_dispersion_flat(self, capsys, tmp_path):
        out_path = tmp_path / "tmss.csv"
        code, _, _ = run(
            capsys, "sweep", "--state", '{"family": "tmss", "r": 0.1}',
            "--sweep", "r:0.25:1.5:0.25", "--out", str(out_path),
        )
        assert code == 0
        _, rows = read_csv(out_path)
        assert len(rows) == 6
        for row in rows:
            assert float(row["d2_rel"]) == pytest.approx(1.0, abs=1e-10)
            assert float(row["np_ent_margin"]) < 0.0  # never violated

    def test_noise_width_sweep_crosses_entanglement_threshold(self, capsys, tmp_path):
        out_path = tmp_path / "gauss.csv"
        spec = (
            '{"family": "mixture", "base": "number_phase",'
            ' "noise": {"kind": "gaussian", "mean": 200.0, "std": 5.0}}'
        )
        code, _, _ = run(
            capsys, "sweep", "--state", spec,
            "--sweep", "std:4:14:2", "--out", str(out_path),
        )
        assert code == 0
        _, rows = read_csv(out_path)
        margins = [float(row["np_ent_margin"]) for row in rows]
        assert margins[0] > 0.0  # narrow noise: still certified
        assert margins[-1] < 0.0  # wide noise: criterion goes silent
        flips = sum(
            1 for x, y in zip(margins, margins[1:]) if (x > 0) != (y > 0)
        )
        assert flips == 1

    def test_missing_range_or_output_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--state", NP1, "--out", str(tmp_path / "x.csv")
        )
        assert code == 2 and "--sweep" in err
        code, _, err = run(capsys, "sweep", "--state", NP1, "--sweep", "N:1:3:1")
        assert code == 2 and "--out" in err

    def test_json_format_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--state", NP1, "--sweep", "N:1:3:1",
            "--out", str(tmp_path / "x.csv"), "--format", "json",
        )
        assert code == 2
        assert "CSV" in err

    def test_empty_range_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--state", NP1, "--sweep", "N:5:1:1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "no points" in err

    def test_unknown_variable_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--state", NP1, "--sweep", "kappa:0:1:0.5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "kappa" in err

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        path = tmp_path / "no" / "such" / "sweep.csv"
        code, out, err = run(
            capsys, "sweep", "--state", NP1, "--sweep", "N:1:3:1", "--out", str(path)
        )
        assert_cannot_write(code, out, err, path)


class TestSample:
    def test_deterministic_outputs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--state", NP3, "--shots", "2000", "--seed", "11"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert (
            (tmp_path / "a.csv.est.json").read_bytes()
            == (tmp_path / "b.csv.est.json").read_bytes()
        )

    def test_sample_layout_and_estimate(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        code, out, _ = run(
            capsys, "sample", "--state", NP3, "--shots", "2000",
            "--seed", "11", "--out", str(out_path),
        )
        assert code == 0
        assert "d2_hat" in out
        header, rows = read_csv(out_path)
        assert header == ["shot_index", "phi1", "phi2"]
        assert len(rows) == 2000
        assert rows[0]["shot_index"] == "0"
        assert all(
            -math.pi <= float(row["phi1"]) < math.pi for row in rows[:50]
        )
        est = json.loads((tmp_path / "s.csv.est.json").read_text())
        assert est["shots"] == 2000 and est["seed"] == 11
        assert est["method"] == "bootstrap"
        assert est["n_var"] == pytest.approx(0.0, abs=1e-15)
        assert abs(est["d2_hat"] - 7.0 / 16.0) <= 5.0 * est["std_error"]
        by_id = {v["id"]: v for v in est["verdicts"]}
        assert by_id["NP_ENT"]["violated"] and by_id["NP_STEER"]["violated"]

    def test_sampled_assert_roundtrip(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "sample", "--state", NP3, "--shots", "500", "--seed", "3",
            "--out", str(tmp_path / "s.csv"), "--assert", "NP_ENT=violated",
        )
        assert code == 0
        assert "ASSERT OK" in out

    def test_large_z_withholds_the_claim(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "sample", "--state", NP3, "--shots", "500", "--seed", "3",
            "--out", str(tmp_path / "s.csv"), "--z", "1e6",
            "--assert", "NP_ENT=ok",
        )
        assert code == 0
        assert "ASSERT OK" in out

    @pytest.mark.parametrize("z", ["nan", "inf", "-1"])  # nan used to hide every violation
    def test_z_out_of_range_exits_two(self, capsys, tmp_path, z):
        code, out, err = run(
            capsys, "sample", "--state", NP3, "--shots", "100",
            "--out", str(tmp_path / "s.csv"), f"--z={z}",
        )
        assert code == 2
        assert "--z" in err
        assert out == ""
        assert not (tmp_path / "s.csv").exists()

    def test_zero_shots_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sample", "--state", NP3, "--shots", "0",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "shots" in err

    def test_missing_out_exits_two(self, capsys):
        code, _, err = run(capsys, "sample", "--state", NP3)
        assert code == 2
        assert "--out" in err

    def test_unwritable_out_exits_two_and_leaves_no_thread(self, capsys, tmp_path):
        threads = threading.active_count()
        path = tmp_path / "no" / "such" / "s.csv"
        code, out, err = run(capsys, "sample", "--state", NP3, "--shots", "100", "--out", str(path))
        assert_cannot_write(code, out, err, path)
        assert threading.active_count() == threads

    def test_one_shot_exits_two_before_any_file(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "sample", "--state", NP3, "--shots", "1", "--out", str(tmp_path / "s.csv")
        )
        assert code == 2
        assert err == "error: --shots must be >= 2\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_joint_density_over_the_array_limit_exits_three(self, capsys, tmp_path,
                                                           refuse_large_arrays):
        code, out, err = run(
            capsys, "sample", "--state", NP3, "--grid", "1000000", "--out", str(tmp_path / "s.csv")
        )
        assert code == 3
        assert "K=1000000" in err and "needs 16,000,000,000,000 bytes" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_leaves_no_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sample", "--state", '{"family": "tmss", "r": 20}',
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 3
        assert "double precision" in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_an_existing_output(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("earlier run\n")
        code, _, _ = run(
            capsys, "sample", "--state", '{"family": "tmss", "r": 20}', "--out", str(path)
        )
        assert code == 3
        assert path.read_text() == "earlier run\n"
        assert list(tmp_path.iterdir()) == [path]


class TestCurves:
    def test_default_grid_and_reference_values(self, capsys, tmp_path):
        out_path = tmp_path / "curves.csv"
        code, out, _ = run(capsys, "curves", "--out", str(out_path))
        assert code == 0
        assert "200 curve rows" in out
        header, rows = read_csv(out_path)
        assert header == list(CURVE_COLUMNS)
        assert len(rows) == 200
        at_half = next(row for row in rows if float(row["d2"]) == 0.5)
        assert float(at_half["ent_threshold"]) == pytest.approx(1.0, abs=1e-12)
        assert float(at_half["steer_threshold"]) == pytest.approx(0.25, abs=1e-12)
        assert float(at_half["ur_sum_bound"]) == pytest.approx(0.75, abs=1e-12)
        ur = [float(row["ur_sum_bound"]) for row in rows]
        assert min(ur) == pytest.approx(0.75, abs=1e-12)
        assert float(rows[ur.index(min(ur))]["d2"]) == pytest.approx(0.5, abs=1e-12)
        assert {row["ur_flat_reference"] for row in rows} == {"0.75"}
        assert {row["ur_min_d2"] for row in rows} == {"0.5"}

    def test_custom_range(self, capsys, tmp_path):
        out_path = tmp_path / "curves.csv"
        code, _, _ = run(
            capsys, "curves", "--sweep", "d2:0.01:0.99:0.01", "--out", str(out_path)
        )
        assert code == 0
        _, rows = read_csv(out_path)
        assert len(rows) == 99
        assert float(rows[0]["ent_threshold"]) == pytest.approx(99.0, abs=1e-9)

    def test_grid_touching_zero_exits_two(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "curves", "--sweep", "d2:0.0:1.0:0.1",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2
        assert "(0, 1]" in err

    def test_grid_beyond_one_exits_two(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "curves", "--sweep", "d2:0.5:1.2:0.1",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2

    def test_missing_out_exits_two(self, capsys):
        code, _, err = run(capsys, "curves")
        assert code == 2
        assert "--out" in err

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        path = tmp_path / "no" / "such" / "curves.csv"
        code, out, err = run(capsys, "curves", "--out", str(path))
        assert_cannot_write(code, out, err, path)


def test_unknown_subcommand_is_a_parser_error():
    with pytest.raises(SystemExit) as exc:
        main(["plot"])
    assert exc.value.code == 2
