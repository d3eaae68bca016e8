import csv
import json
import math
import sys
import threading
import time
import warnings
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from npsteer import PureTwoModeState, cli, fock, phase_povm, statespec
from npsteer.observables import REPORT_FIELDS
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
SPLIT_POISSON = (
    '{"family": "mixture", "base": "split_fock", "phi": 0.4, '
    '"noise": {"kind": "poissonian", "mean": 20.0}}'
)
GAUSS = (
    '{"family": "mixture", "base": "number_phase", "phi": 0.7, '
    '"noise": {"kind": "gaussian", "mean": 200.0, "std": 5.0}}'
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parser_exit(capsys, *argv):
    """The code of the SystemExit with which the parser ends main(argv), and the stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


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
        code, err = parser_exit(capsys, "eval")
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

    @pytest.mark.parametrize("spec,key", [
        ('{"family": "number_phase", "n": 1000000000}', "n=1000000000"),
        ('{"family": "split_fock", "n": 1000000000}', "n=1000000000"),
        ('{"family": "mixture", "base": "number_phase", '
         '"noise": {"kind": "thermal", "mean": 1e12}}', "thermal noise mean=1000000000000.0"),
        ('{"family": "mixture", "base": "number_phase", '
         '"noise": {"kind": "poissonian", "mean": 1e12}}', "poissonian noise mean=1000000000000.0"),
        ('{"family": "mixture", "base": "split_fock", '
         '"noise": {"kind": "gaussian", "mean": 1e9, "std": 1e8}}',
         "gaussian noise mean=1000000000.0, std=100000000.0"),
    ], ids=["number_phase", "split_fock", "thermal", "poissonian", "gaussian"])
    def test_build_over_the_array_limit_exits_three(self, capsys, refuse_large_arrays, spec, key):
        code, out, err = run(capsys, "eval", "--state", spec)
        assert code == 3
        assert err.startswith(f"error: array too large: {key}")
        assert " bytes, over the 1,073,741,824-byte limit on one array" in err
        assert out == ""

    @pytest.mark.parametrize("noise,key", [
        ('{"mean": 1e7, "std": 2e5}', "mean=10000000.0, std=200000.0"),
        ('{"mean": 1.0, "std": 1e308}', "mean=1.0, std=1e+308"),  # the support's bounds overflow
    ])
    def test_wide_gaussian_mixture_exits_three_before_its_support_is_built(
        self, capsys, monkeypatch, refuse_large_arrays, noise, key
    ):
        def no_support(*args, **kwargs):
            raise AssertionError("the gaussian support was built")

        monkeypatch.setattr(statespec, "gaussian_distribution", no_support)
        spec = ('{"family": "mixture", "base": "number_phase", '
                f'"noise": {{"kind": "gaussian", {noise[1:]}}}')
        code, out, err = run(capsys, "eval", "--state", spec)
        assert code == 3
        assert err.startswith(f"error: array too large: gaussian noise {key}: a mixture of at least ")
        assert " bytes, over the 1,073,741,824-byte limit on one array" in err
        assert out == ""

    def test_density_grid_over_the_array_limit_exits_three(self, capsys, refuse_large_arrays):
        code, out, err = run(capsys, "eval", "--state", NP3, "--grid", "2147483648")
        assert code == 3
        assert err.startswith("error: array too large: grid size K=2147483648: ")
        assert "needs 34,359,738,368 bytes" in err
        assert out == ""

    @pytest.mark.parametrize("spec", [
        '{"family": "number_phase", "n": 2, "phi": 1e308}',
        '{"family": "mixture", "base": "split_fock", "phi": 1e308, '
        '"noise": {"kind": "gaussian", "mean": 400.0, "std": 10.0}}',
    ])
    def test_non_finite_phase_factor_exits_two_naming_phi(self, capsys, spec):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", "--state", spec)
        assert code == 2
        assert err.startswith("error: phi = 1e+308 makes the phase factor e^(i phi m) non-finite")
        assert out == ""

    def test_gaussian_without_mass_exits_two_naming_std(self, capsys):
        spec = ('{"family": "mixture", "base": "number_phase", '
                '"noise": {"kind": "gaussian", "mean": 400.0, "std": 1e-300}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", "--state", spec)
        assert code == 2
        assert err.startswith("error: std = 1e-300 is too small")
        assert out == ""

    def test_noise_trimmed_to_zero_mass_exits_three_naming_noise_and_tail_tol(self, capsys):
        spec = ('{"family": "mixture", "base": "number_phase", '
                '"noise": {"kind": "gaussian", "mean": 0.5, "std": 0.1}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "eval", "--state", spec, "--tail-tol", "0.1")
        assert code == 3
        assert err.startswith(
            "error: truncation unattainable: gaussian noise mean=0.5, std=0.1: tail_tol=0.1 keeps"
        )
        assert "Traceback" not in err and err.count("\n") == 1
        assert out == ""

    def test_squeezed_cutoff_over_the_array_limit_is_found_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--state", '{"family": "tmss", "r": 7}')
        assert time.perf_counter() - start < 1.0  # the step-by-step scan took 3 s and more
        assert code == 3
        assert err == (
            "error: array too large: squeezing r=7.0 at cutoff 17384861: the 17384862 x 17384862 "
            "amplitude grid needs 4,835,734,828,144,704 bytes, over the 1,073,741,824-byte limit "
            "on one array\n"
        )
        assert out == ""

    def test_squeezed_state_eval_and_sweep_build_no_grid(self, capsys, monkeypatch, tmp_path):
        def no_grid(state):
            raise AssertionError("the coefficient grid was built")

        monkeypatch.setattr(PureTwoModeState, "coeffs", property(no_grid))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(capsys, "eval", "--state", '{"family": "tmss", "r": 2.0}')[0] == 0
            assert run(capsys, "sweep", "--state", TMSS1, "--sweep", "r:0.25:1.5:0.25",
                       "--out", str(tmp_path / "sweep.csv"))[0] == 0
        with pytest.raises(AssertionError, match="grid was built"):
            PureTwoModeState.from_sector(1, [1.0, 1.0]).coeffs

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
        code, err = parser_exit(
            capsys, "sweep", "--state", NP1, "--out", str(tmp_path / "x.csv")
        )
        assert code == 2 and "--sweep" in err
        code, err = parser_exit(capsys, "sweep", "--state", NP1, "--sweep", "N:1:3:1")
        assert code == 2 and "--out" in err

    def test_json_format_rejected(self, capsys, tmp_path):
        code, err = parser_exit(
            capsys, "sweep", "--state", NP1, "--sweep", "N:1:3:1",
            "--out", str(tmp_path / "x.csv"), "--format", "json",
        )
        assert code == 2
        assert "--format" in err

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

    def test_transmissivity_of_a_number_phase_mixture_is_refused_by_the_parser(
        self, capsys, tmp_path
    ):
        code, _, err = run(
            capsys, "sweep", "--state", POISSON3, "--sweep", "transmissivity:0.1:0.3:0.1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert err == "error: transmissivity only applies to split_fock-based mixtures\n"

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        path = tmp_path / "no" / "such" / "sweep.csv"
        code, out, err = run(
            capsys, "sweep", "--state", NP1, "--sweep", "N:1:3:1", "--out", str(path)
        )
        assert_cannot_write(code, out, err, path)

    @pytest.mark.parametrize("state,sweep,reused", [
        (NP1, "N:1:3:1", False),
        (TMSS1, "r:0.25:0.75:0.25", False),
        (SPLIT_POISSON, "transmissivity:0.1:0.5:0.2", False),
        (SPLIT_POISSON, "mean:10:30:10", True),
        (GAUSS, "std:4:8:2", True),
    ], ids=["N", "r", "transmissivity", "mean", "std"])
    def test_a_noise_sweep_alone_builds_each_point_from_the_previous_state(
        self, capsys, tmp_path, monkeypatch, state, sweep, reused
    ):
        """Only a mean or std sweep hands each point the state of the point before it;
        another sweep has let that state go by then, and no state outlives the sweep."""
        build, handed, alive, refs = statespec.StateSpec.build, [], [], []

        def spy(spec, tail_tol=None, previous=None):
            alive.append(bool(refs) and refs[-1]() is not None)
            handed.append(previous is not None and previous is refs[-1]())
            state = build(spec, tail_tol, previous)
            refs.append(weakref.ref(state))
            return state

        monkeypatch.setattr(statespec.StateSpec, "build", spy)
        code, _, err = run(capsys, "sweep", "--state", state, "--sweep", sweep,
                           "--out", str(tmp_path / "x.csv"))
        assert code == 0, err
        assert handed == alive == [False, reused, reused]
        assert [ref() for ref in refs] == [None, None, None]


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

    @given(spec=st.sampled_from([
               '{"family": "number_phase", "n": 0}',
               '{"family": "mixture", "base": "number_phase", "noise": {"kind": "point", "n": 0}}',
           ]),
           shots=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_few_shots_never_certify_the_separable_vacuum(self, capsys, tmp_path, spec, shots,
                                                          seed):
        """A bootstrap over a few shots can read a standard error near 0; the claim takes
        at least 1/sqrt(shots), so at z = 5 and 25 shots or fewer nothing can be claimed."""
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sample", "--state", spec, "--shots", str(shots),
                         "--seed", str(seed), "--out", str(out))
        assert code == 0
        est = json.loads((tmp_path / "s.csv.est.json").read_text())
        assert [v["violated"] for v in est["verdicts"]] == [False, False], est

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
        code, err = parser_exit(capsys, "sample", "--state", NP3)
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

    def test_shots_over_the_array_limit_exit_three(self, capsys, tmp_path, refuse_large_arrays):
        code, out, err = run(
            capsys, "sample", "--state", NP3, "--shots", "100000000000",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 3
        assert err.startswith("error: array too large: --shots 100000000000: ")
        assert "needs 3,200,000,000,000 bytes" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failure", [None, "shots", "writer"])
    def test_switch_interval_reads_the_same_after_sample(self, capsys, tmp_path, monkeypatch,
                                                         failure):
        monkeypatch.setattr(phase_povm, "_helper_count", lambda: 1)
        shots = "100000000000" if failure == "shots" else "3000"
        argv = ["sample", "--state", NP3, "--shots", shots, "--out", str(tmp_path / "s.csv")]

        def full_disk(*args):
            raise OSError("disk full")

        if failure == "writer":
            monkeypatch.setattr(cli, "write_samples_csv", full_disk)
        before = sys.getswitchinterval()
        if failure == "writer":
            with pytest.raises(OSError, match="disk full"):
                main(argv)
        else:
            assert main(argv) == (3 if failure else 0)
        capsys.readouterr()
        assert sys.getswitchinterval() == before

    def test_array_refusal_has_its_own_prefix(self, capsys, tmp_path, refuse_large_arrays):
        code, out, err = run(
            capsys, "sample", "--state", NP3, "--grid", "1000000", "--out", str(tmp_path / "s.csv")
        )
        assert code == 3
        assert err.startswith("error: array too large: grid size K=1000000: ")
        assert "truncation" not in err

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

    def test_grid_whose_threshold_overflows_exits_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "curves", "--sweep", "d2:1e-320:1e-300:1",
                             "--out", str(tmp_path / "c.csv"))
        assert (code, out) == (2, "")
        assert err == "error: d2 = 1e-320 is too small: the ENT_FIG2 threshold overflows a float\n"
        assert list(tmp_path.iterdir()) == []

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

    def test_empty_range_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "curves", "--sweep", "", "--out", str(tmp_path / "c.csv"))
        assert code == 2
        assert "var:lo:hi:step" in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_out_exits_two(self, capsys):
        code, err = parser_exit(capsys, "curves")
        assert code == 2
        assert "--out" in err

    def test_unwritable_out_exits_two(self, capsys, tmp_path):
        path = tmp_path / "no" / "such" / "curves.csv"
        code, out, err = run(capsys, "curves", "--out", str(path))
        assert_cannot_write(code, out, err, path)


class TestRangeBounds:
    """A range's bounds are checked, and its point count sized, before any array or file."""

    @pytest.mark.parametrize("argv,name,value", [
        (("sweep", "--state", NP1, "--sweep", "N:0:nan:1"), "hi", "nan"),
        (("sweep", "--state", NP1, "--sweep", "N:0:inf:1"), "hi", "inf"),
        (("sweep", "--state", NP1, "--sweep", "N:-inf:0:1"), "lo", "-inf"),
        (("sweep", "--state", NP1, "--sweep", "N:0:1:nan"), "step", "nan"),
        (("curves", "--sweep", "d2:0.5:inf:0.1"), "hi", "inf"),
    ], ids=lambda a: a[-1] if isinstance(a, tuple) else None)
    def test_non_finite_bound_exits_two_naming_it(self, capsys, tmp_path, argv, name, value):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert err == f"error: range {name} must be finite, got {value} in {argv[-1]!r}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sweep,points", [
        ("N:0:1:1e-320", "over 1.8e+308"),  # (hi - lo) / step overflows
        ("N:0:1e300:1", "1e+300"),
        ("N:0:134217728:1", "1.34e+08"),  # one point past the limit
    ])
    def test_too_many_points_exit_three_before_any_array(self, capsys, tmp_path,
                                                         refuse_large_arrays, sweep, points):
        code, out, err = run(capsys, "sweep", "--state", NP1, "--sweep", sweep,
                             "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert err == (
            f"error: array too large: range {sweep!r} holds {points} points, whose values "
            "need more than the 1,073,741,824-byte limit on one array\n"
        )
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,points", [
        (("sweep", "--state", NP1, "--sweep", "N:0:134217727:1"), "1.34e+08"),  # values: 1 GiB
        (("curves", "--sweep", "d2:1e-9:1:1e-7"), "1e+07"),
    ])
    def test_csv_lines_over_the_limit_exit_three_within_a_second(self, capsys, tmp_path,
                                                                 refuse_large_arrays, argv, points):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "x.csv"))
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert err == (
            f"error: array too large: range {argv[-1]!r} holds {points} points, whose CSV "
            "lines need more than the 1,073,741,824-byte limit on one array\n"
        )
        assert out == ""
        assert list(tmp_path.iterdir()) == []


# Values a range bound or step may take: those the range checks were written for (reversed
# bounds come from the negative ones), and small ones.
FUZZ_RANGE_NUMBERS = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, 1e-320, 5e-324,
                     0.0, -1.0]),
    st.floats(),
)
# The command, on a cheap state, that reads each range variable, and the numbers lo, hi - lo
# and step of its ranges that run to the end.
FUZZ_RANGE_COMMANDS = {
    "N": (("sweep", "--state", NP1), st.integers(0, 30).map(float), st.integers(1, 8).map(float)),
    "mean": (("sweep", "--state", POISSON3), st.floats(0.1, 15.0), st.floats(0.15, 15.0)),
    "d2": (("curves",), st.floats(0.01, 0.5), st.floats(0.01, 0.5)),
}


@st.composite
def fuzz_ranges(draw):
    """A range var:lo:hi:step, one of its numbers perhaps out of range."""
    var = draw(st.sampled_from(sorted(FUZZ_RANGE_COMMANDS)))
    _, bound, step = FUZZ_RANGE_COMMANDS[var]
    lo = draw(bound)
    valid = {"lo": lo, "hi": lo + draw(bound), "step": draw(step)}
    wild = draw(st.sampled_from([None, *valid]))
    numbers = [draw(FUZZ_RANGE_NUMBERS) if key == wild else x for key, x in valid.items()]
    return var, ":".join([var, *map(repr, numbers)])


@given(case=fuzz_ranges())
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_range_fuzz_exits_cleanly_with_finite_csv_cells(case, capsys, monkeypatch, tmp_path,
                                                       refuse_large_arrays):
    """Any sweep or curves range ends in exit 0 with finite CSV cells, or in a named error
    (2 or 3); never in a traceback. A lower array limit keeps every accepted range small."""
    var, text = case
    for module in (fock, cli):
        monkeypatch.setattr(module, "MAX_ARRAY_BYTES", 1 << 16)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([*FUZZ_RANGE_COMMANDS[var][0], "--sweep", text, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 0:
        _, rows = read_csv(out)
        assert rows and all(math.isfinite(float(x)) for row in rows for x in row.values())


FUZZ_SAMPLE_STATES = (
    '{"family": "number_phase", "n": 2}',
    '{"family": "tmss", "r": 0.5}',
    '{"family": "mixture", "base": "number_phase", "noise": {"kind": "poissonian", "mean": 2.0}}',
)
# Each sample flag: its valid values, and its wild ones. Shots stay at a few hundred.
FUZZ_SAMPLE_FLAGS = {
    "--shots": (st.integers(2, 300), st.sampled_from([-4, 0, 1, 1 << 40, 10**11])),
    "--seed": (st.integers(0, 2**32 - 1),
               st.sampled_from([-1, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**200])),
    "--grid": (st.sampled_from([256, 512]),
               st.one_of(st.integers(-4, 255),  # below the floor
                         st.integers(128, 4096).map(lambda half: 2 * half + 1),  # odd
                         st.sampled_from([1 << 40, 1 << 62, 1 << 70]))),  # huge even
    "--z": (st.floats(0.0, 10.0), st.one_of(st.floats(), st.sampled_from([1e308, -0.0]))),
    "--tail-tol": (st.floats(1e-12, 0.5), st.floats()),
}


@st.composite
def fuzz_sample_flags(draw):
    """A state and sample flags, one of them perhaps wild; --shots is always given."""
    flags = ["--shots", *(f for f in FUZZ_SAMPLE_FLAGS if f != "--shots" and draw(st.booleans()))]
    wild = draw(st.sampled_from([None, *flags]))
    argv = [f"{f}={draw(FUZZ_SAMPLE_FLAGS[f][f == wild])!r}" for f in flags]
    return draw(st.sampled_from(FUZZ_SAMPLE_STATES)), argv


def non_finite_numbers(payload) -> list:
    """Every number in a decoded JSON payload that is not finite."""
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, list):
        return [x for item in payload for x in non_finite_numbers(item)]
    is_number = isinstance(payload, (int, float)) and not isinstance(payload, bool)
    return [payload] if is_number and not math.isfinite(payload) else []


@given(case=fuzz_sample_flags())
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sample_flag_fuzz_exits_cleanly_with_finite_estimates(case, capsys, monkeypatch,
                                                              tmp_path, refuse_large_arrays):
    """Any sample flags end in exit 0 with finite numbers in the estimate, or in a named
    error (2 or 3); never in a traceback. A lower array limit keeps every accepted case small."""
    state, flags = case
    monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", 1 << 22)
    out = tmp_path / "s.csv"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["sample", "--state", state, *flags, "--out", str(out)])
    except SystemExit as exc:  # the parser rejects a flag value
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 0:
        est = json.loads((tmp_path / "s.csv.est.json").read_text())
        assert non_finite_numbers(est) == [], est


@pytest.mark.parametrize("seed,code", [(-1, 2), (2**128, 2), (2**64, 0), (2**128 - 1, 0)])
def test_seed_outside_the_key_range_exits_two_naming_it(capsys, tmp_path, seed, code):
    out = tmp_path / "s.csv"
    got, _, err = run(capsys, "sample", "--state", NP3, "--shots", "20", f"--seed={seed}",
                      "--out", str(out))
    assert got == code
    if code:
        assert err == (f"error: --seed {seed}: the seed must be a non-negative integer "
                       "below 2**128\n")
        assert list(tmp_path.iterdir()) == []
    else:
        assert json.loads((tmp_path / "s.csv.est.json").read_text())["seed"] == seed


class TestParserCache:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_of_one_call_do_not_reach_the_next(self, capsys):
        plain = ("eval", "--state", POISSON3)
        cli.build_parser.cache_clear()
        alone = run(capsys, *plain)
        cli.build_parser.cache_clear()
        flagged = run(capsys, *plain, "--grid", "128", "--tail-tol", "1e-6")
        assert flagged != alone  # the flags change the output, so a leak would show
        assert run(capsys, *plain) == alone

    @pytest.mark.parametrize("command", [None, "eval", "sweep", "sample", "curves"])
    def test_help_equals_that_of_an_uncached_parser(self, capsys, command):
        argv = ["--help"] if command is None else [command, "--help"]
        run(capsys, "eval", "--state", NP1)  # the cached parser has parsed before
        texts = []
        for parse in (main, cli.build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: npsteer")


def test_unknown_subcommand_is_a_parser_error():
    with pytest.raises(SystemExit) as exc:
        main(["plot"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--state", NP1, "--sweep", "N:1:2:1", "--out", "x.csv", "--assert", "NP_ENT=ok"],
     "--assert"),
    (["eval", "--state", NP1, "--shots", "5"], "--shots"),
    (["eval", "--state", NP1, "--z", "nan"], "--z"),
    (["curves", "--out", "c.csv", "--state", NP1], "--state"),
])
def test_a_flag_its_command_does_not_read_is_refused(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    code, err = parser_exit(capsys, *argv)
    assert code == 2
    assert f"unrecognized arguments: {flag}" in err
    assert list(tmp_path.iterdir()) == []


# Values a JSON number field or a flag may take: small integers, every double (NaN,
# infinities and subnormals among them), the extremes the input guards were written for,
# and booleans. A case draws at most one value from these and the rest from their valid
# ranges, so that many cases run to the end.
FUZZ_NUMBERS = st.one_of(
    st.integers(-4, 60),
    st.floats(),
    st.sampled_from([0.0, 1e-300, 1e-320, 1e308, 0.5, 7.0, 30.0, 1 << 40]),
    st.booleans(),
)
FUZZ_VALID = {
    "n": st.integers(0, 40),
    "phi": st.floats(-10.0, 10.0),
    "transmissivity": st.floats(0.0, 1.0),
    "r": st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    "cutoff": st.integers(0, 60),
    "tail_tol": st.floats(1e-12, 0.5),
    "mean": st.floats(0.1, 60.0),
    "std": st.floats(0.5, 20.0),
    "--grid": st.integers(32, 2048).map(lambda half: 2 * half),
    "--tail-tol": st.floats(1e-12, 0.5),
}
FUZZ_KEYS = {
    "number_phase": ("n", "phi"),
    "split_fock": ("n", "phi", "transmissivity"),
    "tmss": ("r", "cutoff", "tail_tol"),
    "mixture": ("phi", "tail_tol"),
}
FUZZ_NOISE_KEYS = {"poissonian": ("mean",), "thermal": ("mean",), "gaussian": ("mean", "std"),
                   "point": ("n",)}


@st.composite
def fuzz_cases(draw):
    """A state spec and eval flags, one of their values perhaps out of range."""
    family = draw(st.sampled_from(sorted(FUZZ_KEYS)))
    spec = {"family": family}
    keys = [k for k in FUZZ_KEYS[family] if k in ("n", "r") or draw(st.booleans())]
    flags = [f for f in ("--grid", "--tail-tol") if draw(st.booleans())]
    noise_keys = ()
    if family == "mixture":
        spec["base"] = draw(st.sampled_from(["number_phase", "split_fock"]))
        if spec["base"] == "split_fock" and draw(st.booleans()):
            keys.append("transmissivity")
        spec["noise"] = {"kind": draw(st.sampled_from(sorted(FUZZ_NOISE_KEYS)))}
        noise_keys = FUZZ_NOISE_KEYS[spec["noise"]["kind"]]
    wild = draw(st.sampled_from([None, *keys, *noise_keys, *flags]))

    def value(key):
        return draw(FUZZ_NUMBERS if key == wild else FUZZ_VALID[key])

    spec.update((k, value(k)) for k in keys)
    if noise_keys:
        spec["noise"].update((k, value(k)) for k in noise_keys)
    return spec, [f"{flag}={value(flag)!r}" for flag in flags]


@given(case=fuzz_cases())
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_eval_fuzz_exits_cleanly_with_finite_payloads(case, capsys, monkeypatch,
                                                      refuse_large_arrays):
    """Any spec and flags end in exit 0 with a finite payload, or in a named error (2 or 3);
    never in a traceback. A lower array limit keeps every accepted case small."""
    spec, flags = case
    monkeypatch.setattr(fock, "MAX_ARRAY_BYTES", 1 << 22)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["eval", "--state", json.dumps(spec), *flags])
    except SystemExit as exc:  # the parser rejects a flag value
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code == 0:
        payload = stdout_json(out)
        numbers = list(payload["report"].values()) + [
            v[key] for v in payload["verdicts"] for key in ("lhs", "bound", "margin")
        ]
        assert all(math.isfinite(x) for x in numbers), payload
        if spec["family"] == "tmss" and spec["r"] == 0:
            assert payload["report"]["n_mean"] == 0.0
