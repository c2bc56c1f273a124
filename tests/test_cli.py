import csv
import hashlib
import json

import pytest
from click.testing import CliRunner

from ccradon import calibration
from ccradon.ccball import reach_balls
from ccradon.cli import main
from ccradon.exponents import default_h_rule, default_z_samples

BALL_SCENARIO = {
    "kind": "ball",
    "model": "parabola",
    "seed": 11,
    "parameters": {
        "center": [0.0, 0.0, 0.0],
        "delta1": 0.0625,
        "delta2": 0.0625,
        "h": 0.0078125,
        "mc": {"paths": 5000},
    },
}


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def runner():
    return CliRunner()


class TestBallCommand:
    def test_runs_and_writes_artifacts(self, runner, tmp_path):
        scen = write_scenario(tmp_path, BALL_SCENARIO)
        out = tmp_path / "out"
        result = runner.invoke(main, ["ball", "--scenario", scen, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "ball_report.json").read_text())
        assert report["passed"] is True
        assert (out / "slab_profile.csv").exists()
        assert (out / "meta.json").exists()

    def test_meta_carries_round_diagnostics(self, runner, tmp_path):
        scen = write_scenario(tmp_path, BALL_SCENARIO)
        out = tmp_path / "out"
        result = runner.invoke(main, ["ball", "--scenario", scen, "--out", str(out)])
        assert result.exit_code == 0, result.output
        ball = json.loads((out / "ball_report.json").read_text())["ball"]
        diag = json.loads((out / "meta.json").read_text())["diagnostics"]
        assert diag["rounds_run"] == ball["rounds"] == len(diag["active_per_round"])
        assert sum(diag["new_cells_per_round"]) + 1 == ball["n_cells"]
        assert min(diag["active_per_round"]) > 0
        assert diag["dropped_per_round"] == [0] * ball["rounds"]
        # the dedup box holds one cell per representative at least
        assert len(diag["box_cells_per_round"]) == ball["rounds"]
        assert all(box >= kept for box, kept in zip(diag["box_cells_per_round"], diag["active_per_round"]))
        assert "diagnostics" not in ball

    def test_missing_h_names_field(self, runner, tmp_path):
        bad = json.loads(json.dumps(BALL_SCENARIO))
        del bad["parameters"]["h"]
        scen = write_scenario(tmp_path, bad)
        result = runner.invoke(main, ["ball", "--scenario", scen, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "parameters.h" in result.output

    def test_missing_seed_for_stochastic(self, runner, tmp_path):
        bad = json.loads(json.dumps(BALL_SCENARIO))
        del bad["seed"]
        scen = write_scenario(tmp_path, bad)
        result = runner.invoke(main, ["ball", "--scenario", scen, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "seed" in result.output

    def test_mc_steps_rejected(self, runner, tmp_path):
        bad = json.loads(json.dumps(BALL_SCENARIO))
        bad["parameters"]["mc"]["steps"] = 16
        scen = write_scenario(tmp_path, bad)
        out = tmp_path / "o"
        result = runner.invoke(main, ["ball", "--scenario", scen, "--out", str(out)])
        assert result.exit_code == 2
        assert "parameters.mc.steps" in result.output
        assert not (out / "ball_report.json").exists()

    def test_tau_rejected(self, runner, tmp_path):
        bad = json.loads(json.dumps(BALL_SCENARIO))
        bad["parameters"]["tau"] = 0.01
        scen = write_scenario(tmp_path, bad)
        out = tmp_path / "o"
        result = runner.invoke(main, ["ball", "--scenario", scen, "--out", str(out)])
        assert result.exit_code == 2
        assert "parameters.tau" in result.output
        assert "default_tau" in result.output
        assert not (out / "ball_report.json").exists()

    def test_resolution_exit_code(self, runner, tmp_path):
        bad = json.loads(json.dumps(BALL_SCENARIO))
        bad["parameters"]["h"] = 0.0625
        del bad["parameters"]["mc"]
        scen = write_scenario(tmp_path, bad)
        result = runner.invoke(main, ["ball", "--scenario", scen, "--out", str(tmp_path / "o")])
        assert result.exit_code == 3

    def test_kind_mismatch(self, runner, tmp_path):
        bad = json.loads(json.dumps(BALL_SCENARIO))
        bad["kind"] = "region"
        scen = write_scenario(tmp_path, bad)
        result = runner.invoke(main, ["ball", "--scenario", scen, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_mc_disagreement_fails_with_measured_value(self, runner, tmp_path):
        # at h = 2^-7 a 5,000-path cloud leaves most cells of the ball empty,
        # so the mc volume falls below MC_AGREEMENT_BAND
        bad = json.loads(json.dumps(BALL_SCENARIO))
        bad["parameters"].update({"delta1": 0.125, "delta2": 0.125, "h": 2.0 ** -7})
        scen = write_scenario(tmp_path, bad)
        out = tmp_path / "o"
        result = runner.invoke(main, ["ball", "--scenario", scen, "--out", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "ball_report.json").read_text())
        agreement = report["mc"]["agreement"]
        lo, hi = calibration.MC_AGREEMENT_BAND
        assert not lo <= agreement <= hi
        assert report["passed"] is False
        assert report["failures"] == [f"mc_agreement={agreement:.4g} outside [{lo}, {hi}]"]
        assert f"mc_agreement={agreement:.4g}" in result.output


class TestModelCommands:
    def test_list(self, runner):
        result = runner.invoke(main, ["model", "list"])
        assert result.exit_code == 0
        assert "parabola" in result.output

    def test_show(self, runner):
        result = runner.invoke(main, ["model", "show", "cubic"])
        assert result.exit_code == 0
        assert json.loads(result.output)["d"] == 3

    def test_show_unknown(self, runner):
        result = runner.invoke(main, ["model", "show", "nope"])
        assert result.exit_code == 2


LEMMA_SCENARIO = {
    "kind": "lemma-check",
    "model": "parabola",
    "parameters": {"q": 3, "r": 3, "p": 2, "grid": {"theta_list": [1.0], "delta1_list": [0.125]}},
}


@pytest.mark.parametrize("key, value", [("h_rule", 0.01), ("h_rule", "auto"), ("halve_h", True)])
def test_lemma_check_rejects_h_overrides(runner, tmp_path, key, value):
    bad = json.loads(json.dumps(LEMMA_SCENARIO))
    bad["parameters"][key] = value
    scen = write_scenario(tmp_path, bad)
    out = tmp_path / "o"
    result = runner.invoke(main, ["lemma-check", "--scenario", scen, "--out", str(out)])
    assert result.exit_code == 2
    assert f"parameters.{key}" in result.output
    assert "default_h_rule" in result.output
    assert not (out / "lemma_report.json").exists()


def test_lemma_check_region_sweep_scenario(runner, tmp_path):
    # the lemma-check scenario of the region_sweep benchmark workload
    scenario = json.loads(json.dumps(LEMMA_SCENARIO))
    scenario["parameters"]["grid"]["theta_list"] = [0.5, 0.75, 1.0]
    scen = write_scenario(tmp_path, scenario)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        result = runner.invoke(main, ["lemma-check", "--scenario", scen, "--out", str(out), "--threads", threads])
        assert result.exit_code == 0, result.output
        outputs.append((out / "lemma_report.json").read_bytes() + (out / "lemma_ratios.csv").read_bytes())
    assert outputs[0] == outputs[1]
    report = json.loads((tmp_path / "t1" / "lemma_report.json").read_text())
    assert report["passed"] is True and report["failures"] == []
    with open(tmp_path / "t1" / "lemma_ratios.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 18
    assert {float(row["theta"]) for row in rows} == {0.5, 0.75, 1.0}
    for row in rows:
        lo, hi = calibration.LEMMA_BANDS[row["ratio"]]
        assert (float(row["band_lo"]), float(row["band_hi"])) == (lo, hi)
        assert lo <= float(row["value"]) <= hi and row["ok"] == "1"


def test_lemma_check_truncated_balls_fail(runner, tmp_path):
    # d1 = d2 = 3/8 at the origin: the doubled ball reaches past the chart
    # at theta = 1 and 0.5, and each truncated pair fails the run by name
    scenario = json.loads(json.dumps(LEMMA_SCENARIO))
    scenario["parameters"]["grid"] = {"theta_list": [1.0, 0.5], "delta1_list": [0.375]}
    out = tmp_path / "o"
    result = runner.invoke(main, ["lemma-check", "--scenario", write_scenario(tmp_path, scenario), "--out", str(out)])
    assert result.exit_code == 1
    report = json.loads((out / "lemma_report.json").read_text())
    assert [rep["truncated"] for rep in report["results"]] == [True, True]
    assert report["passed"] is False
    assert report["failures"] == [f"ball pair truncated by the chart at theta={theta} d1=0.375 h=0.09375"
                                  for theta in (1.0, 0.5)]


class TestInequalityCommand:
    def test_bounded_verdict(self, runner, tmp_path):
        scen = write_scenario(
            tmp_path,
            {
                "kind": "test-inequality",
                "model": "parabola",
                "parameters": {
                    "triple": ["5/3", 3, 3],
                    "delta_list": [0.125, 0.0625],
                    "expect": "bounded",
                },
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["test-inequality", "--scenario", scen, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "inequality_report.json").read_text())
        assert report["verdict"] == "bounded"

    def test_growing_verdict_fails_wrong_expectation(self, runner, tmp_path):
        scen = write_scenario(
            tmp_path,
            {
                "kind": "test-inequality",
                "model": "parabola",
                "parameters": {
                    "triple": [1.1, 4, 4],
                    "delta_list": [0.125, 0.0625],
                    "expect": "bounded",
                },
            },
        )
        result = runner.invoke(main, ["test-inequality", "--scenario", scen, "--out", str(tmp_path / "o")])
        assert result.exit_code == 1


class TestDecomposeCommand:
    def test_slab_instance(self, runner, tmp_path):
        scen = write_scenario(
            tmp_path,
            {
                "kind": "decompose",
                "model": "parabola",
                "parameters": {
                    "h": 0.0078125,
                    "beta": 0.05,
                    "F": {"rects": [[[0.2, 0.26], [-0.9, 0.9]]]},
                    "eta": 0.125,
                    "c_eta": 0.25,
                    "C": 8.0,
                },
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["decompose", "--scenario", scen, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "decompose_report.json").read_text())
        assert report["passed"] is True
        assert (out / "strata.csv").exists()
        assert (out / "partition.csv").exists()


# sha256 of decompose_report.json for the slab scenario at h = 2^-k; k = 6 is
# the scenario of the transform_decompose benchmark workload
DECOMPOSE_REPORT_PINS = {
    6: "0d5ca7d615ca4143258c6a943230b31dda4940669bbb59c4734488ba3d7e5d31",
    7: "82a69170869162e2ddd77e1e4963be258a6b2c7dfea41649b0c9b571afbce5d9",
}
# sha256 of strata.csv and partition.csv for the same scenarios
DECOMPOSE_CSV_PINS = {
    6: {"strata.csv": "ce7e533049f54c2ba4ffdd5e64b6f3f47faae70b137c657df71e8e4224493601",
        "partition.csv": "62a545f709e61c977b77d1631275e70025ec1382b78b7eed8824e1253e69d374"},
    7: {"strata.csv": "b50851ad779da52050c4da6cf43a735062be013e7de1df9999016c000ddd1a8c",
        "partition.csv": "d8c8ccf4a8b7def6d7fcf345473e7429c18ec2fa1fb4e7dea5aa5df11e90b769"},
}


@pytest.mark.parametrize("k", sorted(DECOMPOSE_REPORT_PINS))
def test_decompose_report_pinned(runner, tmp_path, k):
    scen = write_scenario(
        tmp_path,
        {
            "kind": "decompose",
            "model": "parabola",
            "parameters": {"h": 2.0 ** -k, "beta": 0.05, "F": {"rects": [[[0.2, 0.26], [-0.9, 0.9]]]},
                           "eta": 0.125, "c_eta": 0.25, "C": 8.0},
        },
    )
    out = tmp_path / "out"
    result = runner.invoke(main, ["decompose", "--scenario", scen, "--out", str(out)])
    assert result.exit_code == 0, result.output
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("decompose_report.json", "strata.csv", "partition.csv")}
    assert digests == {"decompose_report.json": DECOMPOSE_REPORT_PINS[k], **DECOMPOSE_CSV_PINS[k]}


@pytest.mark.parametrize("k", [6, 7])
def test_decompose_box_meets_many_intervals(runner, tmp_path, k):
    # On the slab the selected stratum meets a single I_n, so no verdict sees
    # the Omega^n window; this box spreads it over twelve I_n, where a window
    # narrowed to I_n itself drops pairing mass and fails localized_ok.
    scen = write_scenario(
        tmp_path,
        {
            "kind": "decompose",
            "model": "parabola",
            "parameters": {"h": 2.0 ** -k, "beta": 0.1, "F": {"rects": [[[-0.6, 0.6], [-0.2, 0.2]]]}, "C": 4.0},
        },
    )
    out = tmp_path / "out"
    result = runner.invoke(main, ["decompose", "--scenario", scen, "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "decompose_report.json").read_text())
    assert report["passed"] is True and report["partition_verdicts"]["localized_ok"] is True
    n_values = [line.split(",")[0] for line in (out / "partition.csv").read_text().splitlines()[1:]]
    assert len(n_values) == 12


class TestNecessityCommand:
    def test_records(self, runner, tmp_path):
        scen = write_scenario(
            tmp_path,
            {
                "kind": "necessity",
                "model": "parabola",
                "parameters": {
                    "triple": [1.25, 1, "inf"],
                    "delta_list": [[0.125, 0.125], [0.0625, 0.0625]],
                },
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["necessity", "--scenario", scen, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "necessity_report.json").read_text())
        assert report["passed"] is True
        assert [rec["n"] for rec in report["records"]] == [0, 1]
        assert all(rec["n_translates"] >= 2 for rec in report["records"])
        assert (out / "necessity.csv").read_text().splitlines()[0] == "n,delta1,delta2,n_translates,ratio"

    def test_growth(self, runner, tmp_path):
        # the necessity scenario of the transform_decompose benchmark workload
        scen = write_scenario(
            tmp_path,
            {
                "kind": "necessity",
                "model": "parabola",
                "parameters": {
                    "triple": [1.15, 1, "inf"],
                    "expect_growth": True,
                    "delta_list": [[0.125, 0.125], [0.0625, 0.0625], [0.03125, 0.03125]],
                },
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["necessity", "--scenario", scen, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "necessity_report.json").read_text())
        assert report["passed"] is True
        (growth,) = report["growth_n_plus_2"]
        assert growth >= 2.0
        ratios = [rec["ratio"] for rec in report["records"]]
        assert growth == ratios[2] / ratios[0]


class TestClassifyCommand:
    def test_interior_triple(self, runner, tmp_path):
        # the windows and delta grid of the region_sweep benchmark workload
        scen = write_scenario(
            tmp_path,
            {
                "kind": "classify",
                "model": "parabola",
                "parameters": {
                    "windows": [[0.5, 1.0], [0.75, 1.0], [1.0, 1.0]],
                    "delta_grid": [0.125, 0.0625, 0.03125],
                    # (3/2, 2, 3) has q < r, so its c = (2.5, 2) takes the gamma3 term
                    # of c_from_pqr; without it c = (2, 2) reads boundary
                    "triples": [{"triple": ["5/3", 3, 3], "expect": "interior"},
                                {"triple": ["3/2", 2, 3], "expect": "interior"}],
                },
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["classify", "--scenario", scen, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "classify_report.json").read_text())
        assert report["passed"] is True
        assert report["results"] == [{"triple": ["5/3", "3", "3"], "label": "interior", "ok": True},
                                     {"triple": ["3/2", "2", "3"], "label": "interior", "ok": True}]

    def test_unexpected_ordering_error_fails(self, runner, tmp_path):
        # (4, 3, 2) violates the exponent ordering, so the triple's label is
        # ordering-error; an entry that expects another label must fail by name,
        # and failures print each triple as its results entry does
        scen = write_scenario(
            tmp_path,
            {
                "kind": "classify",
                "model": "parabola",
                "parameters": {
                    "windows": [[1.0, 1.0]],
                    "delta_grid": [0.0625, 0.03125],
                    "c1_grid": {"start": 1.8, "stop": 2.2, "step": 0.1},
                    "c2_grid": {"start": 1.8, "stop": 2.2, "step": 0.1},
                    "z_samples": [[0.0, 0.0, 0.0]],
                    "triples": [{"triple": [4, 3, 2], "expect": "interior"},
                                {"triple": ["5/3", 3, 3], "expect": "outside"}],
                },
            },
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["classify", "--scenario", scen, "--out", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "classify_report.json").read_text())
        assert [entry["triple"] for entry in report["results"]] == [["4", "3", "2"], ["5/3", "3", "3"]]
        label = report["results"][1]["label"]
        assert label != "outside"
        assert report["failures"] == ["triple 4, 3, 2: want interior, got ordering-error",
                                      f"triple 5/3, 3, 3: want outside, got {label}"]
        assert report["results"][0]["detail"] == (
            "triple (p, q, r) = (4, 3, 2) violates p <= q <= r; "
            "for q > r use the interpolation analysis (interpolation_window)")
        assert "triple 4, 3, 2: want interior" in result.output


# sha256 of the region outputs for the scenario of the region_sweep benchmark
# workload: the three A = 1 windows, delta 2^-3..2^-5, the default c-grid
REGION_PINS = {
    "region_report.json": "6420b1e83d10a9d7cca91fa3dc31ad4263ed0908b38d924e6dcd359fbacb2056",
    "region.csv": "8f316c0cba99ce16e1139c374003b4dc08ea5a8869f9f26189f8a15b52fa828f",
}


REGION_SWEEP = {
    "kind": "region",
    "model": "parabola",
    "parameters": {
        "windows": [[0.5, 1.0], [0.75, 1.0], [1.0, 1.0]],
        "delta_grid": [0.125, 0.0625, 0.03125],
        "expect": [
            {"c1": 2.2, "c2": 2.2, "label": "inside"},
            {"c1": 1.5, "c2": 1.5, "label": "outside"},
            {"c1": 2.0, "c2": 2.0, "label": "edge"},
        ],
    },
}


def test_region_outputs_pinned(runner, tmp_path):
    scen = write_scenario(tmp_path, REGION_SWEEP)
    out = tmp_path / "out"
    result = runner.invoke(main, ["region", "--scenario", scen, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REGION_PINS} == REGION_PINS


def test_region_meta_records_each_ball_job(runner, tmp_path, parabola):
    # 13 radius triples (d1, d2, h), each one reach_balls job over the three
    # default centres.  Their records go to meta.json only: the report bytes
    # do not move with timing or the thread count.
    scen = write_scenario(tmp_path, REGION_SWEEP)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        result = runner.invoke(main, ["region", "--scenario", scen, "--out", str(out), "--threads", threads])
        assert result.exit_code == 0, result.output
        reports.append((out / "region_report.json").read_bytes())
        jobs = json.loads((out / "meta.json").read_text())["diagnostics"]["jobs"]
        assert len({(job["delta1"], job["delta2"], job["h"]) for job in jobs}) == len(jobs) == 13
        for job in jobs:
            assert job["h"] == default_h_rule(job["delta1"], job["delta2"])
            assert len(job["cells"]) == 3 and job["seconds"] > 0
        last = jobs[-1]
        balls = reach_balls(parabola, default_z_samples(parabola), last["delta1"], last["delta2"], last["h"])
        assert last["cells"] == [ball.cells.n_cells for ball in balls]
        assert last["rounds"] == balls[0].rounds
    assert reports[0] == reports[1]


class TestDeterminism:
    def test_ball_reports_identical(self, runner, tmp_path):
        scen = write_scenario(tmp_path, BALL_SCENARIO)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(main, ["ball", "--scenario", scen, "--out", str(out)])
            assert result.exit_code == 0
            outs.append((out / "ball_report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_region_threads_identical(self, runner, tmp_path):
        scen = write_scenario(
            tmp_path,
            {
                "kind": "region",
                "model": "parabola",
                "seed": 3,
                "parameters": {
                    "windows": [[1.0, 1.0]],
                    "delta_grid": [0.0625, 0.03125],
                    "c1_grid": {"start": 1.8, "stop": 2.2, "step": 0.1},
                    "c2_grid": {"start": 1.8, "stop": 2.2, "step": 0.1},
                    "z_samples": [[0.0, 0.0, 0.0]],
                },
            },
        )
        payloads = []
        for threads in ("1", "8"):
            out = tmp_path / f"t{threads}"
            result = runner.invoke(main, ["region", "--scenario", scen, "--out", str(out), "--threads", threads])
            assert result.exit_code == 0, result.output
            payloads.append((out / "region_report.json").read_bytes() + (out / "region.csv").read_bytes())
        assert payloads[0] == payloads[1]


# (command, a valid parameters dict, a mistyped key, a key the command reads)
MISTYPED_KEYS = [
    ("ball", BALL_SCENARIO["parameters"], "centre", "center"),
    ("lemma-check", LEMMA_SCENARIO["parameters"], "theta_list", "grid"),
    ("region", REGION_SWEEP["parameters"], "delta_grids", "delta_grid"),
    ("classify", {"triples": [{"triple": ["5/3", 3, 3]}]}, "marign", "margin"),
    ("test-inequality", {"triple": ["5/3", 3, 3], "delta_list": [0.125, 0.0625]}, "expcet", "expect"),
    ("necessity", {"triple": [1.25, 1, "inf"], "delta_list": [[0.125, 0.125]]}, "expect_grwoth", "expect_growth"),
    ("decompose", {"h": 2.0 ** -6, "beta": 0.05, "F": {"rects": [[[0.2, 0.26], [-0.9, 0.9]]]}}, "c_eat", "c_eta"),
]


@pytest.mark.parametrize("command, params, key, accepted", MISTYPED_KEYS, ids=[m[0] for m in MISTYPED_KEYS])
def test_unknown_parameter_rejected(runner, tmp_path, command, params, key, accepted):
    # a mistyped key used to be ignored: "expcet" ran test-inequality with no expectation
    scen = write_scenario(tmp_path, {"kind": command, "model": "parabola", "seed": 1,
                                     "parameters": {**params, key: 1}})
    out = tmp_path / "o"
    result = runner.invoke(main, [command, "--scenario", scen, "--out", str(out)])
    assert result.exit_code == 2
    assert f"unknown parameters.{key} for {command}" in result.output
    assert accepted in result.output.split("accepted keys:")[1]
    assert not out.exists()


def test_parameters_must_be_an_object(runner, tmp_path):
    scen = write_scenario(tmp_path, {"kind": "decompose", "model": "parabola", "parameters": [{"h": 0.125}]})
    result = runner.invoke(main, ["decompose", "--scenario", scen, "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "'parameters' must be an object" in result.output


# (command, parameters with exponent p set to the bad value).  The runners
# parse every exponent before any ball runs, so a bad one writes nothing.
BAD_P = [
    ("lemma-check", lambda p: {**LEMMA_SCENARIO["parameters"], "p": p}),
    ("classify", lambda p: {"windows": [[1.0, 1.0]], "delta_grid": [0.0625, 0.03125],
                            "triples": [{"triple": [p, 3, 3]}]}),
    ("test-inequality", lambda p: {"triple": [p, 3, 3], "delta_list": [0.125, 0.0625]}),
    ("necessity", lambda p: {"triple": [p, 1, "inf"], "delta_list": [[0.125, 0.125]]}),
]


@pytest.mark.parametrize("p, message", [
    (0.5, "exponent must lie in [1, inf], got 0.5"),
    (0, "exponent must lie in [1, inf], got 0"),
    ("abc", "exponent must be a number, a fraction such as '5/3' or 'inf', got 'abc'"),
], ids=["half", "zero", "abc"])
@pytest.mark.parametrize("command, params", BAD_P, ids=[b[0] for b in BAD_P])
def test_bad_exponent_rejected(runner, tmp_path, command, params, p, message):
    # lemma-check ran every ball at p = 0.5 and failed a band, test-inequality
    # and necessity wrote passing reports at p = 0.5, p = 0 raised
    # ZeroDivisionError and "abc" raised ValueError
    scen = write_scenario(tmp_path, {"kind": command, "model": "parabola", "parameters": params(p)})
    out = tmp_path / "o"
    result = runner.invoke(main, [command, "--scenario", scen, "--out", str(out)])
    assert result.exit_code == 1
    assert f"error: {message}\n" in result.output
    assert not out.exists()
