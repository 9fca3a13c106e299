"""Exit codes, report schema, and reproducibility of the command line."""

import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engelbook
from engelbook.cli import run
from engelbook.foliation import _disk_grid, construct_xi_prime
from engelbook.modelfile import load_model
from engelbook.reports import _round12, render_csv

SCHEMA_KEYS = {
    "tool_version",
    "config",
    "conventions",
    "checks",
    "invariants",
    "singularities",
    "overall_pass",
}


def test_list_models_prints_catalog(capsys):
    assert run(["list-models"]) == 0
    out = capsys.readouterr().out
    for name in ("binding_Eb", "collar_xi", "s3_openbook", "stabilization_local"):
        assert name in out


def test_verify_binding_model_passes(tmp_path):
    out = tmp_path / "verify.json"
    code = run(
        ["verify", "--model", "binding_Eb", "--samples", "1000", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == SCHEMA_KEYS
    assert doc["tool_version"] == engelbook.__version__
    assert doc["overall_pass"] is True
    assert doc["config"]["seed"] == 7
    assert doc["config"]["tolerances"]["slope"] == 1e-9
    for entry in doc["checks"]:
        assert {"name", "pass", "points", "min_gap", "failures"} <= set(entry)
    assert any(entry["name"].endswith("sampled_even_contact") for entry in doc["checks"])


def test_verify_accepts_parameter_overrides(tmp_path):
    out = tmp_path / "spin.json"
    code = run(
        ["verify", "--model", "engel_prolongation_Dk", "--param", "k=2", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["config"]["params"]["k"] == 2


def test_verify_unknown_model_is_usage_error(capsys):
    assert run(["verify", "--model", "nonexistent"]) == 2
    err = capsys.readouterr().err
    assert "error[EB-PARAM]" in err
    assert "unknown model" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        *(
            pytest.param(
                ["verify", "--model", model, "--param", f"{name}={value}"],
                name,
                id=f"{model}-{name}={value}",
            )
            for model, name in (
                ("binding_Eb", "r0"),
                ("engel_prolongation_Dk", "eps"),
                ("prolongation_Eeps", "eps"),
                ("engel_darboux_loose", "theta0"),
            )
            for value in ("nan", "inf", "-inf")
        ),
        *(
            pytest.param(["construct", "--lambda", "1", "--k", "3", "--r0", v], "r0", id=f"construct-r0={v}")
            for v in ("nan", "inf")
        ),
    ],
)
def test_non_finite_model_parameter_is_usage_error(capsys, argv, name):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error[EB-PARAM] {name} must be ")


def test_model_parameter_that_empties_a_chart_is_usage_error(capsys):
    # the smallest positive r0 rounds the binding annulus's r range to one
    # point; that failed with a ZeroDivisionError instead
    assert run(["verify", "--model", "binding_Eb", "--param", "r0=5e-324"]) == 2
    assert capsys.readouterr().err.startswith("error[EB-PARAM] interval [5e-324, 5e-324] is empty")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["verify", "--model", "binding_Eb", "--param", "r0=1e-200"], id="verify"),
        pytest.param(["construct", "--lambda", "1", "--k", "3", "--r0", "1e-200"], id="construct"),
    ],
)
def test_binding_radius_whose_square_underflows_is_usage_error(capsys, argv):
    # 1e-200 squared is 0, so the declared torus slope 1/r^2 divided by 0:
    # both runs died with a ZeroDivisionError traceback and exit status 1
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error[EB-PARAM] r0 is too small: ")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["verify", "--model", "binding_Eb", "--param", "r0=1e-6"], id="verify"),
        pytest.param(["construct", "--lambda", "1", "--k", "3", "--r0", "1e-6"], id="construct"),
    ],
)
def test_binding_radius_whose_square_the_algebra_drops_is_usage_error(capsys, argv):
    # r^2 at r = 7.5e-7 (verify's inner torus) and r = 1e-6 is at most the
    # algebra's ZERO_TOL, so the pulled-back torus form lost its r^2 term and
    # read as vertical: both runs failed their slope checks with exit 1
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error[EB-PARAM] r0 is too small: ")


def test_small_binding_radius_keeps_its_exact_torus_slopes(tmp_path):
    # c2 = -r^2 = -5.06e-10 and -9e-10 are exact values: the tori at
    # r = 2.25e-5 and 3e-5 used to read as vertical because |c2| <= 1e-9,
    # failing torus_slope_0, torus_slope_1 and adapted_collar with exit 1
    out = tmp_path / "report.json"
    assert run(["verify", "--model", "binding_Eb", "--param", "r0=3e-5", "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for i in range(3):
        assert checks[f"boundary-annulus:torus_slope_{i}"]["min_gap"] == 0.0


@pytest.mark.parametrize(
    "argv, accepts",
    [
        (["verify", "--model", "darboux_even", "--param", "foo=1"], "it accepts none"),
        (["verify", "--model", "binding_Eb", "--param", "r=1.2"], "it accepts r0"),
    ],
)
def test_verify_unknown_parameter_is_usage_error(capsys, argv, accepts):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[EB-PARAM] model ")
    assert accepts in err


# The case ids are fixed strings, so deleting a case leaves the ids of the
# others as they are; they keep the positional names first given to them.
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["verify", "--model", "binding_Eb", "--samples", "0"], id="argv0"),
        pytest.param(["verify", "--model", "binding_Eb", "--rank-tol=-1e-9"], id="argv1"),
        pytest.param(["verify", "--model", "binding_Eb", "--zero-tol", "-1"], id="argv2"),
        pytest.param(
            ["construct", "--lambda", "2", "--k", "3", "--turn-samples", "0"], id="argv3"
        ),
        pytest.param(
            ["construct", "--lambda", "2", "--k", "3", "--slope-tol", "nan"], id="argv4"
        ),
        pytest.param(
            ["invariants", "--lambda", "2", "--k", "3", "--residual-tol", "-0.25"], id="argv5"
        ),
        pytest.param(["foliation", "--k", "3", "--grid", "0"], id="argv6"),
        pytest.param(
            ["probe-looseness", "--lambda", "2", "--k", "3", "--piece", "binding", "--circle",
             "y", "--samples", "-5"],
            id="argv7",
        ),
        pytest.param(["verify", "--model", "binding_Eb", "--rank-tol", "-1e-9"], id="argv8"),
        pytest.param(
            ["verify", "--model", "binding_Eb", "--residual-tol", "-2.5e-1"], id="argv9"
        ),
    ],
)
def test_invalid_counts_and_tolerances_are_rejected(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    flag = [a for a in argv if a.startswith("--")][-1].split("=")[0]
    assert f"error[EB-PARAM] {flag} must be" in err


# construct --lambda 0 --k 1 --turn-samples 3 used to exit 0 on turn counts
# taken from 3 path samples
@pytest.mark.parametrize("command", ["construct", "invariants"])
def test_turn_samples_take_the_looseness_probe_floor(capsys, tmp_path, command):
    argv = [command, "--lambda", "0", "--k", "1", "--out", str(tmp_path / "report.json")]
    for few in ("3", "15"):
        assert run([*argv, "--turn-samples", few]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[EB-PARAM] --turn-samples must be at least 16, got {few}")
    assert not (tmp_path / "report.json").exists()
    assert run([*argv, "--turn-samples", "16"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["turn_samples"] == 16


# verify --seed -1 used to run every piece check and then exit with numpy's
# bare "expected non-negative integer"
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--model", "binding_Eb"],
        ["construct", "--lambda", "0", "--k", "1"],
        ["invariants", "--lambda", "0", "--k", "1"],
    ],
    ids=["verify", "construct", "invariants"],
)
def test_negative_seed_is_refused_before_any_work(capsys, tmp_path, monkeypatch, argv):
    from engelbook import models

    def no_work(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(models, "model_catalog", no_work)
    monkeypatch.setattr(models, "assemble", no_work)
    out = tmp_path / "report.json"
    assert run([*argv, "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error[EB-PARAM] --seed must be at least 0, got -1")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--zero-tol", "1e-10"), ("--slope-tol", "0"), ("--residual-tol", "0.3")],
    ids=["zero", "slope", "residual"],
)
def test_verify_rejects_tolerances_it_does_not_apply(capsys, tmp_path, flag, value):
    # only --rank-tol reaches verify's checks; another tolerance that is not
    # at its default would be written into the report and then ignored
    out = tmp_path / "report.json"
    assert run(["verify", "--model", "binding_Eb", flag, value, "--out", str(out)]) == 2
    assert f"error[EB-PARAM] {flag} is not applied by verify" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["construct", "invariants"])
def test_assembly_commands_reject_a_residual_tolerance_off_its_default(capsys, tmp_path, command):
    # the winding residuals are float rounding on closed loops, so the flag
    # decides nothing; the default spelled out gives the same bytes
    argv = [command, "--lambda", "0", "--k", "1", "--out", str(tmp_path / "report.json")]
    for value in ("0.3", "1e-20"):
        assert run([*argv, "--residual-tol", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[EB-PARAM] --residual-tol is not applied by {command}")
    assert not (tmp_path / "report.json").exists()
    assert run(argv) == 0
    default = (tmp_path / "report.json").read_bytes()
    assert run([*argv, "--residual-tol", "0.25"]) == 0
    assert (tmp_path / "report.json").read_bytes() == default


def test_invariants_rejects_a_rank_tolerance_off_its_default(capsys, tmp_path):
    # the rank tolerance reaches only the piece checks, which invariants
    # leaves out of its report, so a value off the default would be
    # recorded and ignored; construct applies it and fails its checks
    out = tmp_path / "report.json"
    argv = ["--lambda", "1", "--k", "5", "--rank-tol", "1e9", "--out", str(out)]
    assert run(["invariants", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[EB-PARAM] --rank-tol is not applied by invariants")
    assert not out.exists()
    assert run(["construct", *argv]) == 1
    assert "error[EB-VERIFY]" in capsys.readouterr().err
    argv = ["invariants", "--lambda", "0", "--k", "1", "--out", str(out)]
    assert run(argv) == 0
    default = out.read_bytes()
    assert run([*argv, "--rank-tol", "1e-9"]) == 0
    assert out.read_bytes() == default


def test_verify_accepts_the_default_tolerances_spelled_out(capsys):
    assert run(["verify", "--model", "binding_Eb"]) == 0
    default = capsys.readouterr().out
    argv = ["--zero-tol", "1e-12", "--slope-tol", "1e-9", "--residual-tol", "0.25"]
    assert run(["verify", "--model", "binding_Eb", *argv]) == 0
    assert capsys.readouterr().out == default


def test_string_option_takes_negative_number_verbatim(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["verify", "--model", "darboux_even", "--out", "-1"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["-1"]


def test_parser_reuse_keeps_runs_apart(monkeypatch):
    # run parses with one parser per process; an append option's default
    # list must not carry values from one run into the next
    from engelbook import cli

    seen = []
    monkeypatch.setitem(cli._COMMANDS, "verify", lambda args: seen.append(args) or 0)
    assert run(["verify", "--model", "binding_Eb", "--param", "r0=1.2", "--param", "k=3"]) == 0
    assert run(["verify", "--model", "collar_xi"]) == 0
    assert run(["verify", "--model", "collar_xi", "--param", "a=0.5"]) == 0
    assert [a.param for a in seen] == [["r0=1.2", "k=3"], [], ["a=0.5"]]
    assert [a.model for a in seen] == ["binding_Eb", "collar_xi", "collar_xi"]
    assert cli._parser() is cli._parser()


def test_construct_writes_report_with_derived_l(tmp_path):
    out = tmp_path / "report.json"
    code = run(["construct", "--lambda", "2", "--k", "3", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert '"l": 5' in text
    doc = json.loads(text)
    assert set(doc) == SCHEMA_KEYS
    assert doc["overall_pass"] is True
    assert doc["invariants"] == {
        "tw_gamma_x": 0,
        "tw_gamma_y": 2,
        "tw_gamma_phi": 3,
        "rotation_k": 3,
        "delta": 0,
    }
    assert doc["singularities"]["euler_identity"] is True
    assert doc["singularities"]["relative_euler"] == 3


def test_construct_reports_are_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(["construct", "--lambda", "1", "--k", "3", "--out", str(first)]) == 0
    assert run(["construct", "--lambda", "1", "--k", "3", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_construct_rejects_even_k(capsys, tmp_path):
    out = tmp_path / "bad.json"
    assert run(["construct", "--lambda", "2", "--k", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error[EB-PARAM]" in err
    assert "k must be odd and positive" in err
    assert not out.exists()


def test_construct_writes_model_file(tmp_path):
    report = tmp_path / "report.json"
    model_file = tmp_path / "assembled.model"
    code = run(
        [
            "construct",
            "--lambda",
            "2",
            "--k",
            "3",
            "--out",
            str(report),
            "--model-out",
            str(model_file),
        ]
    )
    assert code == 0
    model = load_model(model_file.read_text())
    assert [p.name for p in model.pieces] == ["collar", "binding"]
    assert model.gluings[0].map is not None


def test_foliation_csv_portrait(tmp_path):
    out = tmp_path / "portrait.csv"
    svg = tmp_path / "portrait.svg"
    code = run(["foliation", "--k", "3", "--grid", "21", "--out", str(out), "--svg", str(svg)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u,v,direction_u,direction_v,singular_flag"
    assert len(lines) > 300
    flags = {row.split(",")[-1] for row in lines[1:]}
    assert flags <= {"0", "1"}
    sketch = svg.read_text()
    assert sketch.startswith("<svg")
    assert sketch.count('r="5"') == 3


def reference_portrait_csv(k, grid_n):
    """The portrait CSV as first written: float() and round() per entry,
    then one csv.writer row per grid point."""
    pts = _disk_grid(0.98, grid_n)
    vec = construct_xi_prime(k).classifier.value(pts)
    norm = np.linalg.norm(vec, axis=-1)
    singular = norm < 1e-8
    unit = vec / np.maximum(norm, 1e-30)[:, None]
    unit[singular] = 0.0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["u", "v", "direction_u", "direction_v", "singular_flag"])
    for (u, v), (du, dv), flag in zip(pts, unit, singular):
        writer.writerow([round(float(x), 12) for x in (u, v, du, dv)] + [int(flag)])
    return buf.getvalue()


# the 15-point grid axis has -0.0 where the 41-point one has 0.0
@pytest.mark.parametrize(
    "k, grid",
    [(3, 3), (3, 8), (3, 15), (3, 41), (5, 41), (3, 64), *((k, 41) for k in range(7, 20, 2))],
)
def test_portrait_csv_is_what_csv_writer_writes(tmp_path, k, grid):
    out = tmp_path / "portrait.csv"
    assert run(["foliation", "--k", str(k), "--grid", str(grid), "--out", str(out)]) == 0
    assert out.read_bytes() == reference_portrait_csv(k, grid).encode()
    # rows whose u and v columns hold both zeros, which compare equal
    rows = [(0.0, -0.0, -0.0, 0.0, 0), (-0.0, 0.0, 0.5, -0.0, 1), (0.0, 0.25, 0.0, 1.0, 0)]
    buf = io.StringIO()
    header = ["u", "v", "direction_u", "direction_v", "singular_flag"]
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    assert render_csv(rows) == buf.getvalue()


# the entries where the vectorised rounding must fall back to round(): exact
# decimal ties of both signs, whose binary value sits just off the half, and
# the values it cannot scale
ties = st.builds(
    lambda n, sign: sign * (n + 0.5) / 1e12, st.integers(0, 2**40), st.sampled_from([1.0, -1.0])
)
specials = st.sampled_from([0.0, -0.0, 5e-13, -5e-13, math.nan, math.inf, -math.inf, 1e300])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0) | ties | specials, min_size=1, max_size=64))
def test_round12_is_python_round_bit_for_bit(xs):
    got = _round12(np.array(xs))
    want = np.array([round(x, 12) for x in xs])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("grid", [1, 2])
def test_foliation_rejects_a_grid_with_no_point_in_the_disk(tmp_path, capsys, grid):
    assert len(_disk_grid(0.98, grid)) == 0
    out = tmp_path / "portrait.csv"
    assert run(["foliation", "--k", "3", "--grid", str(grid), "--out", str(out)]) == 2
    assert f"error[EB-PARAM] --grid must be at least 3, got {grid}" in capsys.readouterr().err
    assert not out.exists()


def test_foliation_rejects_even_k(capsys):
    assert run(["foliation", "--k", "2"]) == 2
    assert "error[EB-PARAM]" in capsys.readouterr().err


def test_foliation_refuses_k_beyond_19(tmp_path, capsys):
    out = tmp_path / "portrait.csv"
    assert run(["foliation", "--k", "21", "--out", str(out)]) == 2
    assert "error[EB-PARAM]" in capsys.readouterr().err
    assert not out.exists()


def test_invariants_reports_singularity_counts(tmp_path):
    out = tmp_path / "inv.json"
    code = run(["invariants", "--lambda", "2", "--k", "5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["singularities"]["e_plus"] == 3
    assert doc["singularities"]["h_minus"] == 2
    assert doc["singularities"]["euler_identity"] is True
    assert doc["singularities"]["relative_euler"] == 5
    names = [entry["name"] for entry in doc["checks"]]
    assert names == ["gluing", "twisting_invariants", "boundary_euler_chain"]


# fixed case ids, as for test_invalid_counts_and_tolerances_are_rejected
@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(
            ["probe-looseness", "--lambda", "2", "--k", "3", "--piece", "binding", "--circle", "y"],
            "5",
            id="argv0-5",
        ),
        pytest.param(
            ["probe-looseness", "--lambda", "2", "--k", "3", "--piece", "collar", "--circle", "phi"],
            "3",
            id="argv1-3",
        ),
        pytest.param(
            ["probe-looseness", "--lambda", "2", "--k", "3", "--piece", "collar",
             "--segment", "phi", "0.0", "0.3"],
            "0",
            id="argv2-0",
        ),
        pytest.param(
            ["probe-looseness", "--lambda", "2", "--k", "3", "--piece", "collar",
             "--segment", "phi", "-1e-3", "0.5"],
            "0",
            id="argv3-0",
        ),
        pytest.param(
            ["probe-looseness", "--lambda", "2", "--k", "3", "--piece", "collar", "--circle", "phi",
             "--turns", "2", "--a", "0.3"],
            "6",
            id="turns-and-a-6",
        ),
        pytest.param(
            ["probe-looseness", "--model", "engel_prolongation_Dk", "--piece", "spinning-prolongation",
             "--circle", "t"],
            "1",
            id="model-1",
        ),
    ],
)
def test_probe_looseness_turn_counts(capsys, argv, expected):
    assert run(argv) == 0
    assert capsys.readouterr().out.strip() == expected


# the true counts are 3 and 5; these sample counts printed 0, -1 and -3
@pytest.mark.parametrize(
    "piece, circle, samples",
    [("collar", "phi", "1"), ("collar", "phi", "2"), ("binding", "y", "8")],
    ids=["collar-1", "collar-2", "binding-8"],
)
def test_probe_rejects_too_few_samples(capsys, piece, circle, samples):
    argv = ["probe-looseness", "--lambda", "2", "--k", "3", "--piece", piece, "--circle", circle]
    assert run([*argv, "--samples", samples]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[EB-PARAM] a looseness probe needs at least 16 samples")
    assert run([*argv, "--samples", "16"]) == 0
    assert capsys.readouterr().out.strip() == {"collar": "3", "binding": "5"}[piece]


# at 512 samples these printed -212 (exit 0) and reported tw_gamma_y -212 (exit 1)
@pytest.mark.parametrize(
    "argv",
    [
        ["probe-looseness", "--lambda", "300", "--k", "3", "--piece", "collar", "--circle", "y"],
        ["invariants", "--lambda", "300", "--k", "3"],
    ],
    ids=["probe", "invariants"],
)
def test_samples_that_alias_the_field_are_refused(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[EB-PARAM] 512 path samples alias the field: ")
    assert err.rstrip().endswith("use at least 601 samples")


def test_probe_counts_the_collar_twist_at_enough_samples(capsys):
    argv = ["probe-looseness", "--lambda", "300", "--k", "3", "--piece", "collar", "--circle", "y"]
    assert run([*argv, "--samples", "1024"]) == 0
    assert capsys.readouterr().out.strip() == "300"


def test_probe_rejects_tangent_circle(capsys):
    code = run(
        ["probe-looseness", "--model", "engel_darboux_loose", "--piece", "loose-tube",
         "--circle", "theta"]
    )
    assert code == 2
    assert "not transverse" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path_args",
    [["--circle", "theta", "--turns", "0"], ["--segment", "theta", "0.5", "0.5"]],
    ids=["zero-turn-circle", "point-segment"],
)
def test_probe_rejects_path_that_does_not_move(capsys, path_args):
    # this circle fails as non-transverse once it turns, so a path that
    # stays put on it must fail too instead of counting 0 turns
    code = run(
        ["probe-looseness", "--model", "engel_darboux_loose", "--piece", "loose-tube", *path_args]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "EB-PARAM" in err and "tangent vanishes" in err


def test_probe_requires_exactly_one_path_kind(capsys):
    code = run(["probe-looseness", "--lambda", "2", "--k", "3", "--piece", "collar"])
    assert code == 2
    assert "exactly one of" in capsys.readouterr().err


def test_probe_needs_model_or_build_parameters(capsys):
    code = run(["probe-looseness", "--piece", "collar", "--circle", "phi"])
    assert code == 2
    assert "either --model or both" in capsys.readouterr().err


MODEL_PROBE = ["probe-looseness", "--model", "engel_prolongation_Dk", "--piece", "spinning-prolongation"]
BUILT_PROBE = ["probe-looseness", "--lambda", "2", "--k", "3", "--piece", "collar"]


# each of these printed a count and exited 0, with the flag read by nothing
@pytest.mark.parametrize(
    "argv, flags",
    [
        ([*MODEL_PROBE, "--circle", "t", "--lambda", "5", "--k", "7", "--a", "0.2"], "--lambda, --k, --a"),
        ([*MODEL_PROBE, "--circle", "t", "--lambda", "5"], "--lambda"),
        ([*MODEL_PROBE, "--circle", "t", "--k", "7"], "--k"),
        ([*MODEL_PROBE, "--circle", "t", "--a", "0.2"], "--a"),
        ([*BUILT_PROBE, "--circle", "phi", "--param", "lam=1"], "--param"),
        ([*BUILT_PROBE, "--segment", "phi", "0.0", "0.3", "--turns", "2"], "--turns"),
        ([*MODEL_PROBE, "--segment", "t", "0.0", "0.3", "--turns", "1"], "--turns"),
    ],
    ids=["model-built-flags", "model-lambda", "model-k", "model-a", "param-without-model",
         "turns-with-segment", "model-turns-with-segment"],
)
def test_probe_refuses_a_flag_it_would_ignore_before_building(capsys, monkeypatch, argv, flags):
    from engelbook import models

    def no_build(*args, **kwargs):
        raise AssertionError("a piece was built")

    for name in ("model_catalog", "build_collar_engel", "build_binding_engel"):
        monkeypatch.setattr(models, name, no_build)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[EB-PARAM] {flags} ")


def test_missing_subcommand_is_usage_error():
    assert run([]) == 2


def test_help_exits_cleanly():
    assert run(["--help"]) == 0


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "engelbook", "list-models"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "binding_Eb" in proc.stdout


def test_cli_module_runs_main_as_a_script():
    # python -m engelbook.cli runs the same entry point as python -m engelbook
    argv = ["construct", "--lambda", "0", "--k", "1", "--turn-samples", "3"]
    proc = subprocess.run(
        [sys.executable, "-m", "engelbook.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error[EB-PARAM] --turn-samples must be at least 16, got 3")


# -- what each subcommand loads ------------------------------------------------


def _engelbook_modules_after(argv: list[str] | None) -> set[str]:
    """The engelbook modules a fresh interpreter holds after importing the
    CLI and, when ``argv`` is given, running it once."""
    code = "import sys\nfrom engelbook import cli\n"
    if argv is not None:
        code += f"assert cli.run({argv!r}) == 0\n"
    code += "print(*(m for m in sys.modules if m.split('.')[0] == 'engelbook'))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return set(proc.stdout.split())


def test_importing_the_cli_loads_no_subcommand_module():
    assert _engelbook_modules_after(None) == {"engelbook", "engelbook.cli"}


def test_foliation_loads_only_the_disk_and_report_modules(tmp_path):
    argv = ["foliation", "--k", "3", "--out", str(tmp_path / "portrait.csv")]
    assert _engelbook_modules_after(argv) == {
        "engelbook",
        "engelbook.cli",
        "engelbook.foliation",
        "engelbook.interval",
        "engelbook.reports",
    }


def test_verify_without_parameters_loads_no_model_file_module(tmp_path):
    argv = ["verify", "--model", "darboux_even", "--out", str(tmp_path / "report.json")]
    loaded = _engelbook_modules_after(argv)
    assert "engelbook.models" in loaded
    assert "engelbook.modelfile" not in loaded


def test_tolerance_defaults_have_one_source():
    from engelbook import charts, cli, models, reports

    expected = {"rank": 1e-9, "zero": 1e-12, "slope": 1e-9, "residual": 0.25}
    assert reports.TOLERANCE_DEFAULTS == expected
    for argv in (
        ["verify", "--model", "darboux_even"],
        ["construct", "--lambda", "0", "--k", "1"],
        ["invariants", "--lambda", "0", "--k", "1"],
    ):
        args = cli.build_parser().parse_args(argv)
        assert cli._tolerance_config(args) == expected
    # the same objects, not equal copies: one definition feeds every reader
    package = engelbook.TOLERANCE_DEFAULTS
    assert reports.TOLERANCE_DEFAULTS is package
    assert charts.RANK_TOL is package["rank"]
    assert models.SYMBOL_TOL is package["zero"]
    assert models.SLOPE_TOL is package["slope"]
    assert models.RESIDUAL_TOL is package["residual"]
    assert models.MIN_TURN_SAMPLES == cli.MIN_TURN_SAMPLES == engelbook.MIN_TURN_SAMPLES == 16


def test_default_grid_size_has_one_source():
    from engelbook import cli, models, verify

    assert verify.DEFAULT_MIN_POINTS is models.DEFAULT_MIN_POINTS is engelbook.DEFAULT_MIN_POINTS
    for argv in (["verify", "--model", "darboux_even"], ["construct", "--lambda", "0", "--k", "1"]):
        assert cli.build_parser().parse_args(argv).samples is engelbook.DEFAULT_MIN_POINTS == 1000
