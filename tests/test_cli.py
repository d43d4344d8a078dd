import json
import math
from pathlib import Path

import pytest

from walshlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_timestamps(text):
    lines = []
    for line in text.strip().split("\n"):
        rec = json.loads(line)
        rec.pop("timestamp", None)
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines)


def test_decompose_subcommand(capsys):
    code, out = run_cli(capsys, "decompose", "--a", "1", "--b", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["anchor"] == 1
    assert payload["left"] == [{"level": 2, "lo": 2, "hi": 4}]
    assert payload["right"] == [{"level": 2, "lo": 4, "hi": 6}]
    assert payload["checks"]["passed"]


def test_decompose_short_interval_at_large_anchor(capsys):
    a = 1 << 31
    code, out = run_cli(capsys, "decompose", "--a", str(a), "--b", str(a + 5))
    assert code == 0
    payload = json.loads(out)
    assert payload["anchor"] == a
    assert payload["checks"]["passed"]

    code, out = run_cli(capsys, "decompose", "--a", "0", "--b", str(1 << 20))
    assert code == 0
    assert json.loads(out)["passed"]


def test_scalar_subcommand_exit_codes(capsys):
    code, out = run_cli(
        capsys, "scalar", "--resolution", "6", "--trials", "10", "--seed", "1",
        "--p", "2",
    )
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["passed"]
    assert summary["config"]["kind"] == "scalar"


def test_cli_determinism_excluding_timestamp(capsys):
    args = ("scalar", "--resolution", "6", "--trials", "8", "--seed", "3", "--p", "4")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert strip_timestamps(out1) == strip_timestamps(out2)


def test_cli_writes_files(tmp_path, capsys):
    out_json = tmp_path / "report.jsonl"
    code, _ = run_cli(
        capsys, "pointwise", "--resolution", "6", "--trials", "5",
        "--out", str(out_json),
    )
    assert code == 0
    lines = out_json.read_text().strip().split("\n")
    assert len(lines) == 6  # five trials plus the summary object

    out_csv = tmp_path / "report.csv"
    code, _ = run_cli(
        capsys, "scalar", "--resolution", "5", "--trials", "4",
        "--out", str(out_csv), "--format", "csv",
    )
    assert code == 0
    header = out_csv.read_text().split("\n")[0]
    assert "config.resolution" in header


def test_verify_identities_subcommand(capsys):
    code, out = run_cli(
        capsys, "verify-identities", "--resolution", "6", "--trials", "5",
        "--seed", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]


def test_czd_subcommand(capsys):
    code, out = run_cli(
        capsys, "czd", "--lambda", "2.0", "--resolution", "6", "--dim", "2",
        "--q", "2", "--seed", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"]
    assert payload["config"]["lam"] == 2.0


def test_czd_large_q_norm_stays_finite(capsys):
    # |x| ** 1000 overflows the lattice norms; an infinite L^1 norm would
    # pass every bound compared against it
    code, out = run_cli(capsys, "czd", "--lambda", "1", "--q", "1000", "--resolution", "4")
    assert code == 0
    payload = json.loads(out)
    assert 0 < payload["l1_norm"] < math.inf


def test_env_var_seed(monkeypatch, capsys):
    monkeypatch.setenv("LPR_SEED", "77")
    code, out = run_cli(capsys, "scalar", "--resolution", "5", "--trials", "3")
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["config"]["seed"] == 77


def test_adjoint_subcommand(capsys):
    code, out = run_cli(
        capsys, "adjoint", "--resolution", "6", "--trials", "5", "--dim", "2",
        "--count", "3",
    )
    assert code == 0


def test_scalar_large_p_stays_finite(capsys):
    # the spike probe's 16 ** 400 overflows float64; the ratio must not
    code, out = run_cli(capsys, "scalar", "--p", "400", "--resolution", "4")
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])["summary"]
    (check,) = summary["asserted"]
    assert check["name"] == "ratios finite" and check["passed"]
    assert math.isfinite(check["worst"]) and math.isfinite(summary["max"])


@pytest.mark.parametrize(
    "argv",
    [
        ("lemma", "--p", "1000", "--resolution", "4", "--trials", "20", "--dim", "1"),
        ("vector", "--p", "1000", "--resolution", "4", "--trials", "20"),
        ("vector", "--p", "700", "--resolution", "4", "--trials", "20", "--count", "1"),
        ("vector", "--q", "1000", "--resolution", "4", "--trials", "5", "--dim", "2"),
        ("lemma", "--q", "1000", "--resolution", "4", "--trials", "5", "--dim", "3"),
    ],
    ids=["lemma-p1000", "vector-p1000", "vector-p700-count1", "vector-q1000", "lemma-q1000"],
)
def test_large_p_norms_stay_in_range(capsys, argv):
    # Gaussian cell values above about 2 overflow |x| ** 1000 in float64,
    # as L^p means for a large p and as lattice norms for a large q
    code, out = run_cli(capsys, *argv)
    assert code == 0
    *trials, tail = [json.loads(line) for line in out.strip().split("\n")]
    (check,) = tail["summary"]["asserted"]
    assert check["name"] == "ratios finite" and check["passed"]
    assert math.isfinite(check["worst"])
    for rec in trials:
        assert 0 < rec["lhs"] < math.inf and 0 < rec["rhs"] < math.inf, rec


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# Each row gives its command, then the refused input, as a flag and value
# or as a dict of environment variables to set, then the other flags.
@pytest.mark.parametrize(
    "argv",
    [
        ("scalar", "--trials", "0"),
        ("scalar", "--p", "inf"),
        ("scalar", "--p", "nan"),
        ("decompose", "--a", "5", "--b", "5"),
        ("czd", "--lambda", "-1"),
        ("vector", "--rad", "mc:0", "--resolution", "4", "--trials", "2"),
        ("verify-identities", "--trials", "0", "--resolution", "4"),
        ("verify-identities", "--resolution", "21"),
        ("verify-identities", "--resolution", "2"),
        ("verify-identities", "--resolution", "3", "--seed", "1", "--trials", "2"),
        ("decompose", "--a", "0", "--b", "4000000000"),
        ("decompose", "--a", "0", "--b", str((1 << 20) + 1)),
        ("czd", "--resolution", "21", "--lambda", "1"),
        ("czd", "--lambda", "nan"),
        ("czd", "--lambda", "inf"),
        ("czd", "--q", "nan", "--lambda", "1"),
        ("adjoint", "--count", "21", "--resolution", "6", "--trials", "1"),
        ("czd", "--dim", "0", "--lambda", "1"),
        ("czd", "--seed", "-3", "--lambda", "1"),
        ("verify-identities", "--seed", "-1", "--resolution", "4", "--trials", "1"),
        ("scalar", "--policy", "bogus", "--p", "4", "--trials", "3", "--resolution", "6"),
        ("scalar", "--policy", "sparse-spectrum:0", "--trials", "3", "--resolution", "6"),
        ("pointwise", "--rad", "bogus", "--resolution", "4", "--trials", "1"),
        ("scalar", "--seed", "-1", "--trials", "2"),
        ("scalar", {"LPR_SEED": "abc"}, "--resolution", "4", "--trials", "2"),
        ("verify-identities", {"LPR_SEED": "abc"}, "--resolution", "4"),
        # a file cannot hold a directory entry, so these paths are unwritable
        ("scalar", "--out", str(Path(__file__) / "r.jsonl"), "--trials", "2"),
        ("czd", "--out", str(Path(__file__) / "r.json"), "--lambda", "1"),
        ("decompose", "--out", str(Path(__file__) / "r.json"), "--a", "1", "--b", "6"),
        # sizes over the per-trial float limit are refused before any draw
        ("czd", "--dim", str(10**12), "--lambda", "1", "--resolution", "4"),
        ("vector", "--dim", str(10**12), "--resolution", "4", "--trials", "1", "--count", "1"),
        ("lemma", "--components", str(10**12), "--resolution", "4", "--trials", "1"),
        ("pointwise", "--count", "65536", "--resolution", "16", "--family", "singletons",
         "--trials", "1"),
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, monkeypatch, argv):
    command, refused, *rest = argv
    if isinstance(refused, dict):
        for name, value in refused.items():
            monkeypatch.setenv(name, value)
        names = list(refused) + list(refused.values())
    else:
        names = [refused.lstrip("-"), rest[0]]
        rest = [refused, *rest]
    code = main([command, *rest])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith(f"lpr {command}: error: ")
    # the message names the refused input or quotes its value
    assert any(name.lower() in lines[0].lower() for name in names), lines[0]


# The first count each family policy cannot draw at N = 4 (16 cells).
FIRST_INFEASIBLE_AT_4 = {"random": 9, "singletons": 17, "dyadic": 17, "misaligned": 6}


# The scalar campaign runs its probes first, and they draw no family; a run
# of probes only must be refused all the same.
@pytest.mark.parametrize("trials", ["1", "2", "20"])
@pytest.mark.parametrize("family, count", FIRST_INFEASIBLE_AT_4.items())
def test_family_count_refused_at_any_trial_count(capsys, family, count, trials):
    code = main([
        "scalar", "--resolution", "4", "--family", family, "--count", str(count),
        "--trials", trials,
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("lpr scalar: error: cannot ")
    assert len(captured.err.strip().split("\n")) == 1


def test_monte_carlo_sample_beyond_the_cap_exits_2(capsys, monkeypatch):
    from walshlab import lattice

    def no_signs(*args, **kwargs):  # the refusal comes before any sign is drawn
        raise AssertionError("the sample was not refused")

    monkeypatch.setattr(lattice, "_sign_chunks", no_signs)
    mode = f"mc:{100 * lattice.MC_SAMPLE_LIMIT}"
    code = main([
        "vector", "--rad", mode, "--trials", "1", "--resolution", "2", "--count", "1",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("lpr vector: error: ") and mode in lines[0]


def test_lemma_draws_no_family_and_is_not_refused(capsys):
    code, _ = run_cli(capsys, "lemma", "--resolution", "1", "--trials", "2")
    assert code == 0


def test_ratio_commands_match_runners():
    from walshlab.cli import RATIO_COMMANDS
    from walshlab.experiments import RUNNERS

    assert RATIO_COMMANDS == tuple(RUNNERS)
