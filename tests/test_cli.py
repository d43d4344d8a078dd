import json

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


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


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
        ("czd", "--lambda", "1", "--resolution", "21"),
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith(f"lpr {argv[0]}: error: ")


def test_ratio_commands_match_runners():
    from walshlab.cli import RATIO_COMMANDS
    from walshlab.experiments import RUNNERS

    assert RATIO_COMMANDS == tuple(RUNNERS)
