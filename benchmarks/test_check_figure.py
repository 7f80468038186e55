"""The paper-figure checker and the count options of the benchmark scripts."""

import pytest

import bench_eval
import bench_fusion
import bench_utils

REPORT = "Fig. X - demo\n=============\nlayer  speedup\n-----  -------\na      1.55   "


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_utils, "RESULTS_DIR", tmp_path)
    monkeypatch.delenv("REGEN_GOLDEN", raising=False)
    monkeypatch.delenv("REPRO_FULL_EVAL", raising=False)
    return tmp_path


def test_report_equal_to_the_committed_file_passes(results_dir, capsys):
    (results_dir / "figx.txt").write_text(REPORT + "\n")
    bench_utils.check_figure("figx", REPORT)
    assert REPORT in capsys.readouterr().out
    assert (results_dir / "figx.txt").read_text() == REPORT + "\n"


def test_one_digit_drift_fails_and_names_the_file_and_the_regen_knob(results_dir):
    (results_dir / "figx.txt").write_text(REPORT + "\n")
    with pytest.raises(AssertionError) as failure:
        bench_utils.check_figure("figx", REPORT.replace("1.55", "1.56"))
    message = str(failure.value)
    assert str(results_dir / "figx.txt") in message
    assert "REGEN_GOLDEN=1" in message
    assert "-a      1.55" in message and "+a      1.56" in message
    assert (results_dir / "figx.txt").read_text() == REPORT + "\n"


def test_missing_committed_file_fails(results_dir):
    with pytest.raises(AssertionError, match="REGEN_GOLDEN=1"):
        bench_utils.check_figure("figx", REPORT)
    assert not (results_dir / "figx.txt").exists()


def test_regen_golden_rewrites_the_file(results_dir, monkeypatch):
    (results_dir / "figx.txt").write_text("stale\n")
    monkeypatch.setenv("REGEN_GOLDEN", "1")
    bench_utils.check_figure("figx", REPORT)
    assert (results_dir / "figx.txt").read_text() == REPORT + "\n"


def test_full_evaluation_prints_only(results_dir, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FULL_EVAL", "1")
    monkeypatch.setenv("REGEN_GOLDEN", "1")
    bench_utils.check_figure("figx", REPORT)
    assert REPORT in capsys.readouterr().out
    assert list(results_dir.iterdir()) == []


@pytest.mark.parametrize(
    "main, argv",
    [
        (bench_eval.main, ["--samples", "0"]),
        (bench_eval.main, ["--samples", "-3"]),
        (bench_eval.main, ["--moves", "0"]),
        (bench_fusion.main, ["--fused-samples", "0"]),
        (bench_fusion.main, ["--batch", "-1"]),
    ],
)
def test_count_options_reject_non_positive_values(main, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err
