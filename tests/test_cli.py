"""End-to-end command line checks, run in process through main(argv)."""
import re
import subprocess
import sys

import pytest

from evopath.bench import CSV_HEADER, gen_map
from evopath.cli import main
from evopath.egt import Policy

GEN_CFG = "map.width=4\nmap.height=4\nmap.density=0\nmap.goals=1\n"
EGT_CFG = (
    "algorithm=egt\nmap.width=4\nmap.height=4\nmap.density=0\nmap.goals=1\n"
    "world.horizon=10\negt.episodes=60\neval.episodes=5\ntiming=off\n"
)
SWEEP_CFG = (
    "algorithm=egt\nseed=9\ntiming=off\nmap.density=0.1\nmap.goals=1\n"
    "world.horizon=12\negt.episodes=30\neval.episodes=2\n"
    "sweep.values=4,6\nsweep.algorithms=astar,egt\n"
)


@pytest.fixture
def cfg_file(tmp_path):
    def write(text, name="exp.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def lines_as_dict(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


# -- gen-map ---------------------------------------------------------------------


def test_gen_map_prints_the_map_text(cfg_file, capsys):
    assert main(["gen-map", "--config", cfg_file(GEN_CFG)]) == 0
    out = capsys.readouterr().out
    assert out == gen_map(4, 4, 0.0, None, 1, 0).to_text()


def test_gen_map_writes_the_out_file(cfg_file, tmp_path, capsys):
    out_path = tmp_path / "room.map"
    assert main(["gen-map", "--config", cfg_file(GEN_CFG), "--out", str(out_path)]) == 0
    assert out_path.read_text() == gen_map(4, 4, 0.0, None, 1, 0).to_text()
    assert f"wrote {out_path}" in capsys.readouterr().out


def test_gen_map_seed_override_changes_the_instance(cfg_file, capsys):
    cfg = cfg_file(GEN_CFG.replace("map.density=0", "map.density=0.2"))
    main(["gen-map", "--config", cfg, "--seed", "1"])
    first = capsys.readouterr().out
    main(["gen-map", "--config", cfg, "--seed", "1"])
    again = capsys.readouterr().out
    main(["gen-map", "--config", cfg, "--seed", "2"])
    other = capsys.readouterr().out
    assert first == again
    assert first != other


# -- train -----------------------------------------------------------------------


def test_train_writes_a_loadable_policy_snapshot(cfg_file, tmp_path, capsys):
    out_path = tmp_path / "policy.txt"
    assert main(["train", "--config", cfg_file(EGT_CFG), "--out", str(out_path)]) == 0
    stats = lines_as_dict(capsys.readouterr().out.split("wrote", 1)[1].partition("\n")[2])
    assert stats["episodes_run"] == "60"
    assert int(stats["policy_updates"]) >= 0
    grid = gen_map(4, 4, 0.0, None, 1, 0)
    policy = Policy.from_text(grid, out_path.read_text())
    for cell in grid.free_cells():
        assert sum(policy.probs_at(cell)) == pytest.approx(1.0, abs=1e-6)


def test_train_rejects_astar(cfg_file, capsys):
    cfg = cfg_file(EGT_CFG.replace("algorithm=egt", "algorithm=astar"))
    assert main(["train", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert re.match(r"^error: ConfigError: ", err)


# -- eval ------------------------------------------------------------------------


def test_eval_prints_the_metrics_report(cfg_file, tmp_path, capsys):
    map_path = tmp_path / "lane.map"
    map_path.write_text("G...S\n")
    cfg = cfg_file(f"algorithm=astar\nmap.file={map_path}\neval.episodes=3\ntiming=off\n")
    assert main(["eval", "--config", cfg]) == 0
    report = lines_as_dict(capsys.readouterr().out)
    assert report["mean_path_length"] == "4.000000"
    assert report["success_rate"] == "1.000000"
    assert report["policy_updates"] == "0"
    assert report["mean_path_length_is_fallback"] == "false"


def test_eval_is_reproducible_with_timing_off(cfg_file, capsys):
    cfg = cfg_file(EGT_CFG)
    main(["eval", "--config", cfg])
    first = capsys.readouterr().out
    main(["eval", "--config", cfg])
    assert capsys.readouterr().out == first


# -- sweeps ----------------------------------------------------------------------


def test_sweep_grid_writes_data_and_summary(cfg_file, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["sweep-grid", "--config", cfg_file(SWEEP_CFG), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"wrote {out}" in printed
    summary = tmp_path / "grid_summary.csv"
    assert f"wrote {summary}" in printed
    data_lines = out.read_text().strip().splitlines()
    assert data_lines[0] == CSV_HEADER
    assert len(data_lines) == 1 + 4
    assert summary.read_text().startswith("algorithm,axis,axis_value,n_ok,")


def test_sweep_out_key_supplies_the_path(cfg_file, tmp_path, capsys):
    out = tmp_path / "cfg_out.csv"
    cfg = cfg_file(SWEEP_CFG + f"sweep.out={out}\n")
    assert main(["sweep-grid", "--config", cfg]) == 0
    capsys.readouterr()
    assert out.exists()


def test_sweep_without_an_output_path_fails(cfg_file, capsys):
    assert main(["sweep-grid", "--config", cfg_file(SWEEP_CFG)]) == 1
    assert re.match(r"^error: ConfigError: ", capsys.readouterr().err)


def test_sweep_agents_rejects_a_clashing_axis(cfg_file, tmp_path, capsys):
    cfg = cfg_file(SWEEP_CFG + "sweep.axis=grid_size\n")
    out = tmp_path / "x.csv"
    assert main(["sweep-agents", "--config", cfg, "--out", str(out)]) == 1
    assert re.match(r"^error: ConfigError: ", capsys.readouterr().err)


# -- ess-test --------------------------------------------------------------------


def test_ess_test_reports_the_invasion_outcome(cfg_file, capsys):
    cfg = cfg_file(EGT_CFG + "ess.p_new=0.1\ness.extra_fraction=0.1\ness.eval_episodes=20\n")
    assert main(["ess-test", "--config", cfg]) == 0
    report = lines_as_dict(capsys.readouterr().out)
    assert report["p_new"] == "0.100000"
    assert report["extra_episodes"] == "6"
    assert 0 <= int(report["states_compared"]) <= 15
    assert 0.0 <= float(report["argmax_agreement"]) <= 1.0
    assert report["is_ess"] in ("true", "false")


def test_ess_test_requires_the_counter_learner(cfg_file, capsys):
    cfg = cfg_file(EGT_CFG.replace("algorithm=egt", "algorithm=qlearn"))
    assert main(["ess-test", "--config", cfg]) == 1
    assert re.match(r"^error: ConfigError: ", capsys.readouterr().err)


# -- error surface ---------------------------------------------------------------


def test_missing_config_file_yields_a_machine_readable_error(capsys):
    assert main(["eval", "--config", "/nonexistent/exp.cfg"]) == 1
    err = capsys.readouterr().err
    assert re.match(r"^error: \w+: .+", err)
    assert "FileNotFoundError" in err


def test_bad_config_key_is_reported_with_its_name(cfg_file, capsys):
    assert main(["eval", "--config", cfg_file(EGT_CFG + "bogus.key=1\n")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:")
    assert "bogus.key" in err


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x"])
    assert exc.value.code == 2


def test_module_entry_point_runs_as_a_subprocess(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(GEN_CFG)
    proc = subprocess.run(
        [sys.executable, "-m", "evopath.cli", "gen-map", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == gen_map(4, 4, 0.0, None, 1, 0).to_text()
