"""The README examples run as written: its JSON configs through the CLI, its quick start as code."""

import json
import re
from pathlib import Path

from herglotz_measures.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_config_examples_exit_0(tmp_path, monkeypatch):
    # The configs name relative paths, and verify reads what generate wrote.
    monkeypatch.chdir(tmp_path)
    configs = [json.loads(block) for block in _code_blocks("json")]
    assert [config["command"] for config in configs] == ["generate", "verify", "bounds", "sweep"]
    for config in configs:
        path = tmp_path / f"{config['command']}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main([config["command"], "--config", str(path)]) == 0
        assert (tmp_path / config["output_path"]).is_file()


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (quick_start,) = _code_blocks("python")
    exec(compile(quick_start, str(README), "exec"), {})
    assert "True" in capsys.readouterr().out
