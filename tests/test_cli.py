"""The `python -m repro` experiment runner."""

import ast

import pytest

from repro.__main__ import discover, main


class TestDiscovery:
    def test_finds_all_experiments(self):
        exps = discover()
        for exp in ["t1", "t9", "f1", "f7", "a1", "a6"]:
            assert exp in exps

    def test_ids_map_to_files(self):
        for exp_id, path in discover().items():
            assert path.name.startswith(f"bench_{exp_id}_")
            assert path.exists()

    def test_only_letter_digit_ids(self):
        exps = discover()
        assert "chaos" not in exps     # bench_chaos_*: no letter-digit id
        for exp_id in exps:
            assert exp_id[0].isalpha() and exp_id[1:].isdigit()

    def test_every_experiment_defines_its_runner(self):
        for exp_id, path in discover().items():
            tree = ast.parse(path.read_text())
            defined = {node.name for node in tree.body
                       if isinstance(node, ast.FunctionDef)}
            assert f"run_{exp_id}" in defined, path.name


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "t1" in out and "a6" in out

    def test_help(self, capsys):
        assert main([]) == 0
        assert "Usage" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_experiment(self, capsys):
        assert main(["run", "zz"]) == 1
        assert "unknown experiment" in capsys.readouterr().out

    def test_run_one(self, capsys):
        assert main(["run", "a1"]) == 0
        out = capsys.readouterr().out
        assert "A1:" in out and "RS(" in out
