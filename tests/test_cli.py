"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.hw import UnknownWorkloadError, find_workload


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.workload == "Alex-FC6"
        assert args.pes == 32

    def test_storage_model_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["storage", "--model", "vgg"])


class TestCommands:
    def test_simulate_runs(self, capsys):
        assert main(["simulate", "--workload", "NMT-1"]) == 0
        out = capsys.readouterr().out
        assert "NMT-1" in out and "cycles" in out

    def test_simulate_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "bogus"])

    def test_compare_runs(self, capsys):
        assert main(["compare", "--workload", "Alex-FC8"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_storage_alexnet(self, capsys):
        assert main(["storage", "--model", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "compression" in out and "9." in out

    def test_scale_runs(self, capsys):
        assert main(["scale", "--workload", "NMT-1"]) == 0
        out = capsys.readouterr().out
        assert "64 PEs" in out

    def test_memory_runs(self, capsys):
        assert main(["memory", "--sram-mb", "8"]) == 0
        out = capsys.readouterr().out
        assert "uJ/inference" in out


class TestWorkloadLookup:
    """The lookup is library code: typed errors, never SystemExit."""

    def test_find_workload_case_insensitive(self):
        assert find_workload("alex-fc6").name == "Alex-FC6"

    def test_find_workload_raises_typed_error(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            find_workload("bogus")
        assert not isinstance(excinfo.value, SystemExit)
        assert "Alex-FC6" in str(excinfo.value)  # message lists valid names

    def test_unknown_workload_is_lookup_error(self):
        assert issubclass(UnknownWorkloadError, LookupError)
