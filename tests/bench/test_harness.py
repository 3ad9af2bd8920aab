"""Experiment harness: tables, series, sweeps."""

import pytest

from repro.bench import Series, Table


class TestTable:
    def test_render_alignment(self):
        t = Table("T0: demo", ["name", "value"])
        t.add_row(["a", 1.0])
        t.add_row(["longer", 123456.0])
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "== T0: demo =="
        assert len({len(l) for l in lines[1:]}) == 1   # aligned

    def test_row_arity_checked(self):
        t = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row([1])

    def test_float_formatting(self):
        t = Table("t", ["x"])
        t.add_row([0.000123])
        t.add_row([1234567.0])
        t.add_row([0.5])
        col = t.column("x")
        assert "e" in col[0] and "e" in col[1] and col[2] == "0.5"

    def test_column_accessor(self):
        t = Table("t", ["a", "b"])
        t.add_row([1, 2])
        t.add_row([3, 4])
        assert t.column("b") == ["2", "4"]

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [])

    def test_show_prints(self, capsys):
        t = Table("t", ["a"])
        t.add_row([1])
        t.show()
        assert "== t ==" in capsys.readouterr().out


class TestSeries:
    def test_add_and_render(self):
        s = Series("line")
        s.add(1, 2.0)
        s.add(2, 4.0)
        assert s.render() == "line: (1, 2)  (2, 4)"

    def test_show_prints(self, capsys):
        s = Series("x")
        s.add(0, 0)
        s.show()
        assert "x:" in capsys.readouterr().out
