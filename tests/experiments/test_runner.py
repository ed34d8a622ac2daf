"""Tests for the table/series rendering utilities and configs."""

from dataclasses import FrozenInstanceError

import pytest

from repro.experiments.config import Fig2Config, Fig6Config
from repro.experiments.runner import render_table, rows_to_csv
from tests.conftest import series


ROWS = [
    {"x": 1, "scheme": "a", "y": 0.5},
    {"x": 2, "scheme": "a", "y": 0.7},
    {"x": 1, "scheme": "b", "y": 0.1},
]


class TestSeries:
    def test_groups_and_sorts(self):
        out = series(ROWS, "x", "y")
        assert out == {"a": [(1, 0.5), (2, 0.7)], "b": [(1, 0.1)]}

    def test_missing_scheme_key(self):
        out = series([{"x": 1, "y": 2.0}], "x", "y")
        assert out == {"value": [(1, 2.0)]}


class TestRenderTable:
    def test_contains_headers_and_values(self):
        text = render_table(ROWS, title="demo")
        assert "demo" in text
        assert "scheme" in text
        assert "0.5000" in text

    def test_column_subset(self):
        text = render_table(ROWS, columns=["x", "y"])
        assert "scheme" not in text

    def test_empty(self):
        assert render_table([]) == "(no rows)\n"

    def test_alignment(self):
        lines = render_table(ROWS).splitlines()
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all data lines equal width


class TestCsv:
    def test_header_and_rows(self):
        text = rows_to_csv(ROWS)
        lines = text.strip().split("\n")
        assert lines[0] == "x,scheme,y"
        assert lines[1] == "1,a,0.5"
        assert len(lines) == 4

    def test_empty(self):
        assert rows_to_csv([]) == ""


class TestConfigs:
    def test_frozen(self):
        config = Fig2Config()
        with pytest.raises(FrozenInstanceError):
            config.num_nodes = 1  # type: ignore[misc]

    def test_paper_defaults(self):
        config = Fig2Config()
        assert config.num_nodes == 10_000
        assert config.num_tunnels == 5_000
        assert config.tunnel_length == 5
        assert config.replication_factors == (3, 5)

    def test_fig6_paper_defaults(self):
        config = Fig6Config()
        assert config.file_bits == 2_000_000.0
        assert config.bandwidth_bps == 1_500_000.0
        assert 100 in config.network_sizes and 10_000 in config.network_sizes

    def test_fast_smaller(self):
        assert Fig2Config.fast().num_nodes < Fig2Config().num_nodes
