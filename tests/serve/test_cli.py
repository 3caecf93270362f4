"""``python -m repro.serve``: flag parsing and the config it builds.

The server loop itself is covered by ``test_server.py``; these tests pin
the command line -- which backends and per-update families it offers, and
that every accepted combination builds a valid :class:`STLConfig`.
"""

from __future__ import annotations

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.serve.__main__ import _config, _load_graph, _parse_args


class TestServeCommandLine:
    def test_defaults_build_the_default_config(self):
        args = _parse_args(["--grid", "4"])
        assert _config(args) == DEFAULT_CONFIG

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backend_choices_build_a_valid_config(self, backend):
        args = _parse_args(["--grid", "4", "--backend", backend])
        assert _config(args).backend == backend

    def test_retired_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            _parse_args(["--grid", "4", "--backend=thread"])
        assert err.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["pareto", "label_search"])
    def test_engine_picks_the_per_update_family(self, engine):
        args = _parse_args(["--grid", "4", "--engine", engine])
        assert _config(args).maintenance == engine

    def test_engine_help_names_the_per_update_family(self, capsys):
        with pytest.raises(SystemExit):
            _parse_args(["--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "per-update maintenance family" in help_text

    @pytest.mark.parametrize(
        "argv", [[], ["--grid", "4", "--dimacs", "roads.gr"]], ids=["none", "both"]
    )
    def test_exactly_one_graph_source_required(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            _parse_args(argv)
        assert err.value.code == 2
        capsys.readouterr()

    def test_grid_source_loads_an_n_by_n_grid(self):
        graph = _load_graph(_parse_args(["--grid", "4", "--seed", "3"]))
        assert graph.num_vertices == 16
        again = _load_graph(_parse_args(["--grid", "4", "--seed", "3"]))
        assert sorted(graph.edges()) == sorted(again.edges())
