"""Start-up: each command loads only the layers it runs, in a fresh interpreter."""

import pytest

from . import startup_modules


@pytest.mark.parametrize("case", sorted(startup_modules.CASES))
def test_a_command_loads_only_the_layers_it_runs(case, tmp_path):
    argv, expected = startup_modules.CASES[case]
    assert startup_modules.loaded(argv, tmp_path) == expected
