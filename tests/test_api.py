"""The top-level names and the README library example that uses them."""

import re
from pathlib import Path

import proxsplit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_top_level_exports_are_the_library_example_names():
    assert sorted(proxsplit.__all__) == [
        "StopRule", "bqp_estimate", "bqp_protocol_params", "build_prox_pair", "gen_bqp",
        "gen_sr", "reference_solve", "run_drs", "sr_estimate", "sr_protocol_params"]
    for name in proxsplit.__all__:
        assert getattr(proxsplit, name).__module__.startswith("proxsplit.")


def test_readme_library_example_runs_as_written(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    iterations, stop_reason = capsys.readouterr().out.split()
    assert int(iterations) > 0 and stop_reason == "mse_eps"
