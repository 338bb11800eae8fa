"""Knob census: every ``REPRO_*`` name the code mentions is a row of the
README "Configuration" table, and vice versa — a new knob cannot land
undocumented, and a documented knob cannot silently disappear.  The
live cluster's command-line flags are counted the same way against
README's "Live cluster" section."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _names_in_code():
    """Every ``REPRO_*`` token under src/ and benchmarks/ — env reads go
    through module constants as often as literals, so any mention counts
    (a docstring naming a knob that does not exist is a bug too)."""
    found = {}
    for top in ("src", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for name in _NAME.findall(path.read_text(encoding="utf-8")):
                found.setdefault(name, str(path.relative_to(ROOT)))
    return found


def _names_in_readme_table():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return {
        match.group(1)
        for match in re.finditer(r"(?m)^\| `(REPRO_[A-Z0-9_]+)` \|", section)
    }


def test_code_mentions_exactly_the_documented_knobs():
    found = _names_in_code()
    documented = _names_in_readme_table()
    undocumented = {n: p for n, p in found.items() if n not in documented}
    assert not undocumented, f"not in README's table: {undocumented}"
    assert documented == set(found), (
        f"documented but unused: {documented - set(found)}"
    )
    # Growing this number needs two callers that want different values;
    # with one value in use, make it a constant instead.
    assert len(documented) == 10


def test_cluster_cli_flags_are_exactly_the_documented_ones():
    from repro.transport.cluster import _parser

    flags = {
        option
        for action in _parser()._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Live cluster (real TCP)\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert flags == documented, (
        f"undocumented: {flags - documented}; stale: {documented - flags}"
    )
    # Deployment settings (addresses, paths, credentials) and what two
    # callers set differently stay flags; one-valued tuning is a constant.
    assert len(flags) == 12
