"""Knob census: every ``REPRO_*`` name the code mentions is a row of the
README "Configuration" table, and vice versa — a new knob cannot land
undocumented, and a documented knob cannot silently disappear.  The
live cluster's command-line flags are counted the same way against
README's "Live cluster" section, the ``Transport`` protocol's members
against "The transport contract", and the live harness's seams are
checked for knobs smuggled in as default arguments, and the broadcast
layers are pinned to one Bracha and one signed protocol."""

import inspect
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
    assert len(documented) == 4


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
    assert len(flags) == 11


def test_transport_contract_is_exactly_the_documented_surface():
    """A backend-specific hook cannot join the ``Transport`` protocol
    unnoticed: its public members are the names README lists."""
    from repro.transport.interface import Transport

    members = {
        name
        for name in set(vars(Transport)) | set(Transport.__annotations__)
        if not name.startswith("_")
    }
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### The transport contract\n", 1)[1]
    listed = re.search(r"`Transport` is[^(]*\(([^)]*)\)", section).group(1)
    documented = set(re.findall(r"`(\w+)`", listed))
    assert members == documented, (
        f"undocumented: {members - documented}; stale: {documented - members}"
    )


def test_live_seams_take_no_default_argument_knobs():
    """How a replica boots and where it is placed are decisions, not
    settings: every parameter of the host, the in-loop placement and the
    boot choreography is one the caller must pass."""
    from repro.transport.cluster import LoopContext, _ClusterProcs
    from repro.transport.live import ReplicaHost

    seams = [
        ReplicaHost.__init__, ReplicaHost.start, ReplicaHost.rejoin,
        ReplicaHost.close, LoopContext.Process, _ClusterProcs.boot,
    ]
    defaulted = {
        f"{seam.__qualname__}({name})"
        for seam in seams
        for name, parameter in inspect.signature(seam).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }
    assert not defaulted


def test_deployment_configs_carry_only_settings_callers_vary():
    """A cost or calibration constant is the cost model's
    (``repro.crypto.costs``), not a config field: each field here is one
    that a caller sets."""
    from dataclasses import fields

    from repro.consensus.config import BftConfig
    from repro.core.config import AstroConfig

    # Growing this number needs two callers that want different values;
    # with one value in use, make it a constant instead.
    assert len(fields(AstroConfig)) == 8
    assert len(fields(BftConfig)) == 7


def test_one_bracha_and_one_signed_broadcast():
    """Two BRB layers, each with one constructor: a second Bracha (as
    DBRB once was) or a new behaviour switch on either fails here.
    Views are a method of Bracha's layer, not a parallel class."""
    from repro.brb.bracha import BrachaBroadcast
    from repro.brb.interface import BroadcastLayer
    from repro.brb.signed import SignedBroadcast

    assert set(BroadcastLayer.__subclasses__()) == {
        BrachaBroadcast,
        SignedBroadcast,
    }
    parameters = {
        cls.__name__: list(inspect.signature(cls.__init__).parameters)
        for cls in (BrachaBroadcast, SignedBroadcast)
    }
    assert parameters == {
        "BrachaBroadcast": ["self", "node", "peers", "deliver", "f"],
        "SignedBroadcast": [
            "self", "node", "peers", "deliver", "keychain", "key", "f",
            "ack_guard", "resend_acks",
        ],
    }
