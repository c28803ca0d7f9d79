"""Property test of the CLI's merge of --config values with flags."""

import json
import os
import string
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from varkg import cli

finite = st.floats(allow_nan=False, allow_infinity=False)
# each flag type with the values it can take, as JSON values and as flag text
VALUES = {
    float: finite,
    int: st.integers(-10**6, 10**6),
    cli.nonnegative_int: st.integers(0, 10**6),
    cli.positive_float: st.floats(0.0, exclude_min=True, allow_infinity=False),
    str: st.text(string.ascii_letters + string.digits + "._-", min_size=1, max_size=12),
    cli.float_list: st.lists(finite, min_size=1, max_size=4).map(
        lambda xs: ",".join(map(repr, xs))),
}


def _values(command):
    return st.fixed_dictionaries({key: VALUES[cli.FLAGS[key].type]
                                  for key in cli.COMMANDS[command].defaults})


def _resolved(root, argv, config=None):
    """The manifest's config of one run, with config (if any) as --config."""
    prefix = []
    if config is not None:
        path = os.path.join(root, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        prefix = ["--config", path]
    outdir = next(arg.split("=", 1)[1] for arg in argv if arg.startswith("--outdir="))
    manifest_path = os.path.join(outdir, "manifest.json")
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    assert cli.run(prefix + argv) == 0
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    assert (manifest["status"], manifest["error"]) == (0, None)
    return manifest["config"]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_value_resolves_like_the_same_flag(command, data, monkeypatch, capsys):
    monkeypatch.delenv("VARKG_OUTDIR", raising=False)
    spec = cli.COMMANDS[command]
    monkeypatch.setitem(cli.COMMANDS, command, spec._replace(handler=lambda cfg: 0))
    values, other = data.draw(_values(command)), data.draw(_values(command))
    with tempfile.TemporaryDirectory() as root:
        for drawn in (values, other):
            drawn["outdir"] = os.path.join(root, drawn["outdir"])
        flags = [f"{cli.FLAGS[key].option}={value}" for key, value in values.items()]
        by_flags = _resolved(root, [command, *flags])
        by_config = _resolved(root, [command, f"--outdir={values['outdir']}"], values)
        flags_win = _resolved(root, [command, *flags], other)
    assert set(by_flags) == set(spec.defaults)
    assert by_flags == by_config == flags_win
    capsys.readouterr()
