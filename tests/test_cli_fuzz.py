"""One-key config fuzz of the command line, in process.

Each example takes a shipped config, shrinks its grid, steps and budgets so
that a command runs in milliseconds, then sets one of its keys to a value a
config may hold but a system may not accept (zero, negative, nan, infinite,
huge, subnormal, unreadable), or adds a key the format does not have. It
runs ``classify --x0 zero`` or ``validate`` through ``cli.main``. Whatever
the value, the command must end in one of the documented exit codes, raise
no exception and no numpy warning, and state a failure in one stderr line.
"""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from monotone_lab import parse_config
from monotone_lab.cli import main

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))
VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "5e-324", "not-a-number"]
# keys the format no longer has, and the section each was read from
REMOVED = {"theta": "time", "monotone_expected": "system"}
# caps that keep one command in milliseconds
CAPS = {"grid": {"n": "8"}, "time": {"steps_per_period": "40"},
        "classify": {"max_iterations": "40", "p_max": "4"}}


def capped(path):
    """The config at ``path`` as {section: {key: value}}, with CAPS applied."""
    cfg = parse_config(path.read_text(encoding="utf-8"))
    cfg.setdefault("classify", {})
    if "grid" in cfg:
        cfg.setdefault("time", {})
    for section, caps in CAPS.items():
        if section in cfg:
            cfg[section].update(caps)
    return cfg


def targets():
    """(config, section, key) for every key of every capped config, and each
    removed key added to every config that has its section."""
    out = []
    for path in CONFIGS:
        cfg = capped(path)
        out += [(path, section, key) for section, table in cfg.items() for key in table]
        out += [(path, section, key) for key, section in REMOVED.items() if section in cfg]
    return out


def render(cfg):
    return "".join(
        f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in table.items())
        for section, table in cfg.items()
    )


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), caught


@settings(max_examples=150, derandomize=True)
@given(
    target=st.sampled_from(targets()),
    value=st.sampled_from(VALUES),
    command=st.sampled_from([["classify", "--x0", "zero"], ["validate"]]),
)
def test_one_bad_key_fails_cleanly(tmp_path_factory, target, value, command):
    path, section, key = target
    cfg = capped(path)
    cfg.setdefault(section, {})[key] = value
    config = tmp_path_factory.mktemp("fuzz") / path.name
    config.write_text(render(cfg), encoding="utf-8")
    # an exception that escapes main fails the example with its traceback
    code, out, err, caught = run([command[0], str(config), *command[1:]])
    assert not caught, [str(w.message) for w in caught]
    if key in REMOVED:
        assert code == 1 and f"unknown key {key!r} in [{section}]" in err, err
    if code == 0:
        assert err == ""
    elif code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code == 2, code
        # a numerical failure is one stderr line; a validate whose checks
        # fail says so in its report on stdout
        if err:
            assert err.startswith("numerical failure: ") and err.count("\n") == 1, err
        else:
            assert command == ["validate"] and out.endswith("overall: FAIL\n"), out


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_capped_configs_run(path, tmp_path):
    # the caps alone leave every shipped config runnable, so the fuzz above
    # reaches the commands, not only the config reader
    config = tmp_path / path.name
    config.write_text(render(capped(path)), encoding="utf-8")
    # validate exits 2 where a check fails, as on the logistic map
    for argv, codes in ((["classify", str(config), "--x0", "zero"], {0}),
                        (["validate", str(config)], {0, 2})):
        code, _, err, caught = run(argv)
        assert code in codes and err == "" and not caught, (argv, code, err, caught)
