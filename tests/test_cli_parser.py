"""``main`` parses with one leaf's parser; it must act like the full parser.

``main`` builds only the root → group → leaf chain of the leaf named on the
command line and falls back to :func:`build_parser` for help and for every
usage error.  These tests run the same argv through ``main`` and through
the full parser and compare exit code, stdout and stderr byte for byte, and
the parsed Namespace of a valid argv.
"""

from __future__ import annotations

import argparse

import pytest

from repro import cli
from repro.cli import GROUPS, LEAVES, build_parser, main


class _Parsed(Exception):
    """Raised in place of running the handler, carrying ``main``'s Namespace."""

    def __init__(self, args: argparse.Namespace) -> None:
        super().__init__()
        self.namespace = args


def _value(options: dict) -> str:
    """A value the flag's parser accepts."""
    if "choices" in options:
        return options["choices"][0]
    if options.get("type") in (int, float):
        return "1"
    return "c-alpha"


def _positionals(flags) -> list[tuple[tuple, dict]]:
    return [(names, options) for names, options in flags if not names[0].startswith("-")]


def _valid_argv(path: str, flags, positionals: bool = True) -> list[str]:
    """The leaf, its required options, every switch and (optionally) its positionals."""
    argv = path.split()
    for names, options in flags:
        if options.get("required"):
            argv += [names[0], _value(options)]
        elif options.get("action") == "store_true":
            argv.append(names[0])
    if positionals:
        argv += [_value(options) for _, options in _positionals(flags)]
    return argv


def _option_with_value(flags) -> str | None:
    for names, options in flags:
        if names[0].startswith("-") and "action" not in options:
            return names[0]
    return None


def _cases() -> list[pytest.param]:
    cases = [
        pytest.param([], id="no-command"),
        pytest.param(["--help"], id="root-help"),
        pytest.param(["campaign", "list", "--bogus"], id="campaign-list-bogus"),
        pytest.param(["no-such-command"], id="unknown-command"),
        pytest.param(["run", "--dataset", "no-such-task"], id="run-bad-registry-value"),
    ]
    cases += [pytest.param([group, "--help"], id=f"{group}-help") for group in GROUPS]
    for path, _, _, flags in LEAVES:
        name = path.replace(" ", "-")
        valid = _valid_argv(path, flags)
        cases.append(pytest.param([*path.split(), "--help"], id=f"{name}-help"))
        cases.append(pytest.param([*valid, "--no-such-flag"], id=f"{name}-unknown-flag"))
        option = _option_with_value(flags)
        if option is not None:
            cases.append(pytest.param([*valid, option], id=f"{name}-no-value"))
        if any(options.get("nargs") != "?" for _, options in _positionals(flags)):
            argv = _valid_argv(path, flags, positionals=False)
            cases.append(pytest.param(argv, id=f"{name}-missing-positional"))
    return cases


def _outcome(parse, argv: list[str], capsys) -> tuple:
    with pytest.raises(SystemExit) as exit:
        parse(argv)
    captured = capsys.readouterr()
    return exit.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", _cases())
def test_help_and_usage_errors_match_the_full_parser(capsys, argv):
    expected = _outcome(build_parser().parse_args, argv, capsys)
    assert _outcome(main, argv, capsys) == expected


@pytest.mark.parametrize("path, flags", [pytest.param(p, f, id=p) for p, _, _, f in LEAVES])
def test_a_valid_argv_parses_to_the_full_parsers_namespace(monkeypatch, path, flags):
    argv = _valid_argv(path, flags)

    built = []

    def spy(leaves=LEAVES, *rest):
        built.append([entry[0] for entry in leaves])
        return build_parser(leaves, *rest)

    def capture(args: argparse.Namespace) -> None:
        raise _Parsed(args)

    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.setattr(cli, "_resolve_trace_dir", capture)
    with pytest.raises(_Parsed) as parsed:
        main(argv)
    assert built == [[path]]
    assert parsed.value.namespace == build_parser().parse_args(argv)
    assert parsed.value.namespace.leaf == path


def test_the_leaf_parser_alone_would_print_a_different_usage(capsys):
    """Why ``main`` falls back: the one-leaf root lists only that group."""
    leaf = [entry for entry in LEAVES if entry[0] == "campaign list"]
    with pytest.raises(argparse.ArgumentError):
        build_parser(leaf, cli._RaisingParser).parse_args(["campaign", "list", "--bogus"])
    with pytest.raises(SystemExit):
        build_parser(leaf).parse_args(["campaign", "list", "--bogus"])
    assert capsys.readouterr().err.startswith("usage: repro [-h] {campaign} ...")
