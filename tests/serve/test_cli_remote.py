"""CLI coverage: the ``remote`` family and the ``--json`` output mode."""

from __future__ import annotations

import json

import pytest

from repro import cli

from tests.serve.conftest import run_in_process, tiny_spec


def _remote(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def _submit_args(url: str, name: str = "cli-tiny", seed: int = 3) -> list[str]:
    spec = tiny_spec(name=name, seed=seed)
    return [
        "remote", "submit", "--url", url,
        "--name", spec["name"],
        "--dataset", spec["dataset"],
        "--method", spec["method"],
        "--budget", str(spec["budget"]),
        "--seed", str(spec["seed"]),
        "--initial-size", str(spec["base_size"]),
        "--validation-size", str(spec["validation_size"]),
        "--epochs", str(spec["epochs"]),
        "--curve-points", str(spec["curve_points"]),
    ]


def test_remote_submit_wait_and_result(served, capsys):
    _, server, _ = served
    baseline, _ = run_in_process(tiny_spec(name="cli-tiny"))
    code, out = _remote(capsys, *_submit_args(server.url), "--wait")
    assert code == 0
    assert "completed" in out
    campaign_id = out.split()[0]

    code, out = _remote(
        capsys, "remote", "result", campaign_id, "--url", server.url, "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "repro.remote.result/1"
    assert payload["result"] == baseline.to_dict()


def test_remote_list_show_stats(served, capsys):
    _, server, _ = served
    code, out = _remote(capsys, *_submit_args(server.url), "--wait")
    campaign_id = out.split()[0]

    code, out = _remote(capsys, "remote", "list", "--url", server.url)
    assert code == 0 and campaign_id in out

    code, out = _remote(capsys, "remote", "list", "--url", server.url, "--json")
    payload = json.loads(out)
    assert payload["schema"] == "repro.remote.list/1"
    assert payload["campaigns"][0]["campaign_id"] == campaign_id

    # remote show surfaces the daemon health table alongside the campaign.
    code, out = _remote(capsys, "remote", "show", campaign_id, "--url", server.url)
    assert code == 0
    assert "Tuner service health" in out
    assert "campaigns completed" in out

    code, out = _remote(
        capsys, "remote", "show", campaign_id, "--url", server.url, "--quiet"
    )
    assert out.strip().startswith(f"{campaign_id} completed")

    code, out = _remote(capsys, "remote", "stats", "--url", server.url, "--quiet")
    assert code == 0 and "stored campaign(s)" in out


def test_remote_tail_streams_and_ends(served, capsys):
    _, server, _ = served
    code, out = _remote(capsys, *_submit_args(server.url), "--wait")
    campaign_id = out.split()[0]
    code, out = _remote(
        capsys, "remote", "tail", campaign_id, "--url", server.url, "--quiet"
    )
    assert code == 0
    assert "iteration" in out and "completed" in out.splitlines()[-1]

    code, out = _remote(
        capsys, "remote", "tail", campaign_id, "--url", server.url, "--json"
    )
    payload = json.loads(out)
    assert payload["schema"] == "repro.remote.tail/1"
    assert payload["frames"][-1]["event"] == "end"


def test_remote_errors_exit_2(served, capsys):
    _, server, _ = served
    code = cli.main(["remote", "show", "nope", "--url", server.url])
    assert code == 2
    capsys.readouterr()
    # Unreachable daemon also maps to the ReproError exit code.
    code = cli.main(
        ["remote", "list", "--url", "http://127.0.0.1:1", "--timeout", "2"]
    )
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        # A space in an id is percent-encoded; nothing listens on port 9.
        ["remote", "show", "a b", "--json", "--url", "http://127.0.0.1:9"],
        ["remote", "list", "--json", "--url", "http://127.0.0.1:notaport"],
    ],
)
def test_malformed_remote_input_exits_2(capsys, argv):
    assert cli.main([*argv, "--timeout", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_an_id_that_needs_quoting_reaches_the_daemon(served, capsys):
    _, server, _ = served
    assert cli.main(["remote", "show", "a b?kind=x", "--url", server.url]) == 2
    assert "HTTP 404" in capsys.readouterr().err


def test_remote_pause_resume_roundtrip(served, capsys):
    _, server, _ = served
    code, out = _remote(capsys, *_submit_args(server.url, name="pr", seed=9))
    assert code == 0 and "submitted" in out
    campaign_id = out.split(":")[0]
    code, out = _remote(
        capsys, "remote", "pause", campaign_id, "--url", server.url
    )
    assert code == 0
    code, out = _remote(
        capsys, "remote", "resume", campaign_id, "--url", server.url
    )
    assert code == 0
    code, out = _remote(
        capsys, "remote", "wait", campaign_id, "--url", server.url
    )
    assert code == 0 and "completed" in out
