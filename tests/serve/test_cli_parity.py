"""CLI ``--json`` bodies equal the daemon's HTTP bodies over one store.

``campaign list``, ``campaign show`` and ``monitor alerts`` carry the same
data as ``GET /campaigns``, ``GET /campaigns/<id>`` plus ``/log``, and
``GET /alerts``: both surfaces call one store-level reader, the way
``report`` and the report endpoints share ``Analytics.report``.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.campaigns import Campaign
from repro.campaigns.store import SqliteStore
from repro.cli import main
from repro.serve import TunerClient, TunerServer, TunerService

from tests.analytics.conftest import fill_store
from tests.monitor.test_determinism import flaky_spec


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """(store path, flaky campaign id, client) for a daemon over one filled store."""
    path = str(tmp_path_factory.mktemp("parity") / "campaigns.sqlite")
    with SqliteStore(path) as store:
        fill_store(store)
        campaign = Campaign.start(store, flaky_spec(name="parity-flaky"))
        campaign.run()
    service = TunerService(store=SqliteStore(path))
    server = TunerServer(service).start_background()
    try:
        yield path, campaign.campaign_id, TunerClient(server.url, timeout=30.0)
    finally:
        server.shutdown()
        service.close()


def cli_json(*argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([*argv, "--json"]) == 0
    return json.loads(out.getvalue())


class TestCliEqualsHttp:
    def test_campaign_list_equals_get_campaigns(self, served):
        path, _, client = served
        payload = cli_json("campaign", "list", "--store", path)
        assert payload["schema"] == "repro.campaign.list/1"
        assert len(payload["campaigns"]) == 4
        assert payload["campaigns"] == client.list_campaigns()

    def test_campaign_show_equals_get_campaign_plus_log(self, served):
        path, flaky_id, client = served
        for campaign_id in ("c-alpha", "c-beta", "c-gamma", flaky_id):
            payload = cli_json("campaign", "show", campaign_id, "--store", path)
            assert payload["schema"] == "repro.campaign.show/1"
            assert payload["campaign"] == client.show(campaign_id)
            assert payload["events"] == client.log(campaign_id)

    def test_monitor_alerts_equals_get_alerts(self, served):
        path, flaky_id, client = served
        payload = cli_json("monitor", "alerts", "--store", path)
        assert payload.pop("schema") == "repro.monitor/1"
        assert payload.pop("kind") == "alerts"
        assert payload["count"] > 0
        assert payload == client.alerts()
        narrowed = cli_json("monitor", "alerts", "--store", path, "--campaign", flaky_id)
        del narrowed["schema"], narrowed["kind"]
        assert narrowed == client.alerts(flaky_id)
