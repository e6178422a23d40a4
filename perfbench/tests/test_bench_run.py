"""The stub, the host clock, the tracer and the command's output contract.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest
import requests

import transact.ego_agent
import transact.orchestrator
from perfbench import hostclock, stub, workloads
from perfbench.tracing import Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("helper", ["perfbench.stub", "perfbench.hostclock"])
def test_helpers_never_import_the_program(helper):
    code = f"import sys, {helper}; sys.exit(any(m.startswith('transact') for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], cwd=ROOT).returncode == 0


def test_host_clock_samples_at_most_once_per_interval():
    clock = hostclock.HostClock(ROOT)
    try:
        clock.tick()
        clock.tick()  # within INTERVAL_S of the first: no sample
        assert len(clock.samples_ms) == 1
        clock._last -= hostclock.INTERVAL_S
        clock.tick()
        assert len(clock.samples_ms) == 2
    finally:
        clock.close()
    assert clock._proc.returncode == 0
    assert all(ms > 0 for ms in clock.samples_ms)


def test_host_clock_scales_by_the_samples_near_an_interval():
    clock = hostclock.HostClock(ROOT)
    clock.close()
    ref, w = hostclock.REFERENCE_MS, hostclock.WINDOW_S
    clock.samples_ms, clock._at = [1.0, 3.0], [0.0, 10 * w]
    assert clock.scale(0.0, 0.5 * w) == ref / 1.0
    assert clock.scale(9 * w, 9.5 * w) == ref / 3.0
    assert clock.scale(w, 9 * w) == ref / 2.0
    # An interval with no sample within WINDOW_S takes the whole run's mean.
    assert clock.scale(5 * w, 5 * w) == ref / 2.0


def test_stub_sets_tcp_nodelay():
    seen = []

    class Probe(stub.Handler):
        def setup(self):
            super().setup()
            seen.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    server = ThreadingHTTPServer(("127.0.0.1", 0), Probe)
    server.replay = stub.Replay({"agents": []}, [])
    server.delay_s = 0.0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        resp = requests.post(f"http://127.0.0.1:{server.server_address[1]}/_bench/reset", json={})
        assert resp.json() == {"requests": 0}
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert seen and all(seen)


def test_http_stub_run_matches_golden_and_counts_requests(tmp_path):
    wl = workloads.HttpStub(tmp_path, seed=0)
    wl.prepare()
    try:
        tracer = Tracer()
        with tracer:
            group = wl.group(tracer)
    finally:
        wl.close()
    assert wl.stub.returncode is not None
    assert group.failed == 0 and group.ops == 10
    # 70 completions and one embedding request per distinct text (66 of 90).
    assert tracer.counters["stub.requests"] == 136
    assert tracer.metrics(1.0)["provider.http.requests_per_call"][0] == 1.0


def test_traced_bundled_run_counts_and_restores_patches(tmp_path):
    original = transact.ego_agent.search_top_k, transact.orchestrator.run_ego_turn
    wl = workloads.BundledScripted(tmp_path, seed=0)
    tracer = Tracer()
    for _ in range(2):
        with tracer:
            assert wl.group(tracer).failed == 0
    assert (transact.ego_agent.search_top_k, transact.orchestrator.run_ego_turn) == original
    m = {name: value for name, (value, _) in tracer.metrics(1.0).items()}
    assert m["provider.complete.calls"] == 70
    assert m["memory.search_top_k.calls"] == 30
    assert m["provider.embed.calls"] == 90
    assert m["provider.embed.repeat_ratio"] == 24 / 90
    assert m["core.fingerprint_scenario.calls"] == 2
    assert m["decision.retries"] == 0 and m["decision.fallbacks"] == 0
    search = next(s for s in tracer.spans if s[2] == "memory.search_top_k")
    assert tracer.spans[search[1]][2] == "ego_agent.run_ego_turn"
    assert {s[5] for s in tracer.spans} == {1, 2}
    names = [p["name"] for p in BENCHMARK["per_layer"]]
    assert list(tracer.metrics(1.0)) == names
    assert [u for _, u in tracer.metrics(1.0).values()] == [p["unit"] for p in BENCHMARK["per_layer"]]


def _run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled_scripted", "--seed", "3",
         "--seconds", "0.2", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_command_prints_every_end_to_end_metric():
    proc = _run(ROOT, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
