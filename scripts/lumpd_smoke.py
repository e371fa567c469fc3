#!/usr/bin/env python3
"""End-to-end smoke test of the lumpd daemon, as CI runs it.

Boots the built daemon on a private Unix socket with an ephemeral
Prometheus port, then exercises one request per protocol verb through
the framed newline-JSON wire path (docs/PROTOCOL.md):

  submit-model  polling model, then an idempotent re-submit (fresh=false)
  lump          ordinary mode on the submitted model
  sweep         twice with identical points: the second (warm) response
                must report level_reused and rebuilds_reused above the
                cold response's — a later client rides the earlier
                client's lumping work through the model's memos
  solve         power iteration; measures must be finite probabilities
  stats         must list the model with the points run so far, and
                carry the per-verb counters/quantiles array
  ping          round trip, then once more with "trace": true — the
                response must carry a span rollup naming serve.request
                and serve.ping under a server-side request id
  shutdown      graceful drain; the process must exit 0 by itself

A deliberately malformed frame must come back as a typed parse_error
(not a hangup).  Three checks pin the wire against a client that does
not share the daemon's codec: a sweep whose point is not an object and
a submit that repeats a parameter name (sent as raw bytes) must each
answer bad_request on a connection that stays usable, and a ping whose
deadline_ms is too large for the daemon's nanosecond clock must answer
ok.  A 4-client mini-load (each client on its own
connection, a mixed ping/stats/lump cycle) must complete with zero
errors.  The Prometheus scrape is validated with scripts/check_prom.py,
requiring the serve_*, lump_* and key_cache_eval_seconds families plus the
per-verb family set for every protocol verb (--verbs).  The daemon
boots with --access-log; after the clean drain the log must hold one
JSON line per handled request, with distinct server request ids and
every smoke client id present.

Usage: scripts/lumpd_smoke.py [path/to/lumpd.exe]
       (default: _build/default/bin/lumpd.exe)
"""

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

SCRIPTS = os.path.dirname(os.path.abspath(__file__))
DEFAULT_EXE = os.path.join(SCRIPTS, "..", "_build", "default", "bin", "lumpd.exe")


def fail(msg):
    print(f"lumpd smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def send_frame(sock, payload: bytes):
    sock.sendall(b"%d\n%s\n" % (len(payload), payload))


def recv_frame(sock, deadline):
    buf = b""
    while b"\n" not in buf:
        chunk = _recv(sock, 1, deadline)
        buf += chunk
    length = int(buf.split(b"\n", 1)[0])
    body = buf.split(b"\n", 1)[1]
    while len(body) < length + 1:  # payload + trailing newline
        body += _recv(sock, length + 1 - len(body), deadline)
    return body[:length]


def _recv(sock, n, deadline):
    sock.settimeout(max(0.1, deadline - time.monotonic()))
    chunk = sock.recv(n)
    if not chunk:
        fail("daemon closed the connection mid-frame")
    return chunk


def request(sock, obj, timeout=60.0):
    deadline = time.monotonic() + timeout
    send_frame(sock, json.dumps(obj).encode())
    return json.loads(recv_frame(sock, deadline))


def expect_ok(resp, verb):
    if resp.get("ok") is not True:
        fail(f"{verb}: expected ok response, got {resp}")
    if resp.get("verb") != verb:
        fail(f"{verb}: response names verb {resp.get('verb')!r}")
    return resp["result"]


def expect_error(resp, code, where):
    if resp.get("ok") is not False:
        fail(f"{where}: expected error response, got {resp}")
    got = resp.get("error", {}).get("code")
    if got != code:
        fail(f"{where}: expected error code {code!r}, got {got!r}")


def main():
    exe = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_EXE
    if not os.path.exists(exe):
        fail(f"daemon binary not found at {exe} (run dune build first)")
    tmpdir = tempfile.mkdtemp(prefix="lumpd-smoke-")
    sock_path = os.path.join(tmpdir, "lumpd.sock")
    access_path = os.path.join(tmpdir, "access.log")
    proc = subprocess.Popen(
        [
            exe,
            "--socket", sock_path,
            "--metrics-port", "0",
            "--timeout", "60000",
            "--access-log", access_path,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    metrics_url = None
    try:
        # The daemon prints its bound addresses at boot.
        boot_deadline = time.monotonic() + 30
        while time.monotonic() < boot_deadline:
            line = proc.stdout.readline()
            if not line:
                fail(f"daemon exited at boot (rc={proc.poll()})")
            print(f"  boot: {line.rstrip()}")
            if line.startswith("metrics on "):
                metrics_url = line.split("metrics on ", 1)[1].strip()
                break
        if metrics_url is None:
            fail("daemon never announced its metrics port")

        c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        c.connect(sock_path)

        # submit-model, then the idempotent re-submit.
        submit = {
            "v": 1,
            "id": "smoke-1",
            "verb": "submit-model",
            "model": "m",
            "family": "polling",
            "size": 3,
        }
        info = expect_ok(request(c, submit), "submit-model")
        if not info.get("fresh"):
            fail("first submit-model not fresh")
        if info.get("states", 0) <= 0:
            fail("submit-model reported no states")
        print(f"  submit-model: {info['states']} states, {info['levels']} levels")
        info2 = expect_ok(request(c, submit), "submit-model")
        if info2.get("fresh"):
            fail("identical re-submit claimed to be fresh")

        # lump
        lump = expect_ok(
            request(c, {"id": "smoke-2", "verb": "lump", "model": "m"}), "lump"
        )
        if lump.get("lumped_states", 0) <= 0:
            fail("lump reported no lumped states")
        print(f"  lump: {lump['lumped_states']} lumped states")

        # sweep, cold then warm (same points, fresh connection for warm)
        points = [
            {},
            {"extra_rewards": [{"level": 1, "op": ">=", "k": 1}]},
            {"extra_rewards": [{"level": 1, "op": "<", "k": 1}]},
        ]
        sweep = {"id": "smoke-3", "verb": "sweep", "model": "m", "points": points}
        cold = expect_ok(request(c, sweep), "sweep")
        c.close()
        c = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        c.connect(sock_path)
        warm = expect_ok(request(c, sweep), "sweep")
        for f in ("level_reused", "rebuilds_reused"):
            if warm.get(f, 0) <= cold.get(f, 0):
                fail(f"warm sweep {f} did not grow past the cold one's — the memos went cold")
        if [p["lumped_states"] for p in cold["points"]] != [
            p["lumped_states"] for p in warm["points"]
        ]:
            fail("warm sweep disagrees with the cold one")
        if warm["wall_s"] > cold["wall_s"]:
            print(
                f"  sweep: WARNING warm {warm['wall_s']:.4f}s > cold "
                f"{cold['wall_s']:.4f}s (noisy host?)"
            )
        print(
            f"  sweep: cold {cold['wall_s']:.4f}s warm {warm['wall_s']:.4f}s "
            f"levels reused {cold['level_reused']} -> {warm['level_reused']}, "
            f"rebuilds reused {cold['rebuilds_reused']} -> {warm['rebuilds_reused']}"
        )

        # solve
        solve = expect_ok(
            request(
                c,
                {"id": "smoke-4", "verb": "solve", "model": "m", "solver": "power"},
            ),
            "solve",
        )
        if not solve.get("converged"):
            fail("solve did not converge")
        for name, value in solve.get("measures", {}).items():
            if not (isinstance(value, (int, float)) and value == value):
                fail(f"solve measure {name} is not a finite number")
        print(f"  solve: {solve['iterations']} iterations, measures {solve['measures']}")

        # stats
        stats = expect_ok(request(c, {"id": "smoke-5", "verb": "stats"}), "stats")
        models = {m["model"]: m for m in stats.get("models", [])}
        if "m" not in models:
            fail("stats does not list the submitted model")
        if models["m"].get("points", 0) < 2 * len(points):
            fail("stats under-counts the sweep points run")
        by_verb = {v["verb"]: v for v in stats.get("verbs", [])}
        if "ping" not in by_verb or "lump" not in by_verb:
            fail(f"stats.verbs is missing served verbs: {sorted(by_verb)}")
        if by_verb["lump"].get("requests", 0) < 1:
            fail("stats.verbs under-counts lump requests")
        for v in by_verb.values():
            if not (0 <= v["p50_s"] <= v["p95_s"] <= v["p99_s"]):
                fail(f"stats.verbs quantiles not monotone: {v}")
        print(f"  stats: {models['m']}")
        print(f"  stats: {len(by_verb)} per-verb entries, quantiles monotone")

        # ping
        expect_ok(request(c, {"id": "smoke-6", "verb": "ping"}), "ping")
        print("  ping: pong")

        # traced ping: the opt-in span rollup rides the response under a
        # server-side request id.
        traced = request(c, {"id": "smoke-trace", "verb": "ping", "trace": True})
        expect_ok(traced, "ping")
        rollup = traced.get("trace")
        if not isinstance(rollup, dict):
            fail(f"traced ping carried no trace rollup: {traced}")
        if not str(rollup.get("request", "")).startswith("r-"):
            fail(f"trace rollup has no server request id: {rollup}")
        span_names = {sp["name"] for sp in rollup.get("spans", [])}
        if not {"serve.request", "serve.ping"} <= span_names:
            fail(f"trace rollup is missing the serve spans: {sorted(span_names)}")
        print(f"  trace: rollup {rollup['request']} with spans {sorted(span_names)}")

        # malformed payload in a well-formed frame: typed error, socket
        # stays usable.
        send_frame(c, b"{not json")
        resp = json.loads(recv_frame(c, time.monotonic() + 10))
        expect_error(resp, "parse_error", "malformed payload")
        expect_ok(request(c, {"id": "smoke-7", "verb": "ping"}), "ping")
        print("  malformed payload: typed parse_error, connection survived")

        # The codec checks, from a client that shares none of its code.
        bad_point = {"verb": "sweep", "model": "m", "points": [1]}
        expect_error(request(c, bad_point), "bad_request", "non-object sweep point")
        expect_ok(request(c, {"id": "smoke-9", "verb": "ping"}), "ping")
        # Python's json cannot write a repeated key, so send the bytes.
        send_frame(
            c,
            b'{"verb":"submit-model","model":"dup","family":"tandem",'
            b'"params":{"hyper_dim":2,"hyper_dim":3}}',
        )
        resp = json.loads(recv_frame(c, time.monotonic() + 10))
        expect_error(resp, "bad_request", "repeated parameter name")
        # A deadline too large for the daemon's nanosecond clock never
        # expires.
        far = {"id": "smoke-10", "verb": "ping", "deadline_ms": 4611686018428}
        expect_ok(request(c, far), "ping")
        print(
            "  codec: non-object point and repeated param bad_request, "
            "far deadline ok"
        )

        # 4-client mini-load: each client on its own connection, a mixed
        # control/work cycle, zero errors tolerated.
        load_clients, load_requests = 4, 6
        load_mix = [
            {"verb": "ping"},
            {"verb": "stats"},
            {"verb": "lump", "model": "m"},
            {"verb": "ping"},
            {"verb": "sweep", "model": "m", "points": [{}]},
            {"verb": "stats"},
        ]
        load_failures = []

        def load_client(n):
            try:
                lc = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                lc.connect(sock_path)
                for i in range(load_requests):
                    rq = dict(load_mix[i % len(load_mix)])
                    rq["id"] = f"load-{n}-{i}"
                    resp = request(lc, rq)
                    if resp.get("ok") is not True:
                        load_failures.append(f"client {n} request {i}: {resp}")
                lc.close()
            except Exception as exc:  # noqa: BLE001 — reported, not swallowed
                load_failures.append(f"client {n}: {exc!r}")

        threads = [
            threading.Thread(target=load_client, args=(n,))
            for n in range(load_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if load_failures:
            fail("mini-load errors: " + "; ".join(load_failures[:4]))
        print(
            f"  mini-load: {load_clients} clients x {load_requests} requests, 0 errors"
        )

        # Prometheus scrape, validated by check_prom.py with the
        # families the dashboards rely on.
        body = urllib.request.urlopen(metrics_url, timeout=10).read()
        with tempfile.NamedTemporaryFile(
            mode="wb", suffix=".prom", delete=False
        ) as fh:
            fh.write(body)
            prom_path = fh.name
        subprocess.run(
            [
                sys.executable,
                os.path.join(SCRIPTS, "check_prom.py"),
                prom_path,
                "serve_requests",
                "serve_connections",
                "serve_inflight",
                "serve_request_seconds",
                "serve_control_seconds",
                "serve_uptime_seconds",
                "lump_runs",
                "key_cache_eval_seconds",
                "--verbs",
                "submit-model,lump,sweep,solve,stats,ping,shutdown",
            ],
            check=True,
        )
        os.unlink(prom_path)

        # shutdown: ack, then the process drains and exits by itself.
        ack = expect_ok(request(c, {"id": "smoke-8", "verb": "shutdown"}), "shutdown")
        if ack.get("draining") is not True:
            fail("shutdown did not acknowledge draining")
        c.close()
        rc = proc.wait(timeout=30)
        if rc != 0:
            fail(f"daemon exited {rc} after shutdown")

        # Access log: one structured JSON line per handled request.  The
        # malformed frame never reached the dispatcher, so it must NOT
        # appear; every client id that did must.
        with open(access_path) as fh:
            lines = [ln for ln in fh.read().split("\n") if ln]
        if not lines:
            fail("access log is empty after the smoke run")
        entries = []
        for ln in lines:
            try:
                entries.append(json.loads(ln))
            except json.JSONDecodeError as exc:
                fail(f"access log line is not JSON ({exc}): {ln!r}")
        server_ids = [e.get("request") for e in entries]
        if len(set(server_ids)) != len(server_ids):
            fail("access log server request ids are not distinct")
        for e in entries:
            for field in ("ts", "request", "verb", "queue_ns", "exec_ns",
                          "status", "bytes"):
                if field not in e:
                    fail(f"access log entry missing {field!r}: {e}")
            if not str(e["request"]).startswith("r-"):
                fail(f"access log entry has malformed server id: {e}")
            if e["queue_ns"] < 0 or e["exec_ns"] < 0 or e["bytes"] <= 0:
                fail(f"access log entry has implausible timings/bytes: {e}")
        client_ids = {e.get("id") for e in entries}
        expected_ids = {f"smoke-{n}" for n in range(1, 11)} | {"smoke-trace"} | {
            f"load-{n}-{i}"
            for n in range(load_clients)
            for i in range(load_requests)
        }
        missing_ids = expected_ids - client_ids
        if missing_ids:
            fail(f"access log is missing client ids: {sorted(missing_ids)[:6]}")
        logged_verbs = {e["verb"] for e in entries}
        for verb in ("submit-model", "lump", "sweep", "solve", "stats", "ping",
                     "shutdown"):
            if verb not in logged_verbs:
                fail(f"access log never recorded verb {verb!r}")
        statuses = {e.get("id"): e["status"] for e in entries}
        if statuses.get("smoke-6") != "ok":
            fail(f"access log status for smoke-6 is {statuses.get('smoke-6')!r}")
        print(f"  access log: {len(entries)} entries, ids distinct, all verbs seen")

        print(
            "lumpd smoke: OK (all verbs, traced ping, error path, codec checks, "
            "mini-load, metrics scrape, access log, clean drain)"
        )
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    main()
