#!/usr/bin/env python3
"""End-to-end round trip against the gpumech_serve daemon.

Launches the daemon (path in argv[1]), pipes a mixed batch of valid,
malformed, invalid-argument, unknown-target, and deadline-exceeded
requests over stdin, then validates the JSON-lines responses:

  * every response line parses under python's strict json module, and
    the full transcript re-parses under `python3 -m json.tool`
    (an independent external validator, one document per line);
  * every request receives exactly one response, matched by id;
  * status/ok/code fields follow the CLI exit-code contract
    (0 success, 2 contained partial failure, 1 total failure);
  * a warm repeat of a model request hits the session cache instead
    of rebuilding inputs (profiler hit, zero misses);
  * the daemon drains gracefully on EOF and exits 0.

A second phase starts the daemon in socket mode, parks a batch of
requests behind an injected 300ms stall, and SIGTERMs the daemon with
the batch still in flight: every admitted request must be answered, in
seq order, before the socket closes, and the daemon must exit 0 with a
drain summary.

Exits non-zero with a diagnostic on the first violated expectation.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time


def fail(why, *context):
    print("FAIL:", why, file=sys.stderr)
    for item in context:
        print("  ", item, file=sys.stderr)
    sys.exit(1)


REQUESTS = [
    # (id, line) — id None marks the malformed line the reader thread
    # must answer with a parse error rather than dropping.
    ("m1", {"id": "m1", "cmd": "model", "kernel": "micro_stream",
            "config": {"warps": 4, "cores": 2}}),
    ("m2", {"id": "m2", "cmd": "model", "kernel": "micro_stream",
            "config": {"warps": 4, "cores": 2}}),
    (None, "this line is not json"),
    ("missing", {"id": "missing", "cmd": "model",
                 "kernel": "no_such_kernel"}),
    ("badcfg", {"id": "badcfg", "cmd": "model",
                "kernel": "micro_stream", "config": {"warps": 0}}),
    # Schema rejections: a machine override outside "config", and an
    # infinite bandwidth (a raw line: json.dumps would write Infinity).
    ("unknown", {"id": "unknown", "cmd": "model",
                 "kernel": "micro_stream", "warps": 4}),
    ("infbw", '{"id":"infbw","cmd":"model","kernel":"micro_stream",'
              '"config":{"bw":1e999}}'),
    # The stalled kernel must be one the m1/m2 warm-up did NOT prime:
    # the collect-site injection only fires when inputs are actually
    # rebuilt, and a session-cache hit skips that stage entirely.
    ("dl", {"id": "dl", "cmd": "suite", "suite": "micro",
            "predict": True, "config": {"warps": 4, "cores": 2},
            "timeout_ms": 30,
            "inject": "micro_pointer_chase:collect:1:500"}),
    ("ping", {"id": "ping", "cmd": "ping"}),
    ("stats", {"id": "stats", "cmd": "stats"}),
]


def main():
    if len(sys.argv) != 2:
        fail("usage: serve_roundtrip.py <gpumech_serve binary>")
    serve_bin = sys.argv[1]

    stdin = "".join(
        (line if isinstance(line, str) else json.dumps(line)) + "\n"
        for _, line in REQUESTS)

    # One dispatcher evaluates the requests in order, so "stats"
    # runs after the stalled "dl" suite and counts every prior
    # engine-handled request.
    proc = subprocess.run(
        [serve_bin, "--dispatch", "1"],
        input=stdin, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail("daemon exited %d" % proc.returncode, proc.stderr)
    if "drained" not in proc.stderr:
        fail("no drain summary on stderr", proc.stderr)

    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if len(lines) != len(REQUESTS):
        fail("expected %d response lines, got %d"
             % (len(REQUESTS), len(lines)), *lines)

    # Independent strict validator over the whole transcript: each
    # response line must be a standalone JSON document.
    for ln in lines:
        tool = subprocess.run(
            [sys.executable, "-m", "json.tool"],
            input=ln, capture_output=True, text=True)
        if tool.returncode != 0:
            fail("json.tool rejected a response line",
                 ln, tool.stderr)

    responses = [json.loads(ln) for ln in lines]
    for resp in responses:
        for field in ("seq", "ok", "code", "status", "kernels",
                      "failed", "cache", "wall_ms", "output"):
            if field not in resp:
                fail("response missing field '%s'" % field, resp)
    seqs = [resp["seq"] for resp in responses]
    if sorted(seqs) != list(range(1, len(REQUESTS) + 1)):
        fail("response seqs are not 1..%d" % len(REQUESTS), seqs)

    by_id = {}
    for resp in responses:
        if "id" in resp:
            if resp["id"] in by_id:
                fail("duplicate response id", resp)
            by_id[resp["id"]] = resp
    parse_errors = [r for r in responses if "id" not in r]

    # Cold model evaluation succeeds and builds inputs.
    m1 = by_id["m1"]
    if not (m1["ok"] and m1["code"] == 0 and m1["failed"] == 0):
        fail("m1 should fully succeed", m1)
    if m1["cache"]["profiler_misses"] < 1:
        fail("cold request should miss the profiler cache", m1)

    # Warm repeat: identical output, served from cache.
    m2 = by_id["m2"]
    if not (m2["ok"] and m2["code"] == 0):
        fail("m2 should fully succeed", m2)
    if m2["cache"]["profiler_misses"] != 0 \
            or m2["cache"]["profiler_hits"] < 1:
        fail("warm repeat should hit the profiler cache", m2)
    if m2["output"] != m1["output"]:
        fail("warm repeat diverged from cold output", m1, m2)

    # The malformed line earns a parse_error response, not silence.
    if len(parse_errors) != 1:
        fail("expected exactly one id-less parse error response",
             *responses)
    bad = parse_errors[0]
    if bad["ok"] or bad["code"] != 1 or bad["status"] != "parse_error":
        fail("malformed line should yield parse_error, exit 1", bad)
    if "error" not in bad:
        fail("failed response should carry an error message", bad)

    # Unknown kernel and invalid config are total failures (exit 1).
    # badcfg, unknown and infbw are rejected at request validation,
    # before reaching the engine — the daemon must still echo their
    # correlation ids.
    missing = by_id["missing"]
    if missing["ok"] or missing["code"] != 1 \
            or missing["status"] != "not_found":
        fail("unknown kernel should be not_found, exit 1", missing)
    for rid, why in (("badcfg", "warps=0"),
                     ("unknown", "a top-level \"warps\""),
                     ("infbw", "bw=1e999")):
        resp = by_id[rid]
        if resp["ok"] or resp["code"] != 1 \
                or resp["status"] != "invalid_argument":
            fail("%s should be invalid_argument, exit 1" % why, resp)

    # Deadline-exceeded kernel is contained: partial success, the
    # stalled kernel is reported failed, the suite still answers.
    dl = by_id["dl"]
    if not dl["ok"] or dl["code"] != 2 or dl["failed"] < 1:
        fail("deadline request should be contained partial (code 2)",
             dl)
    if "deadline_exceeded" not in dl["output"]:
        fail("deadline failure class missing from suite output", dl)

    # Control verbs.
    if by_id["ping"]["output"] != "pong\n":
        fail("ping should answer pong", by_id["ping"])
    # The reader-rejected lines (malformed, badcfg, unknown, infbw)
    # never reach the engine, so stats counts the five prior handled
    # requests.
    stats = json.loads(by_id["stats"]["output"])
    if stats["requests"] != 5:
        fail("stats should count the 5 engine-handled requests",
             stats)

    print("serve round trip OK: %d responses validated" % len(lines))


def read_socket_lines(sock, count, deadline=60.0):
    """Read `count` newline-terminated lines, then expect EOF."""
    sock.settimeout(deadline)
    buf = b""
    lines = []
    while True:
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            fail("timed out waiting for drain responses",
                 len(lines), "of", count)
        if not chunk:
            break
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            lines.append(line.decode())
    if len(lines) != count:
        fail("expected %d responses then EOF, got %d"
             % (count, len(lines)), *lines)
    return lines


def socket_drain():
    """SIGTERM with batched requests in flight on the socket path."""
    serve_bin = sys.argv[1]
    sock_dir = tempfile.mkdtemp(prefix="gm_rt_")
    sock_path = os.path.join(sock_dir, "serve.sock")
    proc = subprocess.Popen(
        [serve_bin, "--socket", sock_path, "--dispatch", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        end = time.time() + 30.0
        while not os.path.exists(sock_path):
            if proc.poll() is not None:
                fail("daemon died before binding", proc.returncode)
            if time.time() > end:
                fail("socket never appeared")
            time.sleep(0.05)

        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(sock_path)
        batch = [{"id": "slow", "cmd": "suite", "suite": "micro",
                  "predict": True,
                  "config": {"warps": 4, "cores": 2},
                  "inject": "micro_stream:collect:1:300"}]
        batch += [{"id": "t%d" % i, "cmd": "ping"} for i in range(4)]
        sock.sendall("".join(
            json.dumps(req) + "\n" for req in batch).encode())
        time.sleep(0.2)  # let the reader admit the batch
        proc.send_signal(signal.SIGTERM)

        lines = read_socket_lines(sock, len(batch))
        sock.close()
        responses = [json.loads(ln) for ln in lines]
        seqs = [resp["seq"] for resp in responses]
        if seqs != sorted(seqs) or len(set(seqs)) != len(batch):
            fail("drain responses out of order or duplicated", seqs)
        got_ids = {resp["id"] for resp in responses}
        want_ids = {req["id"] for req in batch}
        if got_ids != want_ids:
            fail("drain lost or misrouted responses",
                 sorted(got_ids), sorted(want_ids))

        out, err = proc.communicate(timeout=60)
        if proc.returncode != 0:
            fail("daemon exited %d after drain" % proc.returncode,
                 err)
        if "drained" not in err:
            fail("no drain summary on stderr", err)
        print("socket drain OK: %d in-flight requests answered "
              "across SIGTERM" % len(batch))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        try:
            os.unlink(sock_path)
        except OSError:
            pass
        try:
            os.rmdir(sock_dir)
        except OSError:
            pass


if __name__ == "__main__":
    main()
    socket_drain()
