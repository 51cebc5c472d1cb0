#!/usr/bin/env python3
"""End-to-end smoke test of the spectre-server binaries.

Starts `spectre-server`, streams 100 k events into it from two concurrent
`spectre-feed` client processes (strided halves of the same seeded
stream), scrapes `/metrics` until every event is accounted for, checks
that the scrape declares each metric family once with its sample on the
next line, drains over the control socket, and asserts a clean exit
with a final report that balances exactly.

Usage:
    python3 scripts/server_smoke.py [--bin-dir target/release]
                                    [--events 100000] [--timeout 120]

Exits non-zero (with a diagnostic) on any failure. Stdlib only.
"""

import argparse
import json
import os
import socket
import subprocess
import sys
import time
import urllib.request


def fail(msg, server=None):
    if server is not None:
        server.kill()
        out, _ = server.communicate(timeout=10)
        sys.stderr.write("--- server output ---\n%s\n" % out)
    sys.stderr.write("server_smoke: FAIL: %s\n" % msg)
    sys.exit(1)


def read_banner(server, deadline):
    """Parses the LISTEN/HTTP/CONTROL/READY banner off server stdout."""
    addrs = {}
    while time.time() < deadline:
        line = server.stdout.readline()
        if not line:
            fail("server exited before READY", server)
        line = line.strip()
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("LISTEN", "HTTP", "CONTROL"):
            addrs[parts[0]] = parts[1]
        elif line == "READY":
            for key in ("LISTEN", "HTTP", "CONTROL"):
                if key not in addrs:
                    fail("READY before %s address" % key, server)
            return addrs
    fail("timed out waiting for READY", server)


def metrics_body(http_addr):
    """Fetches the /metrics text."""
    return (
        urllib.request.urlopen("http://%s/metrics" % http_addr, timeout=10)
        .read()
        .decode()
    )


def exposition_errors(body):
    """Lists what is wrong with the scrape's shape: a `# TYPE` name that
    appears twice, or one whose next line is not a sample of it."""
    errors = []
    lines = body.splitlines()
    seen = set()
    for i, line in enumerate(lines):
        if not line.startswith("# TYPE "):
            continue
        name = line.split()[2]
        if name in seen:
            errors.append("%s has two # TYPE lines" % name)
        seen.add(name)
        sample = lines[i + 1] if i + 1 < len(lines) else ""
        if not (sample.startswith(name + " ") or sample.startswith(name + "{")):
            errors.append("%s is followed by %r, not its sample" % (name, sample))
    if not seen:
        errors.append("no # TYPE lines")
    return errors


def scrape(http_addr, name):
    """Returns the value of one un-labelled metric, or None."""
    body = metrics_body(http_addr)
    for line in body.splitlines():
        parts = line.split(" ")
        if len(parts) == 2 and parts[0] == name:
            return int(parts[1])
    return None


def control(addr, command):
    """Sends one control line, returns the reply line."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as conn:
        conn.sendall((command + "\n").encode())
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = conn.recv(4096)
            if not chunk:
                break
            reply += chunk
    return reply.decode().strip()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bin-dir", default="target/release")
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args()
    deadline = time.time() + args.timeout
    report_path = os.path.join(args.bin_dir, "server_smoke_report.json")

    server = subprocess.Popen(
        [
            os.path.join(args.bin_dir, "spectre-server"),
            "--q1", "3,150,rising",
            "--report", report_path,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        addrs = read_banner(server, deadline)
        print("server up: %s" % addrs)

        if control(addrs["CONTROL"], "PING") != "OK pong":
            fail("control PING failed", server)

        feeds = [
            subprocess.Popen(
                [
                    os.path.join(args.bin_dir, "spectre-feed"),
                    "--connect", addrs["LISTEN"],
                    "--events", str(args.events),
                    "--seed", "17",
                    "--stride", "%d/2" % i,
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            for i in range(2)
        ]
        sent = 0
        for feed in feeds:
            out, _ = feed.communicate(timeout=max(1.0, deadline - time.time()))
            if feed.returncode != 0:
                fail("spectre-feed failed: %s" % out, server)
            for line in out.splitlines():
                if line.startswith("SENT "):
                    sent += int(line.split()[1])
        if sent != args.events:
            fail("clients sent %d of %d events" % (sent, args.events), server)
        print("2 clients sent %d events" % sent)

        # The front-end counter is live and exact: wait until the server
        # has read every event frame off the sockets.
        while True:
            got = scrape(addrs["HTTP"], "spectre_server_events")
            if got == args.events:
                break
            if time.time() > deadline:
                fail("metrics report %s of %d events" % (got, args.events), server)
            time.sleep(0.2)
        print("/metrics accounts for all %d events" % args.events)
        errors = exposition_errors(metrics_body(addrs["HTTP"]))
        if errors:
            fail("malformed /metrics: %s" % "; ".join(errors), server)
        print("/metrics declares each family once, each with its sample")

        reply = control(addrs["CONTROL"], "DRAIN")
        if reply != "OK draining":
            fail("DRAIN replied %r" % reply, server)

        out, _ = server.communicate(timeout=max(1.0, deadline - time.time()))
        if server.returncode != 0:
            fail("server exited %d:\n%s" % (server.returncode, out))
        with open(report_path) as fh:
            report = json.load(fh)
        if report.get("input_events") != args.events:
            fail("report input_events=%r, want %d" % (report.get("input_events"), args.events))
        if not report.get("queries"):
            fail("report has no per-query section: %r" % report)
        print(
            "clean drain: %d events in, %d complex events out, %.0f events/s"
            % (
                report["input_events"],
                report["complex_events"],
                report["events_per_sec"],
            )
        )
        print("server_smoke: PASS")
    except subprocess.TimeoutExpired:
        fail("timed out", server)


if __name__ == "__main__":
    main()
