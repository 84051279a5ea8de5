"""Drive graphr_serve over TCP: daemon lifecycle, the closed-loop
client and the checks of every response."""

import json
import os
import signal
import socket
import subprocess
import threading
import time
from pathlib import Path

from build import BenchError
from checks import graphr_run, run_response

# Generous next to the ~1 s a request or daemon start takes here, and
# short enough that a hung daemon still ends the run inside 180 s.
START_TIMEOUT_S = 30
REQUEST_TIMEOUT_S = 30


class Daemon:
    """graphr_serve on a free loopback port."""

    def __init__(self, binary, jobs, plan_dir=None):
        cmd = [str(binary), "--port", "0", "--jobs", str(jobs)]
        if plan_dir is not None:
            cmd += ["--plan-dir", str(plan_dir)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        self.log = []
        self.port = None
        listening = threading.Event()

        def drain():
            for line in self.proc.stderr:
                self.log.append(line.rstrip("\n"))
                if self.port is None and "listening on 127.0.0.1:" in line:
                    self.port = int(line.rsplit(":", 1)[1])
                    listening.set()
            listening.set()

        self.reader = threading.Thread(target=drain, daemon=True)
        self.reader.start()
        if not listening.wait(START_TIMEOUT_S) or self.port is None:
            self.stop()
            raise BenchError("graphr_serve did not start: "
                             + " | ".join(self.log[-5:]))

    def peak_rss_mb(self):
        """VmHWM: the daemon's peak resident set so far."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self):
        """SIGTERM (graceful drain), then SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(START_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join()
        self.proc.stderr.close()


def closed_loop(port, line_of, conns, count=None, deadline=None):
    """Send request k = 0, 1, ... from @p conns connections, each with
    one request in flight, until @p count requests were sent or the
    @p deadline (perf_counter) passed. Returns {k: (line, response or
    None, latency_s)}; a broken connection fails its request and ends
    that client."""
    lock = threading.Lock()
    state = {"next": 0}
    results = {}

    def client():
        try:
            sock = socket.create_connection(("127.0.0.1", port),
                                            timeout=REQUEST_TIMEOUT_S)
        except OSError:
            return
        reader = sock.makefile("rb")
        try:
            while True:
                with lock:
                    k = state["next"]
                    if count is not None and k >= count:
                        return
                    if deadline is not None and time.perf_counter() >= deadline:
                        return
                    state["next"] = k + 1
                line = line_of(k)
                t0 = time.perf_counter()
                try:
                    sock.sendall(line.encode() + b"\n")
                    raw = reader.readline()
                except OSError:
                    raw = b""
                latency = time.perf_counter() - t0
                response = raw.decode().rstrip("\n") if raw else None
                results[k] = (line, response, latency)
                if response is None:
                    return
        finally:
            reader.close()
            sock.close()

    threads = [threading.Thread(target=client) for _ in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


class ResponseChecker:
    """Checks serve responses against the one-shot references.

    Run responses must equal, byte for byte, the line graphr_serve
    would build from the one-shot report's cell. Prepare responses
    must name exactly the plain artifact of the requested graph; the
    artifact bytes are compared with a one-shot `graphr_run prepare`
    afterwards (verify_artifacts)."""

    def __init__(self, workload, expected):
        self.workload = workload
        self.expected = expected
        self.prepared = []  # (graph, artifact path, edges)

    def check(self, line, response, plan_dir=None):
        if response is None:
            return False
        kind, key = self.workload.spec(line)
        request_id = json.loads(line)["id"]
        if kind == "run":
            cell = self.expected.get(key)
            return cell is not None and response == run_response(request_id,
                                                                 cell)
        try:
            reply = json.loads(response)
            (entry,) = reply["prepared"]
            ok = (reply["id"] == request_id and reply["ok"] is True
                  and entry["variant"] == "plain" and entry["edges"] > 0
                  and entry["tiles"] > 0 and entry["artifact"])
        except (ValueError, KeyError, TypeError):
            return False
        if ok and plan_dir is not None:
            self.prepared.append((key[2], Path(plan_dir) / entry["artifact"],
                                  entry["edges"]))
        return bool(ok)

    def verify_artifacts(self, binary, ref_dir, jobs):
        """Re-prepare every graph the daemon prepared in one one-shot
        `graphr_run prepare` and compare artifact bytes. Returns the
        number of mismatching artifacts."""
        if not self.prepared:
            return 0
        args = ["prepare"]
        for graph in sorted({g for g, _, _ in self.prepared}):
            args += ["--dataset", graph]
        graphr_run(binary, args + ["--jobs", str(jobs),
                                   "--plan-dir", str(ref_dir)])
        bad = 0
        for _, artifact, _ in self.prepared:
            ref = Path(ref_dir) / artifact.name
            if (not artifact.is_file() or not ref.is_file()
                    or artifact.read_bytes() != ref.read_bytes()):
                bad += 1
        return bad

    def bytes_per_edge(self):
        """Artifact file bytes per edge over the checked prepares."""
        edges = sum(e for _, p, e in self.prepared if p.is_file())
        size = sum(os.path.getsize(p) for _, p, _ in self.prepared
                   if p.is_file())
        return size / edges if edges else 0.0


def start_and_warm(workload, bins, jobs, conns, plan_dir, checker):
    """One setup: daemon start, then the setup stream until every
    setup request has a correct response. Returns (daemon, seconds,
    attempted, failed)."""
    t0 = time.perf_counter()
    daemon = Daemon(bins["serve"], jobs, plan_dir)
    lines = workload.setup_lines()
    try:
        done = closed_loop(daemon.port, lines.__getitem__, conns,
                           count=len(lines))
    except BaseException:
        daemon.stop()
        raise
    seconds = time.perf_counter() - t0
    failed = sum(1 for k in range(len(lines))
                 if k not in done or not checker.check(lines[k], done[k][1]))
    return daemon, seconds, len(lines), failed
