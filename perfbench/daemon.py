"""A ``wbsim serve`` daemon under test and a small HTTP client for it."""

import http.client
import json
import socket
import subprocess
import time

HOST = "127.0.0.1"
HTTP_TIMEOUT_S = 120.0
START_TIMEOUT_S = 30.0


class HttpError(Exception):
    pass


class Daemon:
    """One freshly spawned daemon on an ephemeral loopback port."""

    def __init__(self, binary, workers):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "serve", "--addr", f"{HOST}:0", "--workers", str(workers)],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        try:
            line = self.proc.stdout.readline().decode()
            # "wbsim serve listening on http://127.0.0.1:PORT (N workers)"
            self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
            deadline = t0 + START_TIMEOUT_S
            while True:
                try:
                    if self.health_ok():
                        break
                except OSError:
                    pass
                if time.perf_counter() > deadline:
                    raise HttpError("daemon never answered /v1/health")
                time.sleep(0.0005)
        except Exception:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def health_ok(self):
        """Whether one ``GET /v1/health`` answers ``200``. A bare socket
        keeps the client's own share of the start-up time small."""
        with socket.create_connection((HOST, self.port), timeout=HTTP_TIMEOUT_S) as s:
            s.sendall(b"GET /v1/health HTTP/1.1\r\nHost: " + HOST.encode()
                      + b"\r\nConnection: close\r\n\r\n")
            head = b""
            while len(head) < 12:
                chunk = s.recv(64)
                if not chunk:
                    break
                head += chunk
        return head.startswith((b"HTTP/1.1 200", b"HTTP/1.0 200"))

    def request(self, method, path, body=None):
        """One request on its own connection (the daemon closes each one).
        Returns ``(status, body bytes)``; chunked bodies arrive decoded."""
        conn = http.client.HTTPConnection(HOST, self.port, timeout=HTTP_TIMEOUT_S)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def json(self, method, path, body=None):
        status, data = self.request(method, path, body)
        if not 200 <= status < 300:
            raise HttpError(f"{method} {path} -> {status}: {data[:200]!r}")
        return json.loads(data)

    def peak_rss_mb(self):
        """The daemon's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise HttpError("no VmHWM in /proc status")

    def shutdown(self):
        try:
            self.request("POST", "/v1/shutdown")
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self.proc.stdout.close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
