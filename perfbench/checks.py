"""One-shot graphr_run invocations and the byte-level output checks.

Every result the benchmark accepts is compared, byte for byte, with a
reference computed outside the timed window: serve responses against
the one-shot `graphr_run --out` report for the same spec (the
documented byte-identity contract), sweep cells against a serial
`--jobs 1` run of the same sweep.
"""

import json
import os
import subprocess
import time

from build import BenchError, binary_digest, build_dir


def _scan(text):
    """Yield (index, char, inside a JSON string) for every character;
    the quotes count as inside."""
    in_string = escaped = False
    for i, ch in enumerate(text):
        inside = in_string
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = inside = True
        yield i, ch, inside


def minify(text):
    """Drop JSON whitespace outside strings, so a pretty-printed
    report and a compact response compare byte for byte."""
    return "".join(ch for _, ch, inside in _scan(text)
                   if inside or not ch.isspace())


def split_results(report):
    """The byte strings of the `results` array elements of a report
    ({"results": [...]}), minified, in report order."""
    text = minify(report)
    prefix = '{"results":['
    if not text.startswith(prefix) or not text.endswith("]}"):
        raise BenchError("unexpected report layout")
    body = text[len(prefix):-2]
    cells, depth, start = [], 0, 0
    for i, ch, inside in _scan(body):
        if inside:
            continue
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
            if depth == 0:
                cells.append(body[start:i + 1])
        elif ch == "," and depth == 0:
            start = i + 1
    return cells


def run_response(request_id, cell):
    """The exact line graphr_serve answers a run request with."""
    return ('{"id":"%s","ok":true,"type":"run","results":[%s]}'
            % (request_id, cell))


def graphr_run(binary, args, out_path=None):
    """Run graphr_run to completion. Returns (seconds, peak RSS in
    MiB, report text or None); raises BenchError on a non-zero exit."""
    cmd = [str(binary), *args]
    if out_path is not None:
        cmd += ["--out", str(out_path)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    if proc.returncode != 0:
        raise BenchError(f"graphr_run {' '.join(args)} exited "
                         f"{proc.returncode}: {err.decode()[-500:]}")
    report = None
    if out_path is not None:
        with open(out_path) as f:
            report = f.read()
    return seconds, usage.ru_maxrss / 1024.0, report


def cached(binary, key, compute):
    """compute() memoised on disk per (build of @p binary, key): the
    references are deterministic for a given commit and seed."""
    cache = build_dir() / "perfbench-cache"
    path = cache / f"{binary_digest(binary)}-{key}.json"
    if path.is_file():
        with open(path) as f:
            return json.load(f)
    value = compute()
    cache.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as f:
        json.dump(value, f)
    os.replace(tmp, path)
    return value
