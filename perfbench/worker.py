"""One pass of one workload in a fresh interpreter, so every pass starts
with the library's per-process caches empty, as a user's run does.

usage: python3 perfbench/worker.py <workload> <seed> <mode>

Modes:
  untraced   the timed pass behind the end-to-end metrics; for cli_queries
             every query is a fresh CLI process
  traced     the same items with the layer functions wrapped (tracer.py);
             cli_queries runs its queries in this process through
             ``nilorbits.cli.run``
  inprocess  cli_queries only: the in-process loop without tracing, the
             base of the tracing overhead

Prints one JSON object on standard output, with the digest of the
outputs (per query for cli_queries) and, under ``problems``, every violated
invariant and unexpected exit code.  run.py compares the digests with
digests.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
LIBRARY_MODULES = ("partitions", "symbols", "springer", "duality", "faithful",
                   "wavefront")
QUERY_TIMEOUT_S = 60


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def import_library(with_cli: bool) -> float:
    """Import the package from ``src`` and return the seconds it took."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    if with_cli:
        import nilorbits.cli  # noqa: F401
    else:
        for name in LIBRARY_MODULES:
            __import__(f"nilorbits.{name}")
    elapsed = time.perf_counter() - t0
    where = os.path.dirname(sys.modules["nilorbits"].__file__)
    if os.path.realpath(where) != os.path.realpath(
            os.path.join(SRC, "nilorbits")):
        raise SystemExit(f"nilorbits was imported from {where}, not {SRC}")
    return elapsed


def maxrss_kib(who=resource.RUSAGE_SELF) -> int:
    return resource.getrusage(who).ru_maxrss


def pool_entries(families) -> int:
    """Sum over verified orbits of the product of the two family sizes."""
    from nilorbits import springer as sp
    sizes = {}
    total = 0
    for fam1, fam2 in families:
        for fid in (fam1, fam2):
            if fid not in sizes:
                sizes[fid] = len(sp.family_members(fid))
        total += sizes[fam1] * sizes[fam2]
    return total


def traced_metrics(tracer, name: str, work_s: float, out: dict) -> dict:
    """Per-layer metrics of a traced pass that timed ``work_s`` seconds of
    work (the probes of the reference loop left out); the layer times are
    brought to reference speed with the pass's median factor."""
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{name}.bin"))
    layers = tracer.metrics(work_s, pool_entries(tracer.families))
    for key in layers:
        if key.endswith("self_s"):
            layers[key] *= out["factor"]
    layers["cli.import_s"] = out["setup_s"]
    return layers


def library_pass(name: str, seed: int, traced: bool) -> dict:
    """Set-up, building the inputs and every item are timed one by one and
    brought to reference speed (speed.py)."""
    from speed import Clock
    clock = Clock()
    clock.add(import_library(with_cli=traced))
    clock.flush()
    import workloads
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t_start = time.perf_counter()
    workload = workloads.BUILDERS[name](random.Random(seed))
    clock.add(time.perf_counter() - t_start)
    clock.flush()
    results = []
    for key, call in workload.items:
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an item that raises is a failed item
            result = exc
        clock.add(time.perf_counter() - t0)
        results.append((key, result))
    wall_s = time.perf_counter() - t_start
    if tracer is not None:
        tracer.uninstall()
    failed = sum(1 for _, result in results
                 if isinstance(result, Exception) or workload.failed(result))
    lines = sorted(f"{key} ERROR {result!r}" if isinstance(result, Exception)
                   else workload.render(key, result)
                   for key, result in results)
    digest = sha256("\n".join(lines))
    setup_s, build_s, *lat = clock.scaled()
    out = {"setup_s": setup_s, "wall_s": wall_s, "ref_s": build_s + sum(lat),
           "lat_s": lat, "factor": clock.median_factor(), "failed": failed,
           "digest": digest, "problems": workload.invariants(results),
           "maxrss_kib": maxrss_kib()}
    if tracer is not None:
        out["layers"] = traced_metrics(tracer, name, sum(clock.raw[1:]), out)
    return out


def clean_env() -> dict:
    """The environment for passes and CLI processes: the documented default
    rank bound (12), and bytecode caches written and used, as in an
    installed package, so that ``setup_s`` after the first pass is the
    import itself rather than compilation."""
    env = dict(os.environ)
    env.pop("NILORBITS_MAX_RANK", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_query_process(argv) -> tuple[int, str, float, float, float]:
    """Exit code, stdout, wall, import and run seconds of one CLI process."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "cli_entry.py"),
                           *argv], cwd=ROOT, env=clean_env(),
                          capture_output=True, text=True,
                          timeout=QUERY_TIMEOUT_S)
    wall = time.perf_counter() - t0
    tail = proc.stderr.rstrip("\n").rsplit("\n", 1)[-1].split()
    if len(tail) != 3 or tail[0] != "perfbench-timing":
        raise SystemExit(f"CLI process {argv} reported no timing: "
                         f"{proc.stderr[-500:]}")
    return proc.returncode, proc.stdout, wall, float(tail[1]), float(tail[2])


def query_digest(code: int, stdout: str) -> str:
    return sha256(f"{code}\n{stdout}")


def cli_pass(seed: int, mode: str) -> dict:
    """Each query's time is brought to reference speed by the loop timed
    right before and after it (speed.py), and so are the import and ``main``
    times its process reports."""
    from cli_queries import sample
    from speed import Clock
    queries = sample(random.Random(seed))
    tracer = cli = None
    clock = Clock()
    setup_s = None
    if mode != "untraced":
        clock.add(import_library(with_cli=True))
        clock.flush()
        setup_s = clock.scaled()[0]
        cli = sys.modules["nilorbits.cli"]
        if mode == "traced":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
    first = len(clock.raw)
    import_s, interp_s, problems = [], [], []
    digests = {}
    failed = 0
    t_start = time.perf_counter()
    for query in queries:
        if cli is None:
            code, stdout, wall, imp, run = run_query_process(query.argv)
            clock.add(wall)
            clock.flush()
            factor = clock.factor[-1]
            import_s.append(imp * factor)
            interp_s.append((wall - imp - run) * factor)
        else:
            buf, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli.run(list(query.argv), buf)
                except Exception as exc:  # a crash; a process would exit 1
                    code = f"crash {exc!r}"
            clock.add(time.perf_counter() - t0)
            stdout = buf.getvalue()
        digests[query.key] = query_digest(code, stdout)
        if code != query.expected:
            failed += 1
            problems.append(f"{query.key}: exit {code}, expected "
                            f"{query.expected}")
    wall_s = time.perf_counter() - t_start
    if tracer is not None:
        tracer.uninstall()
    lat = clock.scaled(first)
    if cli is None:
        setup_s = statistics.median(import_s)
        rss = maxrss_kib(resource.RUSAGE_CHILDREN)
    else:
        rss = maxrss_kib()
    out = {"setup_s": setup_s, "wall_s": wall_s, "ref_s": sum(lat),
           "lat_s": lat, "factor": clock.median_factor(), "failed": failed,
           "queries": digests, "problems": problems, "maxrss_kib": rss}
    if interp_s:
        out["interpreter_s"] = statistics.median(interp_s)
    if tracer is not None:
        out["layers"] = traced_metrics(tracer, "cli_queries",
                                       sum(clock.raw[first:]), out)
    return out


def main(argv) -> None:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    if name == "cli_queries":
        result = cli_pass(seed, mode)
    elif mode in ("untraced", "traced"):
        result = library_pass(name, seed, mode == "traced")
    else:
        raise SystemExit(f"mode {mode!r} does not apply to {name}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
