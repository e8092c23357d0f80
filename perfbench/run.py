"""Benchmark of nilorbits: four workloads against the public API, checked
for correct answers, with end-to-end metrics from untraced passes and
per-layer metrics from a separate traced run.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S
                                --trace 0|1

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(worker.py); passes repeat while another one fits in ``--seconds``.
Latency percentiles and throughput pool the items of all passes; set-up
time and memory are medians over the passes.  Every time is reported at
reference speed, scaled by a fixed loop timed around it (speed.py), because
the shared machines this runs on drift in speed.  With ``--trace 1`` the run
alternates untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the metrics as text and the run record, which is also written to
perfbench/out/.  Workloads, metrics and the baseline: perfbench/BENCHMARK.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from worker import HERE, OUT, ROOT, clean_env

WORKLOADS = ("verify_sweep", "order_wavefront", "restriction_table",
             "cli_queries")
PASS_TIMEOUT_S = 150


def fail(message: str) -> None:
    """Stop without printing a result."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git, or None
    when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(workload: str, seed: int, mode: str) -> dict:
    """One worker in its own process group, so that a pass that runs over
    its time is stopped together with the CLI processes it started."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
         mode], cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{mode} pass of {workload} ran over {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{mode} pass of {workload} exited {proc.returncode}:\n"
             f"{stderr[-2000:]}")
    return json.loads(stdout.splitlines()[-1])


def repeat(workload: str, seed: int, seconds: float, modes) -> list[dict]:
    """Rounds of one pass per mode, while the next round fits in
    ``seconds``; at least one round.  Round i draws its inputs from seed
    ``1000 * seed + i``, so a run's figures average over item orders (and
    CLI samples) rather than hang on one."""
    t0 = time.perf_counter()
    rounds = []
    while True:
        t_round = time.perf_counter()
        pass_seed = 1000 * seed + len(rounds)
        rounds.append({mode: run_pass(workload, pass_seed, mode)
                       for mode in modes})
        now = time.perf_counter()
        if now - t0 + (now - t_round) > seconds:
            return rounds


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(passes) -> dict:
    """Throughput and latency percentiles pool every item of every pass;
    set-up time and memory are per pass, and their median is taken.  Every
    time is at reference speed (speed.py)."""
    med = statistics.median
    lat = [x for p in passes for x in p["lat_s"]]
    return {
        "setup_s": med(p["setup_s"] for p in passes),
        "items_per_s": len(lat) / sum(p["ref_s"] for p in passes),
        "item_p50_ms": med(lat) * 1e3,
        "item_p90_ms": p90(lat) * 1e3,
        "peak_rss_mib": med(p["maxrss_kib"] for p in passes) / 1024,
    }


def output_of(p: dict):
    return p["queries"] if "queries" in p else p["digest"]


def check(workload: str, recorded, rounds) -> list[str]:
    """Every pass against the recorded digests, and every traced pass
    against the untraced pass of its round, which ran the same inputs."""
    problems = []
    for i, passes in enumerate(rounds):
        untraced = output_of(passes["untraced"])
        for mode, p in passes.items():
            where = f"{workload} {mode} pass {i}"
            problems += [f"{where}: {line}" for line in p["problems"]]
            got = output_of(p)
            if got != untraced:
                problems.append(f"{where}: outputs differ from the untraced "
                                f"pass")
            if isinstance(got, str):
                if got != recorded:
                    problems.append(f"{where}: digest {got} differs from "
                                    f"the recorded {recorded}")
            else:
                problems += [f"{where}: {key}: output differs from the "
                             f"recorded digest" for key, digest in got.items()
                             if recorded.get(key) != digest]
    return problems


def per_layer(workload: str, rounds, names) -> dict:
    med = statistics.median
    traced = [r["traced"] for r in rounds]
    base = [r["inprocess" if workload == "cli_queries" else "untraced"]
            for r in rounds]
    computed = {
        "trace.overhead_ratio": med(p["ref_s"] for p in traced) /
        med(p["ref_s"] for p in base),
        "cli.interpreter_s": med(r["untraced"].get("interpreter_s", 0)
                                 for r in rounds),
    }
    return {name: computed[name] if name in computed else
            med(p["layers"][name] for p in traced) for name in names}


def tracer_self_test() -> list[str]:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "tracer.py")],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    return [] if proc.returncode == 0 else \
        [f"tracer self-test failed: {proc.stderr.strip()[-1000:]}"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict, recorded) -> dict:
    if not trace:
        modes = ("untraced",)
    elif workload == "cli_queries":
        modes = ("untraced", "inprocess", "traced")
    else:
        modes = ("untraced", "traced")
    rounds = repeat(workload, seed, seconds, modes)
    untraced = [r["untraced"] for r in rounds]
    every = [p for r in rounds for p in r.values()]
    attempted = sum(len(p["lat_s"]) for p in every)
    failed = sum(p["failed"] for p in every)
    problems = check(workload, recorded, rounds)
    if trace:
        metrics = per_layer(workload, rounds,
                            [m["name"] for m in spec["per_layer"]])
    else:
        metrics = end_to_end(untraced)
    return {
        "workload": workload, "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "problems": problems,
        "metrics": metrics,
        "items_per_pass": len(untraced[0]["lat_s"]),
        "percentile_samples": sum(len(p["lat_s"]) for p in untraced),
        "speed_factor": statistics.median(p["factor"] for p in untraced),
        "per_pass": {mode: [{k: p[k] for k in ("setup_s", "wall_s", "ref_s",
                                                "factor", "maxrss_kib",
                                                "failed")}
                            for p in (r[mode] for r in rounds)]
                     for mode in modes},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "nilorbits", "cli.py")):
        fail(f"no nilorbits sources under {os.path.join(ROOT, 'src')}")
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    recorded = load_json(os.path.join(HERE, "digests.json"))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "load_1min_start": os.getloadavg()[0], "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "commit": git_commit()}
    self_test = tracer_self_test() if args.trace else []
    results = [run_workload(name, args.seed, args.seconds / len(names),
                            bool(args.trace), spec, recorded[name])
               for name in names]
    record["load_1min_end"] = os.getloadavg()[0]
    record["workloads"] = results

    for res in results:
        for line in res["problems"][:20]:
            print(f"INCORRECT {line}")
        for name, value in res["metrics"].items():
            print(f"{res['workload']:18} {name:44} {value:14.6g} "
                  f"{units.get(name, '')}")
        print(f"{res['workload']:18} {'error_rate':44} "
              f"{res['error_rate']:14.6g} ratio  ({res['failed']} failed of "
              f"{res['attempted']} attempted)")
        print(f"{res['workload']:18} percentiles over "
              f"{res['percentile_samples']} items of "
              f"{len(res['per_pass']['untraced'])} untraced passes; times "
              f"at reference speed, median factor "
              f"{res['speed_factor']:.3f}")
    for line in self_test:
        print(f"INCORRECT {line}")
    print(f"run record: python {record['python']}, nproc {record['nproc']}, "
          f"load {record['load_1min_start']:.2f} -> "
          f"{record['load_1min_end']:.2f}, seed {args.seed}, commit "
          f"{record['commit']}")
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"run-{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(res["correct"] for res in results) and not self_test,
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": {(f"{res['workload']}." if prefix else "") + name:
                    {"value": value, "unit": units[name]}
                    for res in results
                    for name, value in res["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
