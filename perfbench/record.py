"""Record the expected outputs into perfbench/digests.json.

usage: python3 perfbench/record.py

Run it only at a commit whose answers are known to be right: every later
run compares against what this writes.  Each library workload is hashed
from one untraced pass; every query of the CLI population runs as its own
process.  Nothing is written if an invariant fails, an item fails, or a
query exits with another code than the contract gives it.
"""

import json
import os
import subprocess
import sys

import worker
from cli_queries import population


def main() -> int:
    digests = {}
    for name in ("verify_sweep", "order_wavefront", "restriction_table"):
        proc = subprocess.run([sys.executable, "worker.py", name, "0",
                               "untraced"], cwd=worker.HERE,
                              capture_output=True, text=True, check=True)
        got = json.loads(proc.stdout)
        if got["problems"] or got["failed"]:
            print(f"{name}: {got['failed']} failed, {got['problems']}",
                  file=sys.stderr)
            return 1
        digests[name] = got["digest"]
        print(f"{name}: {got['digest']}")
    queries = {}
    for query in population():
        code, stdout, *_ = worker.run_query_process(query.argv)
        if code != query.expected:
            print(f"{query.key}: exit {code}, expected {query.expected}",
                  file=sys.stderr)
            return 1
        queries[query.key] = worker.query_digest(code, stdout)
    digests["cli_queries"] = dict(sorted(queries.items()))
    print(f"cli_queries: {len(queries)} queries")
    with open(os.path.join(worker.HERE, "digests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
