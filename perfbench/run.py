"""End-to-end, layer-by-layer benchmark of diversified SK search.

Run from the repository root::

    python3 perfbench/run.py --workload read-default --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched; ``--trace 1`` runs alternating untraced / traced blocks and
reports the per-layer metrics (see ``spans.py``).  Workloads, metrics
and the layer -> end-to-end predictions are described in
``perfbench/design.json``; ``python3 perfbench/selftest.py`` checks the
benchmark itself.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every checked answer matched the oracle and the answer
digest matched its reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: name -> unit of every metric a run can print.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "index_mib": "MiB",
    "div_p50_ms": "ms",
    "div_p95_ms": "ms",
    "sk_p50_ms": "ms",
    "sk_p95_ms": "ms",
    "ops_per_s": "1/s",
    "io_pages_per_query": "pages",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith("ms_per_query"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_share", "_rate", "_ratio", "_factor")):
        return "ratio"
    return "count"


def code_hash() -> str:
    """Hash of the program and benchmark sources (digest store key)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest_store(workload: str, seed: int, digest: str):
    """Same seed and same code must give the same digest, run after run
    (traced or not).  Returns a problem string or ``None``."""
    OUT.mkdir(exist_ok=True)
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    key = f"{workload} seed={seed} code={code_hash()}"
    previous = store.get(key)
    if previous is not None and previous != digest:
        return f"answer digest {digest} != {previous} of an earlier run ({key})"
    store[key] = digest
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"program sources not found at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl" if args.trace else None
    outcome = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), span_path=span_path,
    )
    failures = outcome["failures"]
    failed = outcome["failed"]
    problem = check_digest_store(args.workload, args.seed, outcome["digest"])
    if problem is not None:
        failures.append(problem)
        failed += 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client  dataset {outcome['dataset']}")
    print(f"answer digest {outcome['digest']}  "
          f"checked {outcome['checked']} answers against the oracle")
    if outcome["untraced"]:
        print("not traced (no longer in the program): " + ", ".join(outcome["untraced"]))
    if outcome["raw"]:
        print("unscaled wall time: " + "  ".join(
            f"{k} {v:.4f}" for k, v in outcome["raw"].items()))
    metrics = {}
    for name, value in outcome["metrics"].items():
        unit = END_TO_END_UNITS[name] if not args.trace else per_layer_unit(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<38} {value:14.6f} {unit}")
    for line in failures[:10]:
        print(f"FAILED: {line}", file=sys.stderr)
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
