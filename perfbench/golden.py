"""Record golden output digests: python3 perfbench/golden.py [seed ...]

For each workload and seed (default 0-4), runs the first run.TRACE_OPS ops,
which timed and traced runs both cover, requires every op to pass its
checks, and stores the truncated SHA-256 of each op's output, space-separated,
under "golden" in baseline.json.  A run at one of these seeds then fails
every op whose output bytes changed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile

import run

sys.path.insert(0, str(run.SRC))

from workloads import WORKLOADS  # noqa: E402


def digests(name: str, seed: int, workdir) -> list[str]:
    wl = WORKLOADS[name](seed, workdir)
    tally = run.Tally(wl, None)
    out = []
    for i in range(run.TRACE_OPS):
        op = wl.make(i)
        result = wl.call(op)
        tally.record(op, result, None)
        out.append(hashlib.sha256(wl.digest(op, result)).hexdigest()
                   [:run.DIGEST_HEX])
    if tally.failed:
        raise SystemExit(f"{name} seed {seed}: {tally.reasons}")
    return out


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or list(range(5))
    path = run.BENCH_DIR / "baseline.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = run.Path(tempfile.mkdtemp(dir=run.OUT_DIR))
    try:
        for name in WORKLOADS:
            per_seed = doc.setdefault("golden", {}).setdefault(name, {})
            for seed in seeds:
                per_seed[str(seed)] = " ".join(digests(name, seed, workdir))
                print(f"{name} seed {seed}: {run.TRACE_OPS} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
