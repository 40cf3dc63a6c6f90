"""Record the reference output-tree digests the benchmark checks runs against.

Run from the root of a pvfdi checkout, on code whose outputs are known
to be right:

    python3 perfbench/record_references.py --seeds 0-11,42

Each (workload, seed) is run once with the benchmark's own pipeline and
its tree digest is stored in perfbench/references.json under the
conditions in use (numpy and scipy versions, BLAS thread variables, which
run.py pins to one thread unless the caller sets them). Digests of other
seeds are kept when the conditions match and dropped when they do not. A run with an ERROR row or
a 0%-column mismatch is not recorded, and the script exits non-zero.
"""

import argparse
import json
import sys
from pathlib import Path

from run import OUT, bootstrap, digest_conditions, run_once


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bootstrap()
    import outputs
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="comma-separated seeds or ranges, e.g. 0-10,42")
    parser.add_argument("--workload", choices=list(WORKLOADS), action="append",
                        help="repeat to choose several; default all")
    args = parser.parse_args(argv)

    refs = outputs.load_references(digest_conditions())
    OUT.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in args.workload or WORKLOADS:
        for seed in args.seeds:
            cfg = WORKLOADS[name].prepare(seed, OUT)
            record = run_once(cfg, outputs.OutputCheck(None))
            if cfg.data_path is not None:
                Path(cfg.data_path).unlink(missing_ok=True)
            if record["problems"]:
                ok = False
                continue
            refs["digests"].setdefault(name, {})[str(seed)] = record["digest"]
            print(f"{name} seed {seed}: {record['digest']} ({record['seconds']:.1f} s)",
                  flush=True)
            outputs.REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
