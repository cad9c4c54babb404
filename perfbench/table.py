"""Print every end-to-end metric for every workload, one row per workload.

    python3 perfbench/table.py [--seed N] [--seconds S]

Each row is one ``run.py --trace 0`` measurement; ``failed_ratio`` counts the
invocations whose output checks failed against those attempted.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)

    columns = list(run.END_TO_END) + [("failed_ratio", "1")]
    print(f"{'workload':<18}" + "".join(f"{f'{n} [{u}]':>26}" for n, u in columns))
    env = None
    for name in workloads.WORKLOADS:
        out = run.measure(name, args.seed, args.seconds, trace=False)
        env = env or out["environment"]
        values = dict(out["metrics"] or {})
        values["failed_ratio"] = out["failed"] / out["attempted"]
        print(f"{name:<18}" + "".join(
            f"{values[n]:>26.6g}" if n in values else f"{'-':>26}"
            for n, _ in columns))
        for problem in out["problems"]:
            print(f"  CHECK FAILED: {problem}")
        print(f"  slowest of {out['invocations']} invocations; "
              f"step_ms_p90 over {out['step_samples']} steps")
    env.pop("workload")
    print("environment: " + json.dumps(env, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
