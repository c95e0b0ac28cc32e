"""One pass of a workload: `fluenttrack track` over all its sequences, then
`fluenttrack evaluate` of every output, both through `cli.main`.

run.py starts each pass as a fresh process, so its peak resident memory
belongs to that pass alone and a traced pass cannot leave wrappers behind.
The pass writes a JSON result file; timings exclude interpreter start-up and
imports.

    python3 passrun.py --out DIR --mode MODE --jobs N --trace 0|1 --result FILE SEQUENCE_DIR...
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import List, Optional

SRC = Path(__file__).resolve().parent.parent / "src"


def _call(main, argv: List[str], errors: List[str]) -> Optional[int]:
    """Exit code of one command, or None if it raised."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        errors.append(f"{argv[0]} raised:\n{traceback.format_exc()}")
        return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("sequences", nargs="+")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from fluenttrack import cli

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    out = Path(args.out)
    errors: List[str] = []
    start = time.perf_counter()
    track_rc = _call(cli.main, ["track", *args.sequences, "--mode", args.mode,
                                "--jobs", str(args.jobs), "--out", str(out / "track")], errors)
    track_s = time.perf_counter() - start
    (out / "eval").mkdir(parents=True, exist_ok=True)
    evaluate_rc = {}
    for seq in map(Path, args.sequences):
        evaluate_rc[seq.name] = _call(cli.main, [
            "evaluate",
            "--predictions", str(out / "track" / seq.name / "trajectories.jsonl"),
            "--ground-truth", str(seq / "ground_truth.jsonl"),
            "--out", str(out / "eval" / f"{seq.name}.json"),
            "--sequence", seq.name,
        ], errors)
    pipeline_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    result = {
        "track_s": track_s,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "track_rc": track_rc,
        "evaluate_rc": evaluate_rc,
        "errors": errors,
        "trace": tracer.report() if tracer is not None else None,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
