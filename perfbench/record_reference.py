"""Record the outputs that check.py compares against at the reference seed.

    python3 perfbench/record_reference.py

The reference belongs to the commit that defined the benchmark: later
commits are checked against it, so re-record only when an output is meant
to change, and say so where the change is described.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys

from run import OUT, prepare


def main() -> int:
    error = prepare()
    if error:
        print("error:", error, file=sys.stderr)
        return 2
    import check
    import workloads

    doc = {"seed": check.REFERENCE_SEED}
    for name in ("study_attack", "study_honest", "panel_files"):
        directory = OUT / f"reference-{name}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        p = workloads.WORKLOADS[name](name, check.REFERENCE_SEED, directory)
        verdict = check.check_pass(p, None)
        if verdict.failed:
            print(f"{name}: outputs break the invariants:", *verdict.problems[:10], sep="\n", file=sys.stderr)
            return 1
        doc[name] = check.outputs(p)
        shutil.rmtree(directory)
        print(f"{name}: recorded {p.scenarios} scenarios in {p.seconds:.1f} s")
    check.REFERENCE_FILE.parent.mkdir(exist_ok=True)
    with open(check.REFERENCE_FILE, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(doc, sort_keys=True).encode())
    print(f"wrote {check.REFERENCE_FILE} ({check.REFERENCE_FILE.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
