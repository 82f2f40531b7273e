#!/usr/bin/env python3
"""Validate observability output files against the checked-in schemas.

Usage::

    python scripts/validate_obs.py TRACE.jsonl METRICS.json \
        [--access-log ACCESS.jsonl]

Validates the trace line by line against ``docs/trace.schema.json`` and
the metrics dump against ``docs/metrics.schema.json`` using the
stdlib-only validator in :mod:`repro.obs.schema`; ``--access-log``
additionally checks a serve access log against
``docs/accesslog.schema.json``.  Exits non-zero and prints every
violation when any file does not conform.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

try:
    from repro.obs.schema import (
        validate_access_log_file,
        validate_metrics_file,
        validate_trace_file,
    )
except ImportError:  # uninstalled checkout: fall back to the src layout
    sys.path.insert(0, str(REPO / "src"))
    from repro.obs.schema import (
        validate_access_log_file,
        validate_metrics_file,
        validate_trace_file,
    )


def _load_schema(name: str) -> dict:
    with open(REPO / "docs" / name, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Validate obs output files against the checked-in schemas."
    )
    parser.add_argument("trace", help="merged trace JSONL file")
    parser.add_argument("metrics", help="--metrics JSON dump")
    parser.add_argument("--access-log", default=None,
                        help="serve --access-log JSONL file")
    args = parser.parse_args(argv)

    checks = [
        ("trace", args.trace,
         validate_trace_file(args.trace, _load_schema("trace.schema.json"))),
        ("metrics", args.metrics,
         validate_metrics_file(args.metrics, _load_schema("metrics.schema.json"))),
    ]
    if args.access_log is not None:
        checks.append((
            "access-log", args.access_log,
            validate_access_log_file(
                args.access_log, _load_schema("accesslog.schema.json")
            ),
        ))

    failures = 0
    for label, path, errors in checks:
        if errors:
            failures += 1
            print(f"{label} file {path} is INVALID:", file=sys.stderr)
            for error in errors:
                print(f"  {error}", file=sys.stderr)
        else:
            print(f"{label} file {path} is valid")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
