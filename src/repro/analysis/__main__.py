"""``python -m repro.analysis paths...`` — run spmdlint.

Exit status 0 when clean, 1 when any finding survives suppression (this is
what the CI gate keys on), 2 on usage errors and on a path that is neither a
directory nor a readable file.
"""

from __future__ import annotations

import argparse
import json
import sys

from .lint import lint_paths_ex, rule_catalogue


def main(argv: list[str] | None = None) -> int:
    catalogue = rule_catalogue()
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="spmdlint: AST-based SPMD correctness linter.",
        epilog="rules: "
        + "; ".join(f"{rid}: {title}" for rid, title in sorted(catalogue.items())),
    )
    parser.add_argument(
        "paths",
        nargs="+",
        help="files or directory trees to lint",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all), e.g. --rules R1,R2",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    args = parser.parse_args(argv)

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in catalogue and r != "R0"]
        if unknown:
            parser.error(f"unknown rules {unknown}; known: {sorted(catalogue)}")

    try:
        findings, sup_counts = lint_paths_ex(args.paths, rules)
    except OSError as exc:
        print(f"spmdlint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.format())
        n = len(findings)
        summary = f"spmdlint: {n} finding{'s' if n != 1 else ''}"
        if sup_counts:
            per_rule = ", ".join(
                f"{rule}: {count}" for rule, count in sorted(sup_counts.items())
            )
            total = sum(sup_counts.values())
            summary += (
                f"; {total} suppression{'s' if total != 1 else ''} used"
                f" ({per_rule})"
            )
        print(summary)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
