"""``python -m repro.analysis``: lint the repository.

With no paths, lints the ``repro`` package the module was imported from
plus a sibling ``tests/`` directory when present, so a bare invocation
covers the whole repo.

Exit codes: ``0`` clean; ``1`` findings (errors by default; any
finding — warnings included — under ``--strict``); ``2`` usage errors.
A finding the repo accepts is suppressed on its line with
``# bfa: disable=<rule>``. ``--sarif-out`` / ``--format sarif`` emit
SARIF 2.1.0 for code-scanning upload.
"""

import argparse
import json
import pathlib
import sys

from repro.analysis.lint.engine import LintEngine
from repro.analysis.lint.rules import rule_catalog
from repro.analysis.sarif import to_sarif


def default_paths():
    import repro
    package = pathlib.Path(repro.__file__).resolve().parent
    paths = [package]
    tests = package.parent.parent / "tests"
    if tests.is_dir():
        paths.append(tests)
    return paths


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-aware lint: layering, determinism, "
                    "cycle-integrity, epoch-coverage, teardown-ordering, "
                    "and parallel-safety contracts.")
    parser.add_argument("paths", nargs="*", type=pathlib.Path,
                        help="files or directories (default: the repro "
                             "package and tests/)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--strict", action="store_true",
                        help="fail on any finding, warnings included")
    parser.add_argument("--sarif-out", type=pathlib.Path, default=None,
                        help="also write SARIF 2.1.0 to this file")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, description in rule_catalog():
            print("%s  %s" % (rule_id, description))
        return 0

    paths = args.paths or default_paths()
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print("error: no such file or directory: %s" % p,
                  file=sys.stderr)
        return 2

    root = pathlib.Path.cwd()
    findings = LintEngine().lint_paths(paths)

    sarif = None
    if args.sarif_out is not None or args.format == "sarif":
        sarif = to_sarif(findings, root)
    if args.sarif_out is not None:
        args.sarif_out.write_text(json.dumps(sarif, indent=2) + "\n",
                                  encoding="utf-8")

    if args.format == "json":
        print(json.dumps({"count": len(findings),
                          "findings": [f.as_dict() for f in findings]},
                         indent=2))
    elif args.format == "sarif":
        print(json.dumps(sarif, indent=2))
    else:
        for finding in findings:
            print(finding.format())
        print("%d finding%s" % (len(findings),
                                "" if len(findings) == 1 else "s"))

    if args.strict:
        return 1 if findings else 0
    errors = [f for f in findings if str(f.severity) == "error"]
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
