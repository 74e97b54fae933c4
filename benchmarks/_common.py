"""Shared plumbing of the JSON bench scripts.

``bench_wave_sim.py``, ``bench_serving.py``, ``bench_streaming.py`` and
``bench_open_loop.py`` each print one JSON document stamped with
:func:`metadata`.  The first three also diff their cases against a
committed run (``benchmarks/baselines/``) and, with ``--max-regression``,
fail when the headline ratio drops more than that fraction below the
baseline's.  Each script passes in its own case key, ratio field and
headline field.
"""

import argparse
import json
import platform
import sys
from typing import Callable, Optional, Sequence

import numpy


def metadata(mode: str) -> dict:
    """Provenance of one bench run (for cross-run comparability)."""
    return {
        "mode": mode,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def bench_parser(
    description: str, ratio: Optional[str] = None
) -> argparse.ArgumentParser:
    """``--quick`` and ``-o``, plus the baseline gate when *ratio* is set.

    *ratio* names the headline figure ``--baseline`` diffs and
    ``--max-regression`` gates; scripts add their own options on top.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration for CI",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="also write the JSON document to this file",
    )
    if ratio is not None:
        parser.add_argument(
            "--baseline", default=None,
            help=f"older JSON document of this bench: print per-case "
            f"{ratio} deltas against it",
        )
        parser.add_argument(
            "--max-regression", type=float, default=None, metavar="FRAC",
            help=f"with --baseline: fail (exit 1) when the headline "
            f"{ratio} drops below (1 - FRAC) of the baseline's, e.g. "
            f"0.30 tolerates a 30%% regression (the CI gate)",
        )
    return parser


def parse_args(
    parser: argparse.ArgumentParser, argv: Optional[Sequence[str]]
) -> argparse.Namespace:
    """Parse *argv*; ``--max-regression`` without ``--baseline`` exits 2.

    The bad combination is rejected before minutes of benching.
    """
    args = parser.parse_args(argv)
    if getattr(args, "max_regression", None) is not None and (
        not args.baseline
    ):
        parser.error("--max-regression requires --baseline")
    return args


def emit(document: dict, output: Optional[str]) -> None:
    """Print *document* as JSON and also write it to *output* if set."""
    text = json.dumps(document, indent=2)
    print(text)
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")


def diff_against_baseline(
    document: dict,
    baseline: dict,
    case_key: Callable[[dict], tuple],
    ratio: str,
) -> list[str]:
    """Per-case *ratio* deltas vs an older run of the same bench."""
    old_cases = {case_key(row): row for row in baseline.get("cases", [])}
    lines = [
        "baseline diff (old: "
        f"{baseline.get('meta', {}).get('platform', 'unknown platform')})",
        f"{'case':<28} {'old':>9} {'new':>9} {'delta':>8}",
    ]
    for row in document["cases"]:
        key = case_key(row)
        label = "/".join(str(part) for part in key)
        old = old_cases.get(key)
        new_value = row[ratio]
        if old is None:
            lines.append(f"{label:<28} {'-':>9} {new_value:>9} {'new':>8}")
            continue
        old_value = old[ratio]
        change = new_value / old_value if old_value else 0.0
        lines.append(
            f"{label:<28} {old_value:>9} {new_value:>9} "
            f"{(change - 1) * 100:>+7.1f}%"
        )
    return lines


def check_baseline(
    args: argparse.Namespace,
    document: dict,
    case_key: Callable[[dict], tuple],
    ratio: str,
) -> int:
    """Print the ``--baseline`` diff and apply ``--max-regression``.

    Returns 1 when the headline *ratio* fell below ``(1 - FRAC)`` of the
    baseline headline's, else 0 (also when no baseline was given).
    """
    if not args.baseline:
        return 0
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    for line in diff_against_baseline(document, baseline, case_key, ratio):
        print(line, file=sys.stderr)
    if args.max_regression is None:
        return 0
    old = baseline.get("headline", {}).get(ratio)
    new = document["headline"][ratio]
    floor = (old or 0.0) * (1.0 - args.max_regression)
    if old and new < floor:
        print(
            f"FATAL: headline {ratio} regressed: {new} < {floor:.3g} "
            f"({old} baseline - {args.max_regression:.0%} tolerance)",
            file=sys.stderr,
        )
        return 1
    print(
        f"bench gate ok: headline {ratio} {new} vs floor {floor:.3g}",
        file=sys.stderr,
    )
    return 0
