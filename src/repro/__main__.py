"""Command-line entry point: discover and run the experiment suite.

Usage::

    python -m repro list                 # show available experiments
    python -m repro run t3 f5 a6         # run selected experiments
    python -m repro run all              # run everything (prints all tables)

Experiments live in ``benchmarks/bench_<id>_<name>.py`` next to the
installed source tree; each exposes ``run_<id>()`` which prints its table
and/or series.
"""

from __future__ import annotations

import importlib.util
import pathlib
import re
import sys
from typing import Dict, List, Optional

__all__ = ["discover", "main"]

# experiment files only: bench_t1_wordcount_scaling -> "t1", but no id
# for a bench file whose name does not start with a letter-digit id
_EXPERIMENT = re.compile(r"bench_([a-z][0-9]+)_\w+")


def _bench_dir() -> Optional[pathlib.Path]:
    # repo layout: <root>/src/repro/__main__.py with <root>/benchmarks/
    here = pathlib.Path(__file__).resolve()
    for parent in here.parents:
        cand = parent / "benchmarks"
        if cand.is_dir() and any(cand.glob("bench_*.py")):
            return cand
    return None


def discover() -> Dict[str, pathlib.Path]:
    """Map experiment id ('t1', 'f5', 'a3', ...) to its bench file."""
    bench = _bench_dir()
    if bench is None:
        return {}
    out: Dict[str, pathlib.Path] = {}
    for path in sorted(bench.glob("bench_*.py")):
        match = _EXPERIMENT.fullmatch(path.stem)
        if match:
            out[match.group(1)] = path
    return out


def _run_one(exp_id: str, path: pathlib.Path) -> None:
    sys.path.insert(0, str(path.parent))
    try:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        assert spec is not None and spec.loader is not None
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        runner = getattr(mod, f"run_{exp_id}")
        runner()
    finally:
        sys.path.remove(str(path.parent))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI dispatcher; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    experiments = discover()
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    cmd, args = argv[0], argv[1:]
    if cmd == "list":
        if not experiments:
            print("no benchmarks/ directory found near the package")
            return 1
        print("available experiments:")
        for exp_id, path in experiments.items():
            title = path.stem.split("_", 2)[-1].replace("_", " ")
            print(f"  {exp_id:4s} {title}")
        return 0
    if cmd == "run":
        if not experiments:
            print("no benchmarks/ directory found near the package")
            return 1
        wanted = list(experiments) if args == ["all"] else args
        unknown = [w for w in wanted if w not in experiments]
        if unknown:
            print(f"unknown experiment(s): {', '.join(unknown)} "
                  f"(try: python -m repro list)")
            return 1
        for exp_id in wanted:
            _run_one(exp_id, experiments[exp_id])
        return 0
    print(f"unknown command {cmd!r}; try 'list' or 'run'")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
