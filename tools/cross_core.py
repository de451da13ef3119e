"""Cross-core byte check: do quantplan's study results keep their bytes under
every OpenBLAS kernel core this CPU can run?

    python tools/cross_core.py

numpy's bundled OpenBLAS picks a kernel core at run time, and the cores sum
float32 products in different orders, so the model and the float columns of
`episodes.csv` differ from core to core.  The study's results must not.  This
runs the default config and the wide config (`{"variants": "all",
"episodes_per_run": 30}`) through `quantplan all`, each in a child process per
core (SkylakeX, Haswell, Sandybridge, Prescott) with `OPENBLAS_CORETYPE` set
for that child only and one BLAS thread.  A core whose instructions the CPU
lacks (read off /proc/cpuinfo) is skipped.

It prints one line per artifact and core, `<core> <config>/<file> <sha256>`,
then checks that across the cores run:
- the files below that hold no float the model wrote (`SAME_BYTES`) are
  byte-equal;
- `episodes.csv`'s `success`, `steps_executed` and `plan_rounds` columns are
  equal, row for row.
It exits 1 and names every mismatch otherwise, with the (variant, budget, seed,
episode_id) and both cores' values of at most ten differing rows per config
and core.  It is not a tier-1 test: it
runs 2 configs x 4 cores, about 25 s on a 2-core Xeon VM.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {"default": {}, "wide": {"variants": "all", "episodes_per_run": 30}}
# each core and the /proc/cpuinfo flags OpenBLAS needs for its kernels ("pni" is SSE3)
CORES = {
    "SkylakeX": {"avx512f", "avx512bw", "avx512dq", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Sandybridge": {"avx"},
    "Prescott": {"pni"},
}
SAME_BYTES = (
    "bins.json", "comparisons.json", "dataset/manifest.json", "dataset/weights.bin",
    "difficulty.svg", "forest.svg", "frontier.json", "frontier.svg", "main_table.csv",
    "matchups.json", "retention_curve.svg", "run_meta.json", "sizes.json",
)
KEY_COLUMNS = ("variant", "budget", "seed", "episode_id")
DISCRETE_COLUMNS = ("success", "steps_executed", "plan_rounds")
SHOWN_ROWS = 10  # differing episodes.csv rows printed per config and core


def cpu_flags() -> set[str] | None:
    """The CPU's flags from /proc/cpuinfo, or None where it cannot be read."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return None


def run(core: str, config: dict, out: Path) -> None:
    """Run `quantplan all` on `config` into `out` under `core`."""
    cfg_path = out.with_suffix(".json")
    cfg_path.write_text(json.dumps({**config, "output_dir": str(out)}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_CORETYPE=core,
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "quantplan.cli", "all", "--config",
                           str(cfg_path)], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{core} {out.name}: quantplan all failed\n{done.stderr}")


def discrete(episodes_csv: bytes) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Each episodes.csv row's (KEY_COLUMNS, DISCRETE_COLUMNS) values."""
    rows = csv.DictReader(io.StringIO(episodes_csv.decode()))
    return [(tuple(row[c] for c in KEY_COLUMNS), tuple(row[c] for c in DISCRETE_COLUMNS))
            for row in rows]


def shown(values: tuple[str, ...]) -> str:
    return " ".join(f"{c}={v}" for c, v in zip(DISCRETE_COLUMNS, values))


def main() -> int:
    flags = cpu_flags()
    hashes: dict[str, dict[str, dict[str, str]]] = {}  # core -> config -> file -> sha256
    columns: dict[str, dict[str, list]] = {}  # core -> config -> discrete episodes.csv rows
    with tempfile.TemporaryDirectory(prefix="cross_core_") as tmp:
        for core, needs in CORES.items():
            if flags is not None and not needs <= flags:
                print(f"# {core}: skipped, the CPU lacks {' '.join(sorted(needs - flags))}")
                continue
            for name, config in CONFIGS.items():
                out = Path(tmp) / f"{core}-{name}"
                run(core, config, out)
                hashes.setdefault(core, {})[name] = {
                    str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(out.rglob("*")) if p.is_file()}
                columns.setdefault(core, {})[name] = discrete((out / "episodes.csv").read_bytes())
    for core, by_config in hashes.items():
        for name, files in by_config.items():
            for file, digest in files.items():
                print(f"{core} {name}/{file} {digest}")

    cores = list(hashes)
    if len(cores) < 2:
        print(f"# only {cores} ran: nothing to compare")
        return 0
    first = cores[0]
    mismatches, rows_shown = [], []
    for core in cores[1:]:
        for name in CONFIGS:
            for file in SAME_BYTES:
                if hashes[core][name].get(file) != hashes[first][name].get(file):
                    mismatches.append(f"{name}/{file}: {core} differs from {first}")
            rows, base = columns[core][name], columns[first][name]
            if [v for _, v in rows] != [v for _, v in base]:
                pairs = [(r, f) for r, f in zip(rows, base) if r[1] != f[1]]
                differ = len(pairs) + abs(len(rows) - len(base))
                mismatches.append(f"{name}/episodes.csv {', '.join(DISCRETE_COLUMNS)}: "
                                  f"{core} differs from {first} in {differ} of {len(base)} rows")
                for (_, values), (key, base_values) in pairs[:SHOWN_ROWS]:
                    where = ", ".join(f"{c}={v}" for c, v in zip(KEY_COLUMNS, key))
                    rows_shown.append(f"{name} {where}: {first} {shown(base_values)}, "
                                      f"{core} {shown(values)}")
    for line in mismatches:
        print(f"MISMATCH {line}")
    for line in rows_shown:
        print(f"ROW {line}")
    print(f"# {len(SAME_BYTES)} files and the discrete episodes.csv columns of "
          f"{' and '.join(CONFIGS)} across {', '.join(cores)}: "
          f"{'equal' if not mismatches else f'{len(mismatches)} mismatches'}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
