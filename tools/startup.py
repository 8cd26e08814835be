"""Time and count what importing `rollupsim` costs a fresh interpreter.

    python tools/startup.py                  # the working tree's src/, 5 imports
    python tools/startup.py --repeat 20      # more imports, steadier minima
    python tools/startup.py --src OTHER/src  # another checkout's src/

Each import runs in a new interpreter started with `-B -X importtime` and
imports what a bench child imports: `rollupsim.sequencer`, `formats` and
`derivation`. With `-B` no bytecode cache is written, so, as in a bench
child, every module of `src/` is compiled from its source (a `__pycache__`
left in `src/` by another run would be read; the table warns of one). The
table gives each `rollupsim` module's self time, compile included: the
minimum over the repeats, in microseconds.

One more interpreter imports the same modules once and counts what the
import builds. These counts are deterministic, so a test can pin them:
- `classes`: classes the collector tracks after the import, less before;
- `regexes`: `re.compile` calls made from `rollupsim` code;
- `tracked_objects`: objects the collector tracks after the import, less
  before, each side counted after a full collection;
- `forward_refs`: `typing.ForwardRef` objects added, one per string
  annotation that `typing` evaluates;
- `typing_named_tuples`: classes built through `typing.NamedTuple`, in
  either its class or its functional form;
- `enum_classes`: classes built through `enum.EnumType`.

Standard library only.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("rollupsim.sequencer", "rollupsim.formats", "rollupsim.derivation")
IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import " + ", ".join(MODULES)

# Run as `python -B -c PROBE SRC`; prints the counts as one JSON object.
# The profile function only reads a dict and adds small ints, so it leaves
# the tracked-object count as it is. `typing._make_nmtuple` is the one
# builder both forms of `typing.NamedTuple` call.
PROBE = """
import enum, gc, json, re, sys, typing
sys.path.insert(0, sys.argv[1])
counted = {re.compile.__code__: "regexes", enum.EnumMeta.__new__.__code__: "enum_classes",
           typing._make_nmtuple.__code__: "typing_named_tuples"}
counts = dict.fromkeys(counted.values(), 0)

def profile(frame, event, arg):
    if event == "call":
        name = counted.get(frame.f_code)
        if name is not None and (name != "regexes" or "rollupsim" in frame.f_back.f_code.co_filename):
            counts[name] += 1

def census():
    gc.collect()
    objects = gc.get_objects()
    return (len(objects), sum(1 for o in objects if isinstance(o, type)),
            sum(1 for o in objects if type(o) is typing.ForwardRef))

before = census()
sys.setprofile(profile)
import %s
sys.setprofile(None)
after = census()
counts.update(zip(("tracked_objects", "classes", "forward_refs"), (a - b for a, b in zip(after, before))))
print(json.dumps(counts, sort_keys=True))
""" % ", ".join(MODULES)


def counts(src: Path) -> Dict[str, int]:
    """What importing the bench child's modules from `src` builds, counted
    in a fresh interpreter (see the module docstring)."""
    out = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, str(src)], capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


def self_times(src: Path) -> Dict[str, int]:
    """{module: self time in microseconds} of each `rollupsim` module, from
    one import in a fresh interpreter."""
    err = subprocess.run(
        [sys.executable, "-B", "-X", "importtime", "-c", IMPORT, str(src)], capture_output=True, text=True, check=True
    ).stderr
    times = {}
    for line in err.splitlines():
        cells = line.removeprefix("import time:").split("|")
        if len(cells) == 3 and cells[2].strip().startswith("rollupsim"):
            times[cells[2].strip()] = int(cells[0])
    return times


def table(src: Path, repeat: int) -> List[str]:
    runs = [self_times(src) for _ in range(repeat)]
    best = {name: min(run[name] for run in runs) for name in runs[0]}
    width = max(map(len, best))
    rows = [f"{'module'.ljust(width)}  self_us (min of {repeat})"]
    rows += [f"{name.ljust(width)}  {us:>8d}" for name, us in best.items()]
    rows.append(f"{'total'.ljust(width)}  {sum(best.values()):>8d}")
    if (src / "rollupsim" / "__pycache__").is_dir():
        rows.append(f"warning: {src / 'rollupsim' / '__pycache__'} exists; a module with a cached compile reads low")
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the directory that holds rollupsim/")
    parser.add_argument("--repeat", type=int, default=5, help="imports to time (default 5)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    src = args.src.resolve()
    lines = table(src, args.repeat)
    lines += [f"{name} {value}" for name, value in counts(src).items()]
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
