"""List the package functions that nothing the project promises reaches.

A function under src/qgeomcap counts as reached when a call to it is seen
(through sys.setprofile) while one of these runs in this process:
  - each `qgeomcap ...` command of the README's command block, through
    cli.main, in a scratch directory (`data/` names the checkout's data;
    `report.json` is the last JSON report an earlier command printed);
  - tests/test_acceptance.py, through pytest.main (its runtime budgets
    may fail under the profiler; the calls are recorded all the same);
  - every task of each perfbench workload, built by perfbench's own
    build_<workload>(seed, work), run once and checked once. cli_cold's
    fresh `qgeomcap` processes run here through cli.main instead, so that
    the profiler sees them; nothing under perfbench/ is changed.

Functions are every def in src/qgeomcap (nested ones included, lambdas and
comprehensions not), named module.qualname. Prints the unreached ones and a
count.

Run as: python3 benchmarks/reach.py [--seed 3]   (Python >= 3.11, for
code.co_qualname and contextlib.chdir)
"""

import argparse
import contextlib
import inspect
import io
import json
import os
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qgeomcap"
WORKLOADS = ("hsw_zoo", "balls", "zeroerr_graphs", "cli_cold")


def defined_functions():
    """{(file, first line, qualname): 'module.qualname'} for every def in
    the package, from its compiled code objects."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        todo = [compile(path.read_text(), str(path), "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if inspect.iscode(c))
            # class bodies and modules are not optimized; lambdas and
            # comprehensions are named <...>
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                key = (str(path), code.co_firstlineno, code.co_qualname)
                found[key] = f"{path.stem}.{code.co_qualname}"
    return found


@contextlib.contextmanager
def recording(seen):
    """Add the key of every package function called inside the block to seen."""
    prefix = str(SRC) + os.sep

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                seen.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)


def readme_commands():
    """The argv of each `qgeomcap ...` line in the README's code blocks."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    return [line.split()[1:] for block in blocks for line in block.splitlines()
            if line.startswith("qgeomcap ")]


def run_readme(cli):
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for argv in readme_commands():
            argv = [str(ROOT / a) if a.startswith("data/") else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            print(f"  exit {code}: qgeomcap {' '.join(argv)}", file=sys.stderr)
            with contextlib.suppress(ValueError):
                json.loads(out.getvalue())
                pathlib.Path("report.json").write_text(out.getvalue())


def run_acceptance():
    import pytest

    with contextlib.redirect_stdout(io.StringIO()):
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            str(ROOT / "tests" / "test_acceptance.py")])
    print(f"  pytest exit {int(code)}: tests/test_acceptance.py", file=sys.stderr)


def run_perfbench(cli, seed):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    def in_process(cmd, stdout, stderr, cap):
        # cmd is [python, "-c", CLI_ENTRY] followed by the qgeomcap argv
        with open(stdout, "w") as out, open(stderr, "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(cmd[3:])
        return code, False, 0

    workloads.run_child = in_process
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(ROOT):
        for name in WORKLOADS:
            tasks = getattr(workloads, f"build_{name}")(seed, pathlib.Path(tmp) / name)
            bad = 0
            for i, task in enumerate(tasks):
                verdict = task.check(task.run(workloads.Context(instance=i)))
                bad += verdict.fail is not None
            print(f"  {name}: {len(tasks)} tasks, {bad} failed checks", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=3, help="perfbench workload seed")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    functions = defined_functions()
    seen = set()
    with recording(seen):
        from qgeomcap import cli

        run_readme(cli)
        run_acceptance()
        run_perfbench(cli, args.seed)
    missed = sorted(name for key, name in functions.items() if key not in seen)
    for name in missed:
        print(name)
    print(f"# {len(missed)} of {len(functions)} functions not reached")


if __name__ == "__main__":
    main()
