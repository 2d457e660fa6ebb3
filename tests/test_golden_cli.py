"""Golden bytes of the command-line interface.

Each case runs `cli.main` in-process, one or more commands in a fresh
directory, and compares the exit codes, stdout, stderr and every file the
commands wrote with a frozen transcript in tests/golden/, the directory
masked as `<tmp>`.  A change to any output byte fails here.  After an
intended output change, regenerate the transcripts with

    PYTHONPATH=src python3 tests/test_golden_cli.py [NAME ...]

which rewrites the named cases only (say `names-human`), or every case when
no name is given.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from algprog.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
PROBLEMS = HERE.parent / "problems"
POLYNOMIAL = GOLDEN / "polynomial.json"  # radical-free, one constraint twice
# a part in the objective and a constraint, a radical inside another part,
# a constraint repeated up to scale
REPEATS = GOLDEN / "repeats.json"
# goldstein_price without its group: two parts, z and z2
UNGROUPED = GOLDEN / "ungrouped.json"
# program variables named z and t: the parts become z2, z3 and z4
NAMES = GOLDEN / "names.json"
# quotients: a grouped part over a denominator, a negative constant
# denominator and a row that cancels to 0 >= 0
QUOTIENTS = GOLDEN / "quotients.json"

_EXTENSIONS = {"json": "json", "smtlib": "smt2", "human": "txt"}


def _reformulate_cases():
    for name in ("goldstein_price", "rosenbrock"):
        for fmt, ext in _EXTENSIONS.items():
            yield f"{name}-{fmt}", [[
                "reformulate", str(PROBLEMS / f"{name}.json"),
                "--strategy", "domain",
                "--domain-file", str(PROBLEMS / f"{name}.domain.json"),
                "--merge", "--allow-boundary", "--verify", "--baseline",
                "--format", fmt, "--out", f"<tmp>/out.{ext}",
            ]]
    for fmt, ext in _EXTENSIONS.items():
        yield f"polynomial-{fmt}", [[
            "reformulate", str(POLYNOMIAL), "--verify", "--baseline",
            "--format", fmt, "--out", f"<tmp>/out.{ext}",
        ]]
    for fmt in ("human", "json"):
        yield f"repeats-{fmt}", [[
            "reformulate", str(REPEATS), "--verify", "--baseline",
            "--format", fmt, "--out", f"<tmp>/out.{_EXTENSIONS[fmt]}",
        ]]
        yield f"ungrouped-{fmt}", [[
            "reformulate", str(UNGROUPED), "--strategy", "domain",
            "--domain-file", str(PROBLEMS / "goldstein_price.domain.json"),
            "--merge", "--allow-boundary", "--verify", "--baseline",
            "--format", fmt, "--out", f"<tmp>/out.{_EXTENSIONS[fmt]}",
        ]]
        yield f"names-{fmt}", [[
            "reformulate", str(NAMES), "--verify", "--baseline",
            "--format", fmt, "--out", f"<tmp>/out.{_EXTENSIONS[fmt]}",
        ]]
    for fmt in ("human", "smtlib"):
        yield f"quotients-{fmt}", [[
            "reformulate", str(QUOTIENTS), "--verify", "--baseline",
            "--format", fmt, "--out", f"<tmp>/out.{_EXTENSIONS[fmt]}",
        ]]
    yield "rosenbrock-grid", [[
        "reformulate", str(PROBLEMS / "rosenbrock.json"), "--strategy", "grid",
        "--grid-res", "4", "--verify", "--format", "human",
    ]]


def _isolate_cases():
    grid = ["--strategy", "grid", "--grid-min", "1/4", "--grid-max", "4",
            "--grid-res", "6"]
    for name, expr, options in [
        ("sqrt", "sqrt(x)", ["--allow-boundary"]),
        ("sqrt-cbrt", "sqrt(x) + root(3, x + 1)", ["--allow-boundary"]),
        ("skipped", "1/(sqrt(x^2) - x)", ["--allow-boundary"]),
        ("grid", "sqrt(x) + sqrt(y)", grid),
        ("diff", "x^(1/2) - x^(1/3)", []),
        # 28 branches in narrow components: the walk keeps returning to anchors
        ("narrow", "root(3, x)/(3 - 1) - root(3, 4)*x", []),
    ]:
        yield f"isolate-{name}", [
            [
                "isolate", expr, "--merge", *options, "--verify",
                "--samples", "8", "--out", "<tmp>/cert.json",
            ],
            ["verify", "<tmp>/cert.json", "--samples", "8"],
        ]
    # two grid groups, unmerged: y > x^2, and the U-shaped y < x^2 below it
    yield "isolate-parabola", [
        [
            "isolate", "root(3, x^2 - y)", "--strategy", "grid", "--grid-res", "8",
            "--verify", "--samples", "8", "--out", "<tmp>/cert.json",
        ],
        ["verify", "<tmp>/cert.json", "--samples", "8"],
    ]


CASES = dict(
    [
        *_reformulate_cases(),
        *_isolate_cases(),
        ("defpoly-nested", [["defpoly", "sqrt(x^2 + sqrt(y^2 + 1))", "--verify"]]),
        ("defpoly-sum", [["defpoly", "x^(1/2) + x^(1/3)", "--verify"]]),
        ("defpoly-factor-filter", [
            ["defpoly", "sqrt(2)*sqrt(x) - sqrt(2*x)", "--verify"],
        ]),
        # root(200, .) substitutes z^200: a degree-400 polynomial, no --verify
        ("defpoly-root200", [["defpoly", "root(200, x) + sqrt(x)"]]),
    ]
)


def transcript(steps) -> str:
    """Exit code, stdout and stderr of each step, then every written file."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in steps:
            argv = [a.replace("<tmp>", tmp) for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            with (
                contextlib.redirect_stdout(stdout),
                contextlib.redirect_stderr(stderr),
            ):
                code = main(argv)
            out.append(f"$ algprog {' '.join(argv)}")
            out.append(f"exit {code}")
            out.append(f"--- stdout\n{stdout.getvalue()}")
            out.append(f"--- stderr\n{stderr.getvalue()}")
        for path in sorted(Path(tmp).iterdir()):
            out.append(f"--- file {path.name}\n{path.read_text()}")
        text = "\n".join(out)
        return text.replace(tmp, "<tmp>").replace(str(HERE.parent), "<repo>")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert transcript(CASES[name]) == expected


if __name__ == "__main__":
    unknown = set(sys.argv[1:]) - set(CASES)
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(sorted(unknown))}")
    for name in sys.argv[1:] or sorted(CASES):
        (GOLDEN / f"{name}.txt").write_text(transcript(CASES[name]))
        print(f"wrote {GOLDEN / f'{name}.txt'}", file=sys.stderr)
