"""The golden corpus: whole `catdb` commands and what they print.

CORPUS lists each command as an argv whose file argument is a key:
`paper`, `group` and `merge` name the workspaces under fixtures/, and
`company-N` or `company-N-nulls` one generated from bench/gen.py's
`make_company(Random(1), N, max(1, N // 5))`, the second with a quarter
of the staff on a labelled null salary and salaries drawn from {300,
600}.  The keys of EXTRA name small workspaces written with the
companies: copies of paper.cdb with other line ends or a trailing
comment, the type-equations and solved-equations workspaces of
tests/genfixtures.py, and the error cases (an instance with a free loop,
A1; a cycle through a rule's left side, P; a 5000-edge path; a
non-letter string literal; a file that is not UTF-8).
expected.txt keeps, per command, its exit code and its stdout and stderr:
as text for the fixtures, as a SHA-256 and a length for the generated
workspaces.  A command's file path is written as its key in both.

A change of output shows as a diff of expected.txt.  To rewrite it after
a deliberate change, run from the repository root:

    PYTHONPATH=src python -m tests.golden.make
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shlex
import sys
import tempfile
from pathlib import Path

from catdb.cli import run_cli
from tests.conftest import FIXTURES
from tests.genfixtures import (
    bench_company, solved_equations_workspace, type_equations_workspace,
)

EXPECTED = Path(__file__).resolve().parent / "expected.txt"
NULLS = dict(null_share=0.25, salaries=(300, 600))
COMPANIES = {f"company-{n}": n for n in (3, 12, 48, 96)}
COMPANIES.update({f"company-{n}-nulls": n for n in (12, 96)})
PAPER = (FIXTURES / "paper.cdb").read_text(encoding="utf-8")
TYPE_EQS = type_equations_workspace()
SOLVED_EQS = solved_equations_workspace()
EXTRA: dict[str, bytes] = {k: v.encode() for k, v in {
    "paper-crlf": PAPER.replace("\n", "\r\n"),
    "paper-cr": PAPER.replace("\n", "\r"),
    "paper-comment": PAPER + "// a last line with no newline",
    "type-eqs": TYPE_EQS,
    "solved-eqs": SOLVED_EQS,
    "a1": "schema A1 { entities A; edges loop : A -> A; }\n"
          "instance K on A1 { generators a : A; }\n",
    "p": "schema P {\n  entities E0;\n"
         "  edges f0 : E0 -> E0, f1 : E0 -> E0, f2 : E0 -> E0;\n"
         "  attributes qE0 : E0 -> Int;\n"
         "  path_eqs forall x:E0 . x.f2.f0 = x.f0.f2.f2;\n}\n"
         "instance K on P {\n  generators ge00 : E0;\n"
         "  equations ge00.f0 = ge00, ge00.f1 = ge00, ge00.f2 = ge00;\n}\n",
    "deep": "schema S {\n  entities E;\n  edges mgr : E -> E;\n}\n"
            "instance D on S {\n  generators e : E;\n"
            f"  equations e{'.mgr' * 5000} = e;\n}}\n",
    "literal": "schema S {\n  entities E;\n"
               "  attributes name : E -> Str;\n}\n"
               "instance A on S {\n  generators e : E;\n"
               '  equations e.name = "no spaces";\n}\n',
}.items()}
EXTRA["latin1"] = b"schema S { entities A; }\n\xff\n"


def _corpus() -> list[list[str]]:
    out = [["check", ws] for ws in ("paper", "group", "merge")]
    out += [["complete", "group", "--theory", "Grp"],
            ["eq", "group", "--theory", "Grp",
             "(inv(a)*a)*(b*inv(b))", "b*((inv(a*b))*a)"],
            ["eq", "group", "--theory", "Grp", "a*b b", "a"]]
    instances = ("J", "Jbar", "I", "I'")
    for i in instances:
        out += [["saturate", "paper", "--instance", i],
                ["saturate", "paper", "--instance", i, "--format", "json"]]
    out += [["homs", "paper", "--from", a, "--to", b]
            for a in instances for b in instances]
    for i in ("J", "Jbar"):
        on = ["--instance", i]
        out += [["query", "paper", "--query", "Q", *on, "--crosscheck"],
                ["query", "paper", "--query", "N", *on, "--format", "json"]]
        out += [["migrate", "paper", "--mapping", m, *on, "--mode", mode]
                for m, mode in (("G", "pi"), ("G", "delta"), ("H", "sigma"),
                                ("H", "pi"), ("F", "pi"), ("F", "sigma"))]
        out.append(["migrate", "paper", "--mapping", "H", *on,
                    "--mode", "sigma", "--saturate"])
    for b in map(str, range(6)):
        out += [["saturate", "paper", "--instance", "J", "--budget", b],
                ["query", "paper", "--query", "Q", "--instance", "J",
                 "--crosscheck", "--budget", b],
                ["migrate", "paper", "--mapping", "G", "--instance", "J",
                 "--mode", "pi", "--budget", b]]
    out += [["saturate", "merge", "--instance", "I3"],
            ["saturate", "merge", "--instance", "K3"],
            ["homs", "merge", "--from", "I3", "--to", "I3"],
            ["migrate", "merge", "--mapping", "F3", "--instance", "K3",
             "--mode", "delta"]]
    out += [["migrate", "merge", "--mapping", "F3", "--instance", "I3",
             "--mode", mode] for mode in ("pi", "delta", "sigma")]
    out.append(["migrate", "merge", "--mapping", "F3", "--instance", "I3",
                "--mode", "sigma", "--saturate", "--format", "json"])
    for ws in COMPANIES:
        js = ["--format", "json"]
        out += [["saturate", ws, "--instance", "W", *js],
                ["migrate", ws, "--mapping", "G", "--instance", "W",
                 "--mode", "pi", *js],
                ["migrate", ws, "--mapping", "H", "--instance", "W",
                 "--mode", "sigma", "--saturate", *js],
                ["query", ws, "--query", "Q", "--instance", "W",
                 "--crosscheck"],
                ["query", ws, "--query", "SJ", "--instance", "W",
                 "--crosscheck"],
                ["query", ws, "--query", "N", "--instance", "W", *js],
                ["homs", ws, "--from", "I", "--to", "W"]]
    out += [["homs", ws, "--from", "W", "--to", "W"]
            for ws in ("company-12", "company-96", "company-96-nulls")]
    out += [["check", ws] for ws in ("paper-crlf", "paper-cr",
                                      "paper-comment")]
    out += [["saturate", "type-eqs", "--instance", i]
            for i in re.findall(r"^instance (\S+)", TYPE_EQS, re.M)]
    out += [["saturate", "solved-eqs", "--instance", i]
            for i in re.findall(r"^instance (\S+)", SOLVED_EQS, re.M)]
    out += [["saturate", "a1", "--instance", "K", "--budget", b]
            for b in ("300", "400")]
    out += [["saturate", "p", "--instance", "K"],
            ["check", "deep"], ["saturate", "deep", "--instance", "D"],
            ["check", "literal"], ["check", "latin1"]]
    return out


CORPUS = _corpus()


def workspaces(tmp: Path) -> dict[str, str]:
    """The path of each workspace key; generated ones are written to tmp."""
    paths = {k: str(FIXTURES / f"{k}.cdb") for k in ("paper", "group",
                                                      "merge")}
    for key, n in COMPANIES.items():
        kw = NULLS if key.endswith("-nulls") else {}
        path = tmp / f"{key}.cdb"
        path.write_text(bench_company(1, n, max(1, n // 5), **kw),
                        encoding="utf-8")
        paths[key] = str(path)
    for key, data in EXTRA.items():
        path = tmp / f"{key}.cdb"
        path.write_bytes(data)
        paths[key] = str(path)
    return paths


def run(argv: list[str], paths: dict[str, str]) -> tuple[int, str, str]:
    """argv through run_cli with its workspace key replaced by the path, and
    the path written back as the key in what it prints."""
    key = argv[1]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli([argv[0], paths[key], *argv[2:]])
    return (code, out.getvalue().replace(paths[key], key),
            err.getvalue().replace(paths[key], key))


def record(argv: list[str], code: int, out: str, err: str) -> str:
    """One command's entry of expected.txt."""
    lines = [f"$ {shlex.join(argv)}", f"exit {code}"]
    hashed = argv[1] in COMPANIES
    for name, text in (("stdout", out), ("stderr", err)):
        if hashed:
            digest = hashlib.sha256(text.encode()).hexdigest()
            lines.append(f"{name} sha256 {digest} {len(text)}")
            continue
        assert not text or text.endswith("\n"), argv
        lines.append(name)
        if text:
            lines += ["| " + line for line in text[:-1].split("\n")]
    return "\n".join(lines) + "\n"


def entries(text: str) -> dict[str, str]:
    """expected.txt's entries by their command line."""
    # every line of an entry but its first starts with a word or "| "
    return {chunk.split("\n", 1)[0]: "$ " + chunk.rstrip("\n") + "\n"
            for chunk in ("\n" + text).split("\n$ ")[1:]}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = workspaces(Path(tmp))
        text = "".join(record(argv, *run(argv, paths)) for argv in CORPUS)
    EXPECTED.write_text(text, encoding="utf-8")
    print(f"wrote {len(CORPUS)} commands to {EXPECTED}", file=sys.stderr)


if __name__ == "__main__":
    main()
