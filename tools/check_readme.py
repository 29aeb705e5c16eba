#!/usr/bin/env python
"""Audit README fenced commands and code against this checkout (stdlib only).

Usage::

    PYTHONPATH=src python tools/check_readme.py [FILE.md ...]

The README's ``bash`` fences are executable documentation; this script
keeps them from drifting away from the code.  For every command line
in a fenced ``bash`` block (default files: ``README.md`` and every
page under ``docs/``):

* ``repro-hydra …`` is an error: the repo ships no packaging, so that
  console script does not exist — commands must use
  ``python -m repro``;
* ``python -m repro <subcommand> …`` must survive ``--help`` (the
  subcommand exists), and every ``--flag`` on the line must appear in
  that help text (the flag exists under that subcommand);
* a script path run as ``python <path.py>`` must exist, and any
  argument containing a ``/`` must exist too — bare-name placeholders
  like ``spec.toml`` are deliberately exempt, repo-relative paths like
  ``examples/custom_sweep.toml`` are not.

Fenced ``python`` blocks get the same treatment at the API level:

* every ``from repro… import name`` must resolve;
* every keyword argument in a call to a name imported that way must be
  a parameter of its ``inspect.signature`` (a class's ``__init__``),
  unless the callable takes ``**kwargs``.

Help output is fetched once per subcommand chain through a subprocess
with ``PYTHONPATH=src``, and ``src`` is put first on ``sys.path`` for
the imports, so the audit runs against *this* checkout.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import re
import shlex
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_FENCE = re.compile(r"^```bash\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)
_PY_FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)

#: Commands the audit does not own (tooling, not this package's CLI).
_SKIP_PREFIXES = (
    "export ",
    "python -m pytest",
    "python -m doctest",
    "python -m pip",
)


def _command_lines(block: str) -> list[str]:
    """Logical command lines: comments stripped, continuations joined."""
    lines: list[str] = []
    pending = ""
    for raw in block.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        line = line.split("  #", 1)[0].strip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        lines.append((pending + line).strip())
        pending = ""
    return lines


def _strip_env_prefix(tokens: list[str]) -> list[str]:
    while tokens and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*=.*", tokens[0]):
        tokens = tokens[1:]
    return tokens


@lru_cache(maxsize=None)
def _help_text(chain: tuple[str, ...]) -> str | None:
    """``python -m repro <chain> --help`` output, or None on failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *chain, "--help"],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=REPO_ROOT,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout


def _check_repro_command(tokens: list[str]) -> list[str]:
    """Audit one ``python -m repro …`` token list (post ``-m repro``)."""
    problems: list[str] = []
    chain = []
    for token in tokens:
        if token.startswith("-"):
            break
        chain.append(token)
        if len(chain) == 2:
            break
    help_text = _help_text(tuple(chain))
    if help_text is None and len(chain) == 2:
        # Second token may be a value (e.g. an allocator name), not a
        # nested subcommand — retry on the first token alone.
        chain = chain[:1]
        help_text = _help_text(tuple(chain))
    if help_text is None:
        problems.append(
            f"subcommand {' '.join(chain) or '(none)'!s} not accepted by "
            f"python -m repro"
        )
        return problems
    for token in tokens:
        if token.startswith("--"):
            flag = token.split("=", 1)[0]
            if flag not in help_text:
                problems.append(
                    f"flag {flag} not in "
                    f"'python -m repro {' '.join(chain)} --help'"
                )
    return problems


def _check_paths(tokens: list[str]) -> list[str]:
    problems = []
    for token in tokens:
        candidate = token.split("=", 1)[-1]
        if "/" not in candidate or candidate.startswith("-"):
            continue
        if re.search(r"[<>{}$*\[\]]", candidate):
            continue  # placeholders and globs
        path = REPO_ROOT / candidate
        # Only flag inputs that *look* committed: files under a
        # directory that exists (output paths like results/cache point
        # into directories a run creates).
        if not path.exists() and path.parent.exists() and path.parent != REPO_ROOT:
            problems.append(f"path {candidate!r} does not exist")
    return problems


def _resolve(module_name: str, name: str) -> object:
    """What ``from module_name import name`` binds (raises ImportError)."""
    src = str(REPO_ROOT / "src")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module_name}.{name}")


def _accepted_keywords(target: object) -> set[str] | None:
    """Keyword names ``target(...)`` accepts (a class: its ``__init__``);
    None when it takes ``**kwargs`` or has no signature."""
    if isinstance(target, type):
        target = target.__init__
    try:
        params = inspect.signature(target).parameters.values()
    except (TypeError, ValueError):
        return None
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return None
    return {
        p.name for p in params
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    }


def check_python_block(source: str) -> list[str]:
    """Audit one fenced ``python`` block's repro imports and keywords."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [f"python block does not parse: {exc.msg} (line {exc.lineno})"]
    problems: list[str] = []
    imported: dict[str, object] = {}
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module is not None
            and node.module.split(".")[0] == "repro"
        ):
            continue
        for alias in node.names:
            try:
                imported[alias.asname or alias.name] = _resolve(
                    node.module, alias.name
                )
            except ImportError:
                problems.append(
                    f"cannot import {alias.name!r} from {node.module!r}"
                )
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in imported
        ):
            continue
        accepted = _accepted_keywords(imported[node.func.id])
        if accepted is None:
            continue
        for keyword in node.keywords:
            if keyword.arg is not None and keyword.arg not in accepted:
                problems.append(
                    f"{node.func.id}() takes no keyword {keyword.arg!r}"
                )
    return problems


def check_file(path: Path) -> list[str]:
    problems: list[str] = []
    text = path.read_text(encoding="utf-8")
    for fence in _PY_FENCE.finditer(text):
        lineno = text.count("\n", 0, fence.start()) + 1
        problems += [
            f"{path}: python block at line {lineno}: {p}"
            for p in check_python_block(fence.group(1))
        ]
    for fence in _FENCE.finditer(text):
        for line in _command_lines(fence.group(1)):
            where = f"{path}: `{line}`"
            if line.startswith("repro-hydra") or " repro-hydra " in line:
                problems.append(
                    f"{where}: 'repro-hydra' is not an installed command "
                    f"(no packaging) — use 'python -m repro'"
                )
                continue
            if line.startswith(_SKIP_PREFIXES):
                continue
            try:
                tokens = _strip_env_prefix(shlex.split(line))
            except ValueError:
                continue
            if not tokens:
                continue
            if tokens[0] == "python" and tokens[1:3] == ["-m", "repro"]:
                problems += [
                    f"{where}: {p}" for p in _check_repro_command(tokens[3:])
                ]
            elif tokens[0] == "python" and tokens[1].endswith(".py"):
                if not (REPO_ROOT / tokens[1]).exists():
                    problems.append(f"{where}: script {tokens[1]!r} missing")
            problems += [f"{where}: {p}" for p in _check_paths(tokens[1:])]
    return problems


def main(argv: list[str] | None = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    if arguments:
        files = [Path(argument) for argument in arguments]
    else:
        files = [REPO_ROOT / "README.md"]
        files += sorted((REPO_ROOT / "docs").glob("*.md"))
    problems: list[str] = []
    for file in files:
        problems += check_file(file)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"check_readme: FAIL — {len(problems)} drifted example(s)")
        return 1
    print(f"check_readme: OK — {len(files)} file(s) audited")
    return 0


if __name__ == "__main__":
    sys.exit(main())
