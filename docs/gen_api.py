"""Generate ``docs/api.md`` from the public seam's docstrings.

Usage (from the repo root, ``src`` on the path)::

    PYTHONPATH=src python docs/gen_api.py            # rewrite docs/api.md
    PYTHONPATH=src python docs/gen_api.py --check    # exit 1 on drift (CI)

The target list below *is* the public seam: the session façade, the spec
format, the run result, the change algebra, and the serving client.  The
generator imports each class and renders its docstring plus every public
method's signature and summary line, so ``api.md`` can never drift from
the code silently — the ``docs-check`` CI job regenerates it with
``--check`` and fails on any difference.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

#: (module, class name, one-line role) — rendered in this order.
TARGETS: list[tuple[str, str, str]] = [
    (
        "repro.api.session",
        "Session",
        "the front door: run phases, update, query, on any engine",
    ),
    (
        "repro.api.spec",
        "ScenarioSpec",
        "the declarative, JSON-round-trippable scenario description",
    ),
    (
        "repro.api.result",
        "RunResult",
        "the one shape every run comes back in",
    ),
    (
        "repro.coordination.changeset",
        "Change",
        "the one change record: run changes, reports, served updates, reconciliation",
    ),
    (
        "repro.serve.client",
        "ServeClient",
        "the dependency-free HTTP client for the serving front-end",
    ),
    (
        "repro.serve.client",
        "EventStream",
        "the WebSocket event-channel client",
    ),
    (
        "repro.serve.client",
        "ServeError",
        "the typed error every non-2xx serving answer raises",
    ),
    (
        "repro.serve.server",
        "ServerHandle",
        "run a real server on a background thread (tests, notebooks)",
    ),
]

HEADER = """\
# API reference

*Generated by `PYTHONPATH=src python docs/gen_api.py` from the public
seam's docstrings — do not edit by hand; CI regenerates it with
`--check` and fails on drift.*

The seam in one breath: build a [`ScenarioSpec`](#scenariospec)
([scenarios.md](scenarios.md)), open a [`Session`](#session) on it
([engines.md](engines.md) explains which engine you get), run phases
and read [`RunResult`](#runresult)s; what changes — between runs, across
the worker boundary, in a served update — is a [`Change`](#change)
([incremental.md](incremental.md)); put the
network behind the serving front-end ([serving.md](serving.md)) and
drive it with [`ServeClient`](#serveclient).
"""


def _first_paragraph(text: str | None) -> str:
    if not text:
        return "*(undocumented)*"
    return " ".join(text.split("\n\n", 1)[0].split())


def _signature(obj: object) -> str:
    try:
        return str(inspect.signature(obj))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return "(...)"


def _public_members(cls: type) -> list[tuple[str, object, str]]:
    """(name, member, kind) for the class's own public API, in source order."""
    members: list[tuple[str, object, str]] = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            members.append((name, member, "property"))
        elif isinstance(member, (staticmethod, classmethod)):
            members.append((name, member.__func__, type(member).__name__))
        elif inspect.isfunction(member):
            members.append((name, member, "method"))
    return members


def render_class(module_name: str, class_name: str, role: str) -> str:
    cls = getattr(importlib.import_module(module_name), class_name)
    lines = [f"## {class_name}", ""]
    lines.append(f"*{role}* — `{module_name}.{class_name}`")
    lines.append("")
    doc = inspect.getdoc(cls)
    if doc:
        lines.append(doc)
        lines.append("")
    if dataclasses.is_dataclass(cls):
        lines.append("Fields:")
        lines.append("")
        for field in dataclasses.fields(cls):
            annotation = field.type if isinstance(field.type, str) else str(field.type)
            lines.append(f"- `{field.name}: {annotation}`")
        lines.append("")
    members = _public_members(cls)
    if members:
        for name, member, kind in members:
            if kind == "property":
                summary = _first_paragraph(inspect.getdoc(member))
                lines.append(f"- `{name}` *(property)* — {summary}")
            else:
                prefix = f"{kind}: " if kind == "classmethod" else ""
                summary = _first_paragraph(inspect.getdoc(member))
                lines.append(
                    f"- {prefix}`{name}{_signature(member)}` — {summary}"
                )
        lines.append("")
    return "\n".join(lines)


def generate() -> str:
    sections = [HEADER]
    sections.extend(render_class(*target) for target in TARGETS)
    return "\n".join(sections).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    arguments = sys.argv[1:] if argv is None else argv
    check = "--check" in arguments
    output = Path(__file__).resolve().parent / "api.md"
    text = generate()
    if check:
        current = output.read_text(encoding="utf-8") if output.exists() else ""
        if current != text:
            print(
                "docs/api.md is stale — regenerate with "
                "'PYTHONPATH=src python docs/gen_api.py'",
                file=sys.stderr,
            )
            return 1
        print("docs/api.md is up to date")
        return 0
    output.write_text(text, encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
