"""Benchmark problems: the JSONL schema and dataset layout adapters.

Native format is JSON Lines, one object per problem:

    {"task_id": "...", "spec": "...", "golden_testbench": "...",
     "reference_solution": "...", "module_interface": "..."}

Only ``task_id`` and a non-blank ``spec`` are required; every known field
that is present must be a string, and unknown fields are ignored. The
HumanEval-style JSONL of VerilogEval v1 is read by the same loader: a
per-format table (``_JSONL_KEYS``) names the keys that hold the spec (the
first non-blank of several wins), the golden bench, the reference and the
module interface. VerilogEval v2's flat directory of ``*_prompt.txt`` /
``*_test.sv`` / ``*_ref.sv`` files has its own loader. Every layout's task
ids pass the same check: a relative path in normal form without a ``..``
part; and a set of any layout that holds no problem is refused.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path, PurePath
from typing import Optional

from .errors import EngineError, read_text

DATASET_FORMATS = ("jsonl", "verilogeval-v1", "verilogeval-v2")


class ParseError(EngineError):
    def __init__(self, message: str, line: Optional[int] = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


class DuplicateTaskId(EngineError):
    def __init__(self, task_id: str):
        super().__init__(f"duplicate task_id: {task_id!r}")
        self.task_id = task_id


@dataclass(frozen=True)
class Problem:
    task_id: str
    spec: str
    golden_testbench: Optional[str] = None
    reference_solution: Optional[str] = None
    module_interface: Optional[str] = None

    def __post_init__(self):
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if not (self.spec or "").strip():
            raise ValueError("spec must be non-empty")
        if not (self.golden_testbench or "").strip():  # a blank bench is no bench
            object.__setattr__(self, "golden_testbench", None)

    def spec_text(self) -> str:
        """Specification as handed to the agents, with the port stub inlined."""
        if self.module_interface:
            return f"{self.spec}\n\nModule interface:\n{self.module_interface}"
        return self.spec


def _check_unique(problems: list[Problem]) -> list[Problem]:
    seen: set[str] = set()
    for p in problems:
        if p.task_id in seen:
            raise DuplicateTaskId(p.task_id)
        seen.add(p.task_id)
    return problems


def _json_objects(path: Path):
    """Yield (line_no, object) for each non-blank line of a JSON Lines file."""
    for line_no, line in enumerate(read_text(path, "dataset file", ParseError).split("\n"), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON ({exc.msg})", line_no) from exc
        if not isinstance(obj, dict):
            raise ParseError("problem entry must be a JSON object", line_no)
        yield line_no, obj


def _text(obj: dict, key: str, line_no: int) -> Optional[str]:
    """An optional text field: absent or null is None, anything else a string."""
    value = obj.get(key)
    if value is not None and not isinstance(value, str):
        raise ParseError(f"field {key!r} must be a string", line_no)
    return value


def _task_id(value, line_no: Optional[int] = None, file: Optional[Path] = None) -> str:
    """A problem's task id. A bench writes each task's runs under a directory
    named by it, so an empty or absolute id, one with a ``..`` part, and one
    that names its directory in another spelling (``a/.``, ``./a``, ``a//b``,
    ``a/``, ``.``) are refused, since two such ids would share a directory;
    the error names the entry's line or the file the id came from."""
    where = f"{file}: " if file else ""
    if not value:
        raise ParseError(f"{where}missing required field 'task_id'", line_no)
    task_id, path = value, PurePath(value)
    if path.is_absolute() or ".." in path.parts or not path.parts or path.as_posix() != task_id:
        raise ParseError(
            f"{where}task_id {task_id!r} must be a normalized relative path without '..'", line_no
        )
    return task_id


# The keys of each JSON Lines format: the spec's (the first non-blank wins),
# then the golden bench's, the reference's and the module interface's.
_JSONL_KEYS = {
    "jsonl": (("spec",), "golden_testbench", "reference_solution", "module_interface"),
    "verilogeval-v1": (
        ("detail_description", "description", "spec"), "test", "canonical_solution", "prompt"
    ),
}


def _load_jsonl(path: Path, spec_keys, bench, reference, interface) -> list[Problem]:
    problems = []
    for line_no, obj in _json_objects(path):
        task_id = _task_id(_text(obj, "task_id", line_no), line_no)
        specs = [_text(obj, key, line_no) for key in spec_keys]
        spec = next((text for text in specs if text and text.strip()), None)
        if spec is None:
            raise ParseError(f"missing required field {' or '.join(map(repr, spec_keys))}", line_no)
        problems.append(
            Problem(
                task_id=task_id,
                spec=spec,
                golden_testbench=_text(obj, bench, line_no),
                reference_solution=_text(obj, reference, line_no),
                module_interface=_text(obj, interface, line_no),
            )
        )
    return problems


def _load_flat_dir(path: Path) -> list[Problem]:
    """Flat directory of <task>_prompt.txt with optional _test.sv / _ref.sv /
    _ifc.txt siblings."""
    problems = []
    for prompt_file in sorted(path.glob("*_prompt.txt")):
        task_id = _task_id(prompt_file.name[: -len("_prompt.txt")], file=prompt_file)
        spec = read_text(prompt_file, "dataset file", ParseError)
        if not spec.strip():
            raise ParseError(f"empty prompt file for task {task_id!r}")

        def sibling(suffix: str) -> Optional[str]:
            candidate = path / f"{task_id}{suffix}"
            return read_text(candidate, "dataset file", ParseError) if candidate.exists() else None

        problems.append(
            Problem(
                task_id=task_id,
                spec=spec,
                golden_testbench=sibling("_test.sv") or sibling("_test.v"),
                reference_solution=sibling("_ref.sv") or sibling("_ref.v"),
                module_interface=sibling("_ifc.txt"),
            )
        )
    return problems


def load_problems(path: str | Path, dataset_format: str = "jsonl") -> list[Problem]:
    """Load a problem set; raises ParseError / DuplicateTaskId on bad input,
    and ParseError on a set that holds no problem."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"dataset not found: {path}")
    if dataset_format in _JSONL_KEYS:
        problems = _load_jsonl(path, *_JSONL_KEYS[dataset_format])
    elif dataset_format == "verilogeval-v2":
        problems = _load_flat_dir(path)
    else:
        raise ParseError(f"unknown dataset format: {dataset_format!r}")
    if not problems:
        raise ParseError(f"no problems in dataset {path}")
    return _check_unique(problems)
