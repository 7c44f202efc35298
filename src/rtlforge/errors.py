"""Shared exception base for the engine, and its one input-file reader.

Every module-specific exception derives from EngineError so the CLI can map
any engine failure to a single exit code and a readable message. Every
input file read whole (a spec, a config, a dataset file, a prompt template;
not the cassette, which its loader streams) is read by ``read_text``, so a
missing, unreadable or non-UTF-8 file ends in the same message whichever
module reads it.
"""


class EngineError(Exception):
    """Base class for all errors raised by rtlforge."""


def read_text(path, what: str, error: type[EngineError] = EngineError) -> str:
    """The UTF-8 text of the ``what`` file at ``path`` (a ``Path`` or an
    ``importlib.resources`` Traversable); ``error`` with ``<what> not found:
    <path>`` or ``cannot read <what> <path>: <reason>`` if it cannot be read."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
