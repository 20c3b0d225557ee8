"""Reference code that only the tests read, kept out of the package."""

from qtelegraph.cli import RunConfig, parse_document, resolve_config


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key/value config document."""
    return resolve_config(parse_document(text))
