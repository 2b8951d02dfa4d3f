"""Corpus files for tests, written one ``record_to_line`` line per record as the subcommands write them."""

from __future__ import annotations

from sumnoise.corpus import record_to_line


def write_records(records, path):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record_to_line(record) + "\n")
