"""Only modules that mention ``reprolint`` are tokenized for pragmas.

A suppression pragma is a comment holding the word ``reprolint``, so a
module without the word has the empty table and is never tokenized.
The oracle below is the scan the analyzer ran before the shortcut:
tokenize every module and match every comment.
"""

from __future__ import annotations

import io
import tokenize

import pytest

from repro.analysis import source
from repro.analysis.source import SourceModule, SuppressionTable

from tests.analysis.conftest import SRC

ROOT = SRC.parent

#: Every Python file the analyzer is pointed at in this repository.
FILES = sorted(
    path
    for tree in ("src", "tests", "bench", "scripts", "benchmarks", "examples")
    for path in (ROOT / tree).rglob("*.py")
)


def _tokenize_everything(text: str) -> SuppressionTable:
    table = SuppressionTable()
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type != tokenize.COMMENT:
                continue
            file_match = source._FILE_PRAGMA.search(token.string)
            if file_match:
                for code in source._parse_codes(file_match.group(1)):
                    table.file_wide.add(code)
                    table.file_wide_lines.setdefault(code, token.start[0])
                continue
            line_match = source._LINE_PRAGMA.search(token.string)
            if line_match:
                table.by_line.setdefault(token.start[0], set()).update(
                    source._parse_codes(line_match.group(1))
                )
    except tokenize.TokenError:
        pass
    return table


def test_every_repository_module_gets_the_fully_tokenized_table():
    assert len(FILES) > 300
    for path in FILES:
        text = path.read_text(encoding="utf-8")
        assert SuppressionTable.from_source(text) == _tokenize_everything(text), path


def test_only_modules_that_mention_reprolint_are_tokenized(monkeypatch):
    tokenized = []
    generate = tokenize.generate_tokens

    def spy(readline):
        tokenized.append(readline)
        return generate(readline)

    monkeypatch.setattr(source.tokenize, "generate_tokens", spy)
    texts = [path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py"))]
    for text in texts:
        SourceModule.from_source(text)
    mentioning = sum("reprolint" in text for text in texts)
    assert 0 < mentioning < len(texts) // 2
    assert len(tokenized) == mentioning


def test_a_pragma_inside_a_string_literal_gives_the_empty_table():
    text = 'HELP = "silence a line with # reprolint: disable=R101"\nx = 1\n'
    assert SuppressionTable.from_source(text) == SuppressionTable()


@pytest.mark.parametrize(
    "text",
    ['x = """reprolint\n', "x = (1,  # reprolint: disable=R101\n"],
    ids=["unterminated-string", "unclosed-paren"],
)
def test_a_tokenize_error_keeps_the_pragmas_read_before_it(text):
    assert SuppressionTable.from_source(text) == _tokenize_everything(text)

