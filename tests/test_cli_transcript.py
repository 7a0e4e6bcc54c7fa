"""Golden CLI transcript: about 200 queries drawn from the benchmark's
cli-mixed generator (seeds 3 and 17, block 0, without the two heavy
kinds), each with the exit code, stdout and stderr it gave when it was
recorded.  Replayed in-process under the default config."""

import json
from pathlib import Path

import pytest

from primework.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "cli_transcript.json")
                   .read_text())


@pytest.mark.parametrize("case", CASES,
                         ids=[f"{i:03d}-{c['argv'][0]}" for i, c in enumerate(CASES)])
def test_cli_transcript_replays(capsys, monkeypatch, case):
    monkeypatch.delenv("WORKBENCH_CONFIG", raising=False)
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["exit"], case["stdout"], case["stderr"])
