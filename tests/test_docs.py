"""Docs job: the runnable snippets in ``docs/serving.md`` must execute.

Two layers, mirroring what the CI docs job runs:

* the Python snippets are doctests (``python -m doctest docs/serving.md``);
* every ``serve``/``sweep`` command documented in a ```bash fence (of
  the serving docs and the README) is smoke-run in-process through
  :func:`repro.cli.main`, with ``--requests 6`` appended so the documented
  flags are exercised on a tiny trace (argparse lets a later occurrence of
  an option override an earlier one).

A documented command that stops parsing, raises, or exits non-zero fails
the suite — broken examples cannot ship.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import main

DOCS = Path(__file__).resolve().parent.parent / "docs"
SERVING_MD = DOCS / "serving.md"
ARCHITECTURE_MD = DOCS / "ARCHITECTURE.md"
PERFORMANCE_MD = DOCS / "performance.md"
README = Path(__file__).resolve().parent.parent / "README.md"


def _documented_cli_commands():
    """``serve``/``sweep`` invocations inside ```bash fences of the
    serving-facing docs and the README (whose other fences document the
    paper-artifact subcommands)."""
    commands = []
    for doc in (SERVING_MD, PERFORMANCE_MD, README):
        text = doc.read_text()
        for fence in re.findall(r"```bash\n(.*?)```", text, flags=re.DOTALL):
            for line in fence.splitlines():
                line = line.strip()
                if line.startswith("PYTHONPATH=src python -m repro.cli"):
                    # drop "PYTHONPATH=src python -m repro.cli"
                    argv = shlex.split(line, comments=True)[4:]
                    if doc is not README or argv[0] in ("serve", "sweep"):
                        commands.append(argv)
    return commands


def test_docs_exist_and_are_linked_from_readme():
    assert SERVING_MD.is_file()
    assert ARCHITECTURE_MD.is_file()
    assert PERFORMANCE_MD.is_file()
    readme = README.read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/serving.md" in readme
    assert "docs/performance.md" in readme


def test_performance_md_cross_links():
    """performance.md is reachable from the architecture overview and
    names the artifacts it cites, so the numbers stay auditable."""
    assert "performance.md" in ARCHITECTURE_MD.read_text()
    text = PERFORMANCE_MD.read_text()
    assert "BENCH_serving_perf.json" in text
    assert "test_bench_perf.py" in text
    assert "--metrics-mode streaming" in text


def test_serving_md_doctests():
    results = doctest.testfile(str(SERVING_MD), module_relative=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_serving_md_documents_every_serve_surface():
    text = SERVING_MD.read_text()
    for flag in ("--kv-mode", "--kv-block-size", "--preemption-mode",
                 "--kv-budget-mib", "--policy", "--trace",
                 "--prefill-mode", "--mixed-step-token-budget",
                 "--instances", "--router", "--trace-file",
                 "--swap-priority", "--workers", "--pricing-cache",
                 "--grid", "--compare policy", "--compare kv",
                 "--compare prefill", "--compare router",
                 "--compare disaggregation"):
        assert flag in text, f"docs/serving.md must document {flag}"


@pytest.mark.parametrize("argv", _documented_cli_commands(),
                         ids=lambda argv: " ".join(argv))
def test_documented_cli_commands_run(argv, capsys):
    assert argv[0] in ("serve", "sweep"), \
        "the serving-facing docs document the serve/sweep subcommands"
    exit_code = main(argv + ["--requests", "6"])
    captured = capsys.readouterr()
    assert exit_code == 0, captured.err
    assert captured.out.strip(), "documented command printed nothing"


def test_documented_commands_were_found():
    """Guard the extractor itself: if the fences are reformatted and no
    commands are collected, the smoke test above would silently vanish."""
    assert len(_documented_cli_commands()) >= 5
