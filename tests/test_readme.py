"""The README's Python examples run as written, in order, in one namespace,
so a renamed or removed API cannot leave a stale example behind."""

import re
from pathlib import Path

import xormpe
from xormpe.benchgen import ChainSpec, gen_chain
from xormpe.executor import Observer
from xormpe.formula import format_formula

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) >= 2
    (tmp_path / "instance.xcnf").write_text(format_formula(*gen_chain(ChainSpec(30, 4, 1))))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "diagram nodes" in capsys.readouterr().out


def test_readme_lists_every_observer_event():
    # every backticked bare name in the Observer paragraph that the package
    # does not export is an event; setup only hands over the manager
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    [paragraph] = [p for p in paragraphs if "a subclass of `Observer`" in p]
    named = set(re.findall(r"`(\w+)`", paragraph)) - set(xormpe.__all__)
    events = {name for name in vars(Observer)
              if not name.startswith("_") and name != "setup"}
    assert named == events
