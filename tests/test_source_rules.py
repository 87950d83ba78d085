"""Rules on the package's source text, checked line by line over
src/tdcae: each names a call that the package makes in one place or not
at all, and why."""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tdcae"

# (pattern, the one file allowed to match or None, reason, a line the
# pattern must catch).
RULES = {
    "all-any": (
        r"\.(all|any)\(", None,
        "no check goes through numpy's reduction wrappers",
        "if (x > 0).all():"),
    "dot-take": (
        r"np\.(dot|take)\(", None,
        "no product or gather goes through numpy's Python-level dispatcher",
        "h = np.dot(x, w)"),
    "forward": (
        r"(?<!\w)forward\(", "nn.py",
        "tdcae.detect is the one module that runs a trained model on data",
        "latent = forward(model.encoder, x)"),
    "forward-message": (
        r"forward pass produced", "nn.py",
        "only nn.forward names a whole output; tdcae.detect names a row",
        'raise NumericError("forward pass produced non-finite output")'),
    "writelines": (
        r"writelines", None,
        "write_table writes a block of rows per call, not one call per line",
        "fh.writelines(lines)"),
    "operator-index": (
        r"operator\.index", "errors.py",
        "every integer setting is checked by errors._check_int",
        "n = operator.index(value)"),
    "names-check": (
        r"must be a (list|str), got", "preprocess.py",
        "every list of names is checked by preprocess._check_strs",
        'raise ConfigError(f"names must be a list, got {type(names).__name__}")'),
    "object-new": (
        r"object\.__new__", None,
        "every DatasetFrame is built, and checked, by its constructor",
        "frame = object.__new__(DatasetFrame)"),
}


@pytest.mark.parametrize("pattern, allowed, reason, example", RULES.values(), ids=RULES)
def test_source_keeps_the_rule(pattern, allowed, reason, example):
    rule = re.compile(pattern)
    assert rule.search(example), f"{pattern!r} misses its own example {example!r}"
    sources = sorted(SRC.rglob("*.py"))
    assert sources, f"no source files under {SRC}"
    breaches = []
    for path in sources:
        name = path.relative_to(SRC).as_posix()
        if name == allowed:
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if rule.search(line):
                breaches.append(f"{name}:{number}: {line.strip()}")
    assert not breaches, f"{reason}, but:\n" + "\n".join(breaches)
