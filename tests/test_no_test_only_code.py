"""The package holds no code that only the tests call.

Every function and method defined in src/ivgf, dunders aside, must be
named as a whole word somewhere in src/ivgf or bench/ other than its own
`def` line: by a call, a reference, or at least a docstring that says what
uses it. A helper left behind when its last caller went fails here.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ivgf"


def _defined_names(text):
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name


def _word_counts(text):
    """(times each word appears, times each word follows `def`) in one source.

    Attributes of modules from outside the package, such as `struct.pack`
    or `np.dot`, are not counted, so they cannot stand in for a package
    function of the same name.
    """
    external = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Import)
                for alias in node.names if not alias.name.startswith("ivgf")]
    if external:
        text = re.sub(rf"\b(?:{'|'.join(external)})\.\w+", "", text)
    return Counter(re.findall(r"\w+", text)), Counter(re.findall(r"\bdef\s+(\w+)", text))


def _named_elsewhere(name, counts):
    """Whether some source names `name` more often than it defines it."""
    return any(words[name] > defs[name] for words, defs in counts)


def test_every_package_function_is_named_by_the_package_or_the_benchmark():
    package = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))]
    counts = [_word_counts(text) for text in [*package.values(), *bench]]
    unnamed = [f"{file}: {name}" for file, text in package.items()
               for name in _defined_names(text) if not _named_elsewhere(name, counts)]
    assert not unnamed, f"defined in src/ivgf but named nowhere else in src/ivgf or bench/: {unnamed}"


def test_a_function_named_only_by_its_definition_is_found():
    package = "import struct\n\nclass Store:\n    def pack(self):\n        return struct.pack('<I', 1)\n\n    def items(self):\n        pass\n"
    bench = "for name, p in store.items():\n    pass\n"
    counts = [_word_counts(package), _word_counts(bench)]
    assert [name for name in _defined_names(package) if not _named_elsewhere(name, counts)] == ["pack"]
