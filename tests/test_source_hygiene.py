"""Source hygiene of src/mhd2d: no module-level name that nothing uses,
no compiled export that nothing binds, and each input rule written once."""

import ast
import pathlib
import re

import mhd2d

SRC = pathlib.Path(mhd2d.__file__).parent
TEXTS = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}


def _uses(name):
    pattern = r"\b%s\b" % re.escape(name)
    return sum(len(re.findall(pattern, text)) for text in TEXTS.values())


def _exported(text):
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_module_level_private_name_is_used():
    dead = []
    for module, text in TEXTS.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{module}:{name}" for name in names
                     if name.startswith("_") and not name.startswith("__") and _uses(name) == 1]
    assert dead == [], "private names defined but used nowhere else in src/"


def test_the_kernel_library_exports_only_what_the_loader_binds():
    # non-static definitions start a line; _kernels._SIGNATURES binds each name
    from mhd2d import _kernels

    text = (SRC / "_kernels.c").read_text()
    exported = re.findall(r"^(?!static\b|typedef\b)[a-z][\w \t*]*?\b(\w+)\(", text, re.M)
    assert sorted(exported) == sorted(_kernels._SIGNATURES)


def test_every_public_name_of_a_submodule_is_used_or_exported():
    package = set(_exported(TEXTS["__init__.py"]))
    # the definition and the __all__ entry are two uses
    dead = [f"{module}:{name}" for module, text in TEXTS.items() for name in _exported(text)
            if _uses(name) <= 2 and name not in package]
    assert dead == [], "public names used nowhere else in src/ and not exported by mhd2d"


RULE_MESSAGES = ("at least 4 cells", "mu must be > 0, got mu=", "lambda + 2*mu must be > 0",
                 "gamma must be >= 1", "Gamma must exceed max(4, gamma)", "cfl must lie in (0, 1]")


def test_the_cell_count_rule_is_written_once():
    # and so is each admissibility rule of the parameters
    counts = {m: sum(text.count(m) for text in TEXTS.values()) for m in RULE_MESSAGES}
    assert counts == dict.fromkeys(RULE_MESSAGES, 1)
