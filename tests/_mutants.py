"""Mutants for the differential suites: code recompiled from edited source.

A differential suite proves its corpus can catch a bug by running the
corpus against a *mutant* — the code under test with one pinned source
fragment edited — and asserting that it diverges from the oracle.  An
edit that no longer applies fails loudly instead of letting the suite
pass for the wrong reason.  The module under test is never touched: a
mutant is a fresh module object, or a function compiled into a copy of
its module's globals.
"""

import inspect
import textwrap
from types import FunctionType, ModuleType
from typing import Callable

__all__ = ["replace_once", "mutant_module", "mutant_function"]

Edit = Callable[[str], str]


def replace_once(source: str, old: str, new: str) -> str:
    """``source`` with ``old``, which must occur exactly once, replaced."""
    assert source.count(old) == 1, f"mutation site not found once: {old!r}"
    return source.replace(old, new)


def _edited(source: str, edit: Edit) -> str:
    edited = edit(source)
    assert edited != source, "the mutation no longer applies: update the test"
    return edited


def mutant_module(module: ModuleType, edit: Edit) -> ModuleType:
    """``module`` recompiled from its source after ``edit``."""
    name = module.__name__.rpartition(".")[2] + "_mutant"
    mutated = ModuleType(name)
    source = _edited(inspect.getsource(module), edit)
    exec(compile(source, f"<{name}>", "exec"), vars(mutated))
    return mutated


def mutant_function(function: FunctionType, edit: Edit) -> FunctionType:
    """``function`` (a module-level function or a method) recompiled
    from its dedented source after ``edit``, against a copy of its
    module's globals."""
    namespace = dict(vars(inspect.getmodule(function)))
    source = _edited(textwrap.dedent(inspect.getsource(function)), edit)
    exec(compile(source, f"<{function.__name__} mutant>", "exec"), namespace)
    return namespace[function.__name__]
