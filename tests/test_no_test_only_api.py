"""Every public member of ``src/repro`` has a reader besides its own tests.

The scan walks ``src/repro`` with :mod:`ast` for public top-level functions
and classes, and for the public methods and properties of public classes.
A member is read when its name appears as an identifier -- a name, an
attribute, an imported name, or a word of a string literal that is not a
docstring -- in ``src/``, ``examples/``, ``perfbench/`` or ``benchmarks/``,
outside the member's own definition and outside re-export lines
(``from ... import`` in an ``__init__`` and ``__all__``), or as a word in a
CI workflow.  ``tests/`` is not searched: a member only tests read is code
kept alive for its own sake.

A method or property counts as read only through an attribute
(``x.name``) or a string; a bare name is a local variable, not a method.
Matching is by name alone, so a member is read wherever any same-named
member is.  The scan can therefore miss dead code but never flags live
code.  :data:`KEEP` names the members kept on purpose although only tests
read them, each with its reason.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
READER_DIRS = ("src", "examples", "perfbench", "benchmarks")
WORKFLOWS = ROOT / ".github" / "workflows"
WORD = re.compile(r"[A-Za-z_]\w*")

#: Members only tests read, kept on purpose: dotted path under ``repro``
#: -> why it stays.
KEEP = {
    "archs.gpp.cpu.ExecutionStats.cpi": (
        "measurement instrument: cycles per instruction of an ISS run"
    ),
    "archs.gpp.cpu.WordMemory.nonzero_items": (
        "observation hook: the GPP engine-equivalence tests compare "
        "memories through it"
    ),
    "archs.montium.tile.MontiumTile.alu_utilisation": (
        "observation hook: the Montium block/step equivalence tests and "
        "the Table 6 test read it"
    ),
    "core.planner.DecimationPlan.as_tuple": (
        "paper ablation: finds the paper's 16 x 21 x 8 plan among the "
        "enumerated ones"
    ),
    "core.planner.enumerate_plans": (
        "paper ablation: backs the decimation-plan ablation"
    ),
    "dsp.cic.cic_reference_output": (
        "oracle: the convolution the CIC decimators are tested against"
    ),
    "dsp.fir.FIRFilter": (
        "oracle: the direct-form filter the polyphase decimators are "
        "tested against"
    ),
    "dsp.metrics.enob": "measurement instrument: effective bits of a tone",
    "dsp.metrics.passband_ripple_db": (
        "measurement instrument: the filter-design tests' passband ripple"
    ),
    "dsp.metrics.sfdr_db": (
        "paper ablation: the NCO LUT-size ablation measures SFDR with it"
    ),
    "dsp.metrics.stopband_attenuation_db": (
        "measurement instrument: the filter-design tests' stopband rejection"
    ),
    "dsp.metrics.tone_power_db": "measurement instrument: power of a tone",
    "dsp.nco.NCO.actual_frequency_hz": (
        "measurement instrument: the frequency after control-word rounding, "
        "which the mixer tests tune their float reference to"
    ),
    "dsp.response.chain_response": (
        "measurement instrument: the theoretical response of the paper's "
        "CIC2/CIC5/FIR chain"
    ),
    "dsp.signals.gsm_like_burst": (
        "measurement instrument: the GSM stimulus the GC4016 tests drive"
    ),
    "fixedpoint.qformat.QFormat.max_value": (
        "measurement instrument: the real range through which the tests "
        "check Q-notation scaling"
    ),
    "fixedpoint.qformat.QFormat.min_value": (
        "measurement instrument: the real range through which the tests "
        "check Q-notation scaling"
    ),
    "simkernel.scheduler.Simulator.attach_trace": (
        "observation hook: the RTL cycle/block equivalence tests trace "
        "wires through it"
    ),
    "simkernel.trace.ActivityReport.by_name": (
        "observation hook: the RTL activity tests read per-component "
        "toggles through it"
    ),
    "simkernel.wire.Wire.commit": (
        "oracle: the per-wire latch the compiled step plans and block-mode "
        "toggle counts are tested against"
    ),
    "sweep.engine.evaluate_point": (
        "oracle: one grid point through either engine, which the sweep "
        "batch == scalar tests compare"
    ),
}


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring nodes of every module, class and function."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _is_all(node: ast.AST) -> bool:
    targets = (
        node.targets
        if isinstance(node, ast.Assign)
        else [node.target]
        if isinstance(node, (ast.AugAssign, ast.AnnAssign))
        else []
    )
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _reads(path: Path):
    """Yield ``(word, line, bare)`` for each identifier the file reads;
    ``bare`` marks a plain name, which cannot read a method."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = _docstrings(tree)
    skipped = set()
    for node in ast.walk(tree):
        if _is_all(node) or (
            path.name == "__init__.py" and isinstance(node, ast.ImportFrom)
        ):
            skipped.update(id(n) for n in ast.walk(node))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.alias):
            for word in WORD.findall(node.name):
                yield word, node.lineno, False
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            for word in WORD.findall(node.value):
                yield word, node.lineno, False


def _span(node: ast.AST) -> range:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return range(first, node.end_lineno + 1)


def public_members() -> dict[str, tuple[Path, str, bool, list[range]]]:
    """Dotted path -> (file, name, is a method, definition line spans)."""
    members: dict[str, tuple[Path, str, bool, list[range]]] = {}

    def add(path, dotted, name, node, method=False):
        members.setdefault(dotted, (path, name, method, []))[3].append(_span(node))

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        module = module.removesuffix(".__init__").removesuffix("__init__")
        prefix = f"{module}." if module else ""
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for node in tree.body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            add(path, f"{prefix}{node.name}", node.name, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                        add(
                            path, f"{prefix}{node.name}.{item.name}",
                            item.name, item, method=True,
                        )
    return members


def unread_members() -> list[str]:
    """Dotted paths of the public members nothing outside ``tests/`` reads."""
    readers: dict[str, list[tuple[Path, int, bool]]] = {}
    for top in READER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for word, line, bare in _reads(path):
                readers.setdefault(word, []).append((path, line, bare))
    workflow_words = set()
    for path in sorted(WORKFLOWS.glob("*.y*ml")):
        for line in path.read_text().splitlines():
            line = line.strip()
            # Comments and step names are prose, not calls.
            if not line.startswith(("#", "name:", "- name:")):
                workflow_words.update(WORD.findall(line))

    unread = []
    for dotted, (path, name, method, spans) in public_members().items():
        if name in workflow_words:
            continue
        if not any(
            (where != path or not any(line in span for span in spans))
            and not (method and bare)
            for where, line, bare in readers.get(name, ())
        ):
            unread.append(dotted)
    return unread


def test_every_public_member_has_a_reader_outside_tests():
    unread = sorted(set(unread_members()) - set(KEEP))
    assert not unread, (
        "public members that only tests read (delete them with their "
        "tests, or add them to KEEP with a reason):\n  " + "\n  ".join(unread)
    )


def test_keep_lists_only_existing_test_only_members():
    unread = set(unread_members())
    stale = sorted(name for name in KEEP if name not in unread)
    assert not stale, (
        "KEEP entries that no longer exist or now have a reader outside "
        "tests (drop them from KEEP):\n  " + "\n  ".join(stale)
    )
