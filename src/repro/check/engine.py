"""AST-based lint engine: rule registry, suppressions, reporters.

The engine is deliberately small: a *rule* is an object with an ``id``,
a ``rationale``, a scope predicate (:meth:`Rule.applies_to`), and a
:meth:`Rule.check` that yields :class:`Finding`\\ s for one parsed file.
Rules that need whole-project context (import-cycle detection) override
:meth:`Rule.check_project` instead and are fed every file at once.

Suppressions are inline comments, greppable and reviewable::

    lock = threading.Lock()  # repro: ignore[lock-in-lockfree-path] why...
    # repro: ignore[unsorted-set-iteration]  (applies to the next line)
    # repro: ignore-file[wall-clock-in-result-path]  benchmark driver

A pragma on a code line suppresses findings on that line; a pragma on a
comment-only line covers the next *source* line (intervening comment /
blank lines are skipped, so multi-line justifications work); ``ignore-file``
suppresses the rule for the whole file.  Every suppression is expected
to carry a short justification after the bracket (see docs/CHECKS.md).

Files that fail to parse are reported under the reserved rule id
``parse-error`` (not suppressible).
"""

from __future__ import annotations

import ast
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import CheckError

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "register_rule",
    "get_rule",
    "all_rules",
    "run_check",
    "CheckReport",
    "Suppression",
    "scan_suppressions",
    "iter_python_files",
    "PARSE_ERROR_RULE",
]

#: Reserved rule id for unparseable files; cannot be suppressed.
PARSE_ERROR_RULE = "parse-error"

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*(?P<kind>ignore-file|ignore)\[(?P<rules>[^\]]+)\]"
)
_COMMENT_ONLY_RE = re.compile(r"^\s*#")
_RULE_ID_RE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a concrete source location.

    Interprocedural rules report at the *sink* line (so the finding is
    suppressible where the flagged code lives) and attach the call /
    flow path that reached it as ``trace`` — preserved by both
    reporters."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: optional call/flow chain (root first), each entry pre-rendered
    trace: Tuple[str, ...] = ()

    def format(self) -> str:
        head = f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"
        if not self.trace:
            return head
        steps = "\n".join(f"      {i}. {s}" for i, s in enumerate(self.trace, 1))
        return f"{head}\n    via:\n{steps}"

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.trace:
            doc["trace"] = list(self.trace)
        return doc


@dataclass(frozen=True)
class Suppression:
    """One inline pragma (per rule id), with its trailing justification."""

    rule: str
    path: str
    line: int
    kind: str  # "ignore" | "ignore-file"
    justification: str


class FileContext:
    """A parsed source file plus everything rules need to inspect it."""

    def __init__(self, path: Path, *, rel: Optional[str] = None):
        self.path = path
        #: display / scope path, normalised to forward slashes
        self.rel = rel if rel is not None else path.as_posix()
        self.source = path.read_text(encoding="utf-8")
        self.lines = self.source.splitlines()
        self._tree: Optional[ast.AST] = None
        self._parse_error: Optional[SyntaxError] = None
        self._pragmas: Optional[List[Suppression]] = None
        self._line_suppressions: Dict[int, Set[str]] = {}
        self._file_suppressions: Set[str] = set()

    # -- parsing ---------------------------------------------------------
    @property
    def tree(self) -> ast.AST:
        """The module AST; raises :class:`SyntaxError` for broken files."""
        if self._tree is None:
            if self._parse_error is not None:
                raise self._parse_error
            try:
                self._tree = ast.parse(self.source, filename=str(self.path))
            except SyntaxError as exc:
                self._parse_error = exc
                raise
        return self._tree

    @property
    def module(self) -> Optional[str]:
        """Dotted module name, anchored at the ``repro`` package root
        (``None`` for files outside a ``repro`` package tree)."""
        parts = Path(self.rel).with_suffix("").parts
        if "repro" not in parts:
            return None
        anchored = parts[parts.index("repro"):]
        if anchored[-1] == "__init__":
            anchored = anchored[:-1]
        return ".".join(anchored) if anchored else None

    # -- suppressions ----------------------------------------------------
    @property
    def pragmas(self) -> List[Suppression]:
        """Every ``# repro: ignore[...]`` comment in the file, one entry
        per rule id.  Comments are found by the tokenizer, so pragma
        text inside a string or docstring is not a pragma."""
        if self._pragmas is None:
            self._pragmas = list(self._scan_pragmas())
            for supp in self._pragmas:
                if supp.kind == "ignore-file":
                    self._file_suppressions.add(supp.rule)
                    continue
                for line in (supp.line, self._covered_line(supp.line)):
                    self._line_suppressions.setdefault(line, set()).add(supp.rule)
        return self._pragmas

    def _scan_pragmas(self) -> Iterator[Suppression]:
        try:
            tokens = list(
                tokenize.generate_tokens(iter(self.source.splitlines(True)).__next__)
            )
        except (tokenize.TokenError, IndentationError, SyntaxError):
            tokens = []
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if match is None:
                continue
            ids = (r.strip() for r in match.group("rules").split(","))
            for rule_id in dict.fromkeys(r for r in ids if r):
                yield Suppression(
                    rule=rule_id,
                    path=self.rel,
                    line=tok.start[0],
                    kind=match.group("kind"),
                    justification=tok.string[match.end():].strip(),
                )

    def _covered_line(self, lineno: int) -> int:
        """The source line a pragma on *lineno* covers: its own line, or
        for a standalone pragma comment the next source line — past the
        rest of its comment block (and blanks), so a multi-line
        justification still reaches the code."""
        if not _COMMENT_ONLY_RE.match(self.lines[lineno - 1]):
            return lineno
        cursor = lineno + 1
        while cursor <= len(self.lines) and (
            _COMMENT_ONLY_RE.match(self.lines[cursor - 1])
            or not self.lines[cursor - 1].strip()
        ):
            cursor += 1
        return cursor

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if rule_id == PARSE_ERROR_RULE or not self.pragmas:
            return False
        if rule_id in self._file_suppressions:
            return True
        return rule_id in self._line_suppressions.get(line, set())

    # -- helpers for rules ----------------------------------------------
    def finding(
        self,
        rule_id: str,
        node: ast.AST,
        message: str,
        *,
        trace: Tuple[str, ...] = (),
    ) -> Finding:
        return self.finding_at(
            rule_id,
            int(getattr(node, "lineno", 1)),
            message,
            col=int(getattr(node, "col_offset", 0)) + 1,
            trace=trace,
        )

    def finding_at(
        self,
        rule_id: str,
        line: int,
        message: str,
        *,
        col: int = 1,
        trace: Tuple[str, ...] = (),
    ) -> Finding:
        return Finding(
            rule=rule_id,
            path=self.rel,
            line=line,
            col=col,
            message=message,
            trace=trace,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` (kebab-case) and ``rationale`` and implement
    either :meth:`check` (per file) or :meth:`check_project` (across all
    files).  ``scope`` is a tuple of path substrings; an empty tuple
    means every scanned file.
    """

    id: str = ""
    rationale: str = ""
    #: path fragments (posix) the rule applies to; empty = all files
    scope: Tuple[str, ...] = ()
    #: True for rules that need the whole file set at once
    project_wide: bool = False

    def applies_to(self, ctx: FileContext) -> bool:
        if not self.scope:
            return True
        return any(fragment in ctx.rel for fragment in self.scope)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    def check_project(self, ctxs: Sequence[FileContext]) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract


_REGISTRY: Dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    """Register *rule* by id (used as a decorator on instances or via a
    direct call at module import time)."""
    if not _RULE_ID_RE.match(rule.id):
        raise CheckError(f"invalid rule id {rule.id!r}: must be kebab-case")
    if rule.id == PARSE_ERROR_RULE:
        raise CheckError(f"rule id {PARSE_ERROR_RULE!r} is reserved")
    if not rule.rationale:
        raise CheckError(f"rule {rule.id!r} must document its rationale")
    if rule.id in _REGISTRY:
        raise CheckError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule


def _ensure_rules_loaded() -> None:
    # Importing the rules package registers every shipped rule exactly
    # once; user code can register more before calling run_check.
    import repro.check.rules  # noqa: F401  (import for side effect)


def get_rule(rule_id: str) -> Rule:
    _ensure_rules_loaded()
    if rule_id not in _REGISTRY:
        raise CheckError(
            f"unknown rule {rule_id!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return _REGISTRY[rule_id]


def all_rules() -> List[Rule]:
    _ensure_rules_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


@dataclass
class CheckReport:
    """Outcome of one lint run: findings plus run metadata."""

    findings: List[Finding]
    files_checked: int
    rules_run: List[str]

    @property
    def ok(self) -> bool:
        return not self.findings

    def format_text(self) -> str:
        lines = [f.format() for f in self.findings]
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_checked} file(s), "
            f"{len(self.rules_run)} rule(s)"
        )
        if self.ok:
            summary = (
                f"clean: {self.files_checked} file(s), "
                f"{len(self.rules_run)} rule(s)"
            )
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> str:
        doc = {
            "findings": [f.to_dict() for f in self.findings],
            "files_checked": self.files_checked,
            "rules_run": self.rules_run,
            "ok": self.ok,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand *paths* (files or directories) into a sorted, deduplicated
    list of ``.py`` files."""
    found: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            found.update(p for p in path.rglob("*.py") if p.is_file())
        elif path.is_file():
            found.add(path)
        else:
            raise CheckError(f"no such file or directory: {path}")
    return sorted(found)


def _relative_to_cwd(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_check(
    paths: Sequence[str | Path],
    *,
    rules: Optional[Sequence[str]] = None,
) -> CheckReport:
    """Lint every ``.py`` file under *paths* with the selected rules.

    ``rules=None`` runs every registered rule; otherwise only the named
    ids (unknown ids raise :class:`~repro.errors.CheckError`).  Findings
    are sorted by path, line, column, rule id.
    """
    _ensure_rules_loaded()
    selected = (
        all_rules() if rules is None else [get_rule(rule_id) for rule_id in rules]
    )
    files = iter_python_files([Path(p) for p in paths])
    findings: List[Finding] = []
    ctxs: List[FileContext] = []
    for path in files:
        ctx = FileContext(path, rel=_relative_to_cwd(path))
        try:
            ctx.tree
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    path=ctx.rel,
                    line=int(exc.lineno or 1),
                    col=int(exc.offset or 0) + 1,
                    message=f"cannot parse: {exc.msg}",
                )
            )
            continue
        ctxs.append(ctx)
    by_rel = {ctx.rel: ctx for ctx in ctxs}
    for rule in selected:
        in_scope = [ctx for ctx in ctxs if rule.applies_to(ctx)]
        if rule.project_wide:
            raw: Iterable[Finding] = rule.check_project(in_scope)
        else:
            raw = (finding for ctx in in_scope for finding in rule.check(ctx))
        for finding in raw:
            owner = by_rel.get(finding.path)
            if owner is not None and not owner.is_suppressed(
                finding.rule, finding.line
            ):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return CheckReport(
        findings=findings,
        files_checked=len(files),
        rules_run=[rule.id for rule in selected],
    )


def scan_suppressions(ctxs: Sequence[FileContext]) -> List[Suppression]:
    """Every inline pragma in *ctxs*, with its trailing justification,
    sorted by rule, path and line."""
    return sorted(
        (supp for ctx in ctxs for supp in ctx.pragmas),
        key=lambda s: (s.rule, s.path, s.line),
    )
