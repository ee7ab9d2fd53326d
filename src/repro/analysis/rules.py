"""AST rule implementations behind ``python -m repro.analysis.lint``.

Every rule encodes an invariant this codebase has already relied on (and in
two documented cases, already broken).  Rules are deliberately conservative:
they flag the *shapes* of past bugs — rogue RNG construction, integer
stream tags, closures shipped to executors — rather than attempting general
dataflow analysis, so a clean run stays meaningful and a failure is always
actionable.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field

from .registry import StaticRegistry

__all__ = ["FileContext", "Violation", "RULES", "check_file",
           "registry_violations", "AllowDirective",
           "parse_allow_directives", "apply_allow_directives"]

#: rule id -> one-line description (surfaced by ``--list-rules``).
RULES: dict[str, str] = {
    "REPRO101": "RNG construction (numpy.random.*, stdlib random) outside "
                "seir/seeding.py",
    "REPRO102": "stream tag fed to mix_seed(s)/ancillary_generator is not a "
                "registered named constant",
    "REPRO103": "stream-tag constant assigned without registering it in "
                "STREAM_DOMAINS",
    "REPRO104": "two stream registrations claim the same (domain, tag)",
    "REPRO201": "wall-clock read (time.time, datetime.now, ...) in a "
                "deterministic subsystem",
    "REPRO202": "unordered set iteration feeding arrays/sequences in a "
                "deterministic subsystem",
    "REPRO203": "invalid, reason-less, or unused '# repro-allow' directive",
    "REPRO301": "lambda or nested function dispatched through an Executor",
    "REPRO302": "raw tuple/dict executor payload instead of a declared "
                "dataclass task",
    "REPRO401": "incomplete signature annotations in a typed-core module",
    # REPRO50x/51x are emitted by the interprocedural pass
    # (python -m repro.analysis.flow), not by the per-file lint; they live
    # in the shared catalogue so --list-rules and repro-allow validation
    # cover both tools.
    "REPRO501": "numpy.random.Generator cached in a module global "
                "(directly or via a helper's return value)",
    "REPRO502": "numpy.random.Generator stored on long-lived service/"
                "supervisor state",
    "REPRO503": "numpy.random.Generator crossing an Executor payload "
                "boundary",
    "REPRO511": "wall-clock read reachable from an Executor dispatch "
                "target",
    "REPRO512": "ambient RNG (stdlib random, legacy numpy.random, "
                "unseeded default_rng) reachable from a dispatch target",
    "REPRO513": "mutable module-global write reachable from a dispatch "
                "target",
    "REPRO514": "filesystem access outside declared stores reachable from "
                "a dispatch target",
}

#: Constant-name shapes that denote stream tags (REPRO103).
_STREAM_CONST_RE = re.compile(r"^_[A-Z0-9_]*_STREAM$|^_PURPOSE_[A-Z0-9_]+$")

#: Wall-clock callables rejected in deterministic subsystems (REPRO201).
_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Array/sequence builders whose input order becomes data (REPRO202).
_ORDER_SENSITIVE_NUMPY = {
    "numpy.array", "numpy.asarray", "numpy.asanyarray", "numpy.fromiter",
    "numpy.stack", "numpy.concatenate",
}
_ORDER_SENSITIVE_BUILTINS = {"list", "tuple", "enumerate"}

#: Executor-protocol dispatch methods (REPRO3xx).
_DISPATCH_METHODS = {"map", "submit"}

#: Registration entry points (their tag argument is *supposed* to be a
#: literal — exempt from REPRO102's named-constant requirement).
_REGISTER_FUNC_NAMES = {"register_stream_tag", "register_ancillary_purpose",
                        "register"}


@dataclass(frozen=True)
class FileContext:
    """Which rule families apply to one file."""

    path: str
    rng_allowed: bool = False     # the one sanctioned RNG construction site
    deterministic: bool = False   # core/, seir/, hpc/
    typed: bool = False           # core/, hpc/, seir/seeding.py


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class _Scope:
    """Per-function bookkeeping for the executor-payload rules."""

    nested_defs: set[str] = field(default_factory=set)
    list_payloads: dict[str, list[ast.expr]] = field(default_factory=dict)


def _receiver_is_executor(node: ast.expr) -> bool:
    """True when a ``.map``/``.submit`` receiver looks like an executor."""
    if isinstance(node, ast.Name):
        term = node.id
    elif isinstance(node, ast.Attribute):
        term = node.attr
    else:
        return False
    term = term.lstrip("_").lower()
    return term.endswith("executor") or term.endswith("pool")


def _is_unordered(node: ast.expr) -> bool:
    """Set displays, set comprehensions, and bare set()/frozenset() calls."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _FileChecker(ast.NodeVisitor):
    """Single-file rule pass (REPRO101/102/103, 2xx, 3xx, 4xx)."""

    def __init__(self, context: FileContext, registered: set[str]) -> None:
        self.ctx = context
        self.registered = registered
        self.violations: list[Violation] = []
        self._aliases: dict[str, str] = {}
        self._scopes: list[_Scope] = []
        self._class_depth = 0

    # ------------------------------------------------------------------ #
    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(Violation(
            path=self.ctx.path, line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0), rule=rule, message=message))

    def _canonical(self, node: ast.expr) -> str | None:
        """Resolve ``np.random.default_rng`` through import aliases."""
        if isinstance(node, ast.Name):
            return self._aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self._canonical(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    # ------------------------------------------------------------------ #
    # Imports: build the alias table; reject stdlib random outright.
    # ------------------------------------------------------------------ #
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._aliases[alias.asname or alias.name.split(".")[0]] = \
                alias.name if alias.asname else alias.name.split(".")[0]
            if alias.name.split(".")[0] == "random" and \
                    not self.ctx.rng_allowed:
                self._flag(node, "REPRO101",
                           "stdlib 'random' imported outside seir/seeding.py "
                           "— all randomness must flow through the seed bank")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            self._aliases[alias.asname or alias.name] = \
                f"{module}.{alias.name}" if module else alias.name
        root = module.split(".")[0]
        if root == "random" and not self.ctx.rng_allowed:
            self._flag(node, "REPRO101",
                       "stdlib 'random' imported outside seir/seeding.py — "
                       "all randomness must flow through the seed bank")
        if module.startswith("numpy.random") and not self.ctx.rng_allowed:
            self._flag(node, "REPRO101",
                       "numpy.random imported directly outside "
                       "seir/seeding.py — obtain generators from the seed "
                       "bank (repro.seir.seeding) instead")
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # Assignments: stream constants must be registered (REPRO103).
    # ------------------------------------------------------------------ #
    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if _STREAM_CONST_RE.match(name):
                func_name = _terminal_name(node.value.func) \
                    if isinstance(node.value, ast.Call) else None
                if func_name not in _REGISTER_FUNC_NAMES:
                    self._flag(
                        node, "REPRO103",
                        f"stream constant {name} is assigned without "
                        "registration — use register_stream_tag()/"
                        "register_ancillary_purpose() so tag uniqueness is "
                        "enforced at import time")
            if self._scopes and isinstance(node.value, ast.List):
                self._scopes[-1].list_payloads.setdefault(
                    name, []).extend(node.value.elts)
            elif self._scopes and isinstance(
                    node.value, (ast.ListComp, ast.GeneratorExp)):
                self._scopes[-1].list_payloads.setdefault(
                    name, []).append(node.value.elt)
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # Function scopes: nested defs + annotation completeness.
    # ------------------------------------------------------------------ #
    def _check_annotations(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                           ) -> None:
        if node.name.startswith("test_"):
            return
        missing: list[str] = []
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        skip_first = (self._class_depth > 0 and not self._scopes
                      and positional
                      and positional[0].arg in ("self", "cls")
                      and not any(isinstance(d, ast.Name)
                                  and d.id == "staticmethod"
                                  for d in node.decorator_list))
        if skip_first:
            positional = positional[1:]
        for arg in positional + list(args.kwonlyargs):
            if arg.annotation is None:
                missing.append(arg.arg)
        for vararg, prefix in ((args.vararg, "*"), (args.kwarg, "**")):
            if vararg is not None and vararg.annotation is None:
                missing.append(prefix + vararg.arg)
        if node.returns is None:
            missing.append("return")
        if missing:
            self._flag(node, "REPRO401",
                       f"def {node.name}(...) is missing annotations for: "
                       f"{', '.join(missing)} (module is mypy-gated)")

    def _enter_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                        ) -> None:
        if self.ctx.typed:
            self._check_annotations(node)
        if self._scopes:
            self._scopes[-1].nested_defs.add(node.name)
        scope = _Scope()
        self._scopes.append(scope)
        class_depth = self._class_depth
        self._class_depth = 0  # classes inside functions start fresh
        self.generic_visit(node)
        self._class_depth = class_depth
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    # ------------------------------------------------------------------ #
    # For loops: unordered iteration (REPRO202).
    # ------------------------------------------------------------------ #
    def visit_For(self, node: ast.For) -> None:
        if self.ctx.deterministic and _is_unordered(node.iter):
            self._flag(node, "REPRO202",
                       "iterating an unordered set in a deterministic "
                       "subsystem — sort it (sorted(...)) before iteration")
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # Calls: RNG confinement, stream tags, clocks, arrays-from-sets,
    # executor dispatch.
    # ------------------------------------------------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        canonical = self._canonical(node.func)
        terminal = _terminal_name(node.func)

        if canonical is not None and not self.ctx.rng_allowed and (
                canonical.startswith("numpy.random.")
                or canonical.startswith("random.")):
            self._flag(node, "REPRO101",
                       f"call to {canonical} outside seir/seeding.py — "
                       "generators and seed sequences are constructed only "
                       "by the seed bank (repro.seir.seeding)")

        if terminal in ("mix_seed", "mix_seeds"):
            self._check_mix_seed(node)
        elif terminal == "ancillary_generator":
            self._check_ancillary(node)

        if self.ctx.deterministic:
            if canonical in _WALL_CLOCK:
                self._flag(node, "REPRO201",
                           f"{canonical}() in a deterministic subsystem — "
                           "wall-clock reads make runs irreproducible; pass "
                           "timestamps in from the caller")
            first = node.args[0] if node.args else None
            consumer = (canonical in _ORDER_SENSITIVE_NUMPY
                        or (isinstance(node.func, ast.Name)
                            and node.func.id in _ORDER_SENSITIVE_BUILTINS))
            if consumer and first is not None and _is_unordered(first):
                self._flag(node, "REPRO202",
                           "building an ordered sequence from an unordered "
                           "set — the element order (and any array built "
                           "from it) varies across processes; sort first")

        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _DISPATCH_METHODS and \
                _receiver_is_executor(node.func.value):
            self._check_dispatch(node)

        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    def _stream_arg_ok(self, arg: ast.expr) -> bool:
        name = _terminal_name(arg)
        return name is not None and name in self.registered

    def _check_mix_seed(self, node: ast.Call) -> None:
        fn = _terminal_name(node.func)
        if len(node.args) < 2:
            self._flag(node, "REPRO102",
                       f"{fn} call carries no stream tag — pass a "
                       "registered *_STREAM constant right after the base "
                       "seed (the reserved method-tag position)")
            return
        tag = node.args[1]
        if isinstance(tag, ast.Constant):
            self._flag(node, "REPRO102",
                       f"integer-literal stream tag in {fn} — the "
                       "window-stream aliasing bug shape; register a named "
                       "constant via register_stream_tag() and pass that")
        elif not self._stream_arg_ok(tag):
            name = _terminal_name(tag) or ast.dump(tag)
            self._flag(node, "REPRO102",
                       f"stream tag {name!r} in {fn} is not a "
                       "registered stream constant (register_stream_tag)")

    def _check_ancillary(self, node: ast.Call) -> None:
        purpose: ast.expr | None = node.args[0] if node.args else None
        for kw in node.keywords:
            if kw.arg == "purpose":
                purpose = kw.value
        if purpose is None:
            return  # default purpose 0 is the documented one-shot stream
        if isinstance(purpose, ast.Constant):
            self._flag(node, "REPRO102",
                       "integer-literal ancillary purpose — register a "
                       "named constant via register_ancillary_purpose() so "
                       "consumers can never silently collide")
        elif not self._stream_arg_ok(purpose):
            name = _terminal_name(purpose) or ast.dump(purpose)
            self._flag(node, "REPRO102",
                       f"ancillary purpose {name!r} is not a registered "
                       "purpose constant (register_ancillary_purpose)")

    # ------------------------------------------------------------------ #
    def _payload_exprs(self, tasks: ast.expr) -> list[ast.expr]:
        """Statically visible payload element expressions of a dispatch."""
        if isinstance(tasks, (ast.ListComp, ast.GeneratorExp)):
            return [tasks.elt]
        if isinstance(tasks, (ast.List, ast.Tuple)):
            return list(tasks.elts)
        if isinstance(tasks, ast.Name):
            for scope in reversed(self._scopes):
                if tasks.id in scope.list_payloads:
                    return scope.list_payloads[tasks.id]
        return []

    def _check_dispatch(self, node: ast.Call) -> None:
        if not node.args:
            return
        fn = node.args[0]
        if isinstance(fn, ast.Lambda):
            self._flag(node, "REPRO301",
                       "lambda dispatched through an Executor — lambdas "
                       "don't pickle and hide their payload contract; use a "
                       "module-level function over a dataclass task")
        elif isinstance(fn, ast.Name) and any(
                fn.id in scope.nested_defs for scope in self._scopes):
            self._flag(node, "REPRO301",
                       f"nested function {fn.id!r} dispatched through an "
                       "Executor — closures don't pickle and capture "
                       "ambient state; hoist it to module level")
        if len(node.args) < 2:
            return
        for elt in self._payload_exprs(node.args[1]):
            if isinstance(elt, (ast.Tuple, ast.Dict, ast.List, ast.Set,
                                ast.Lambda)):
                self._flag(elt, "REPRO302",
                           "executor payload is a raw tuple/dict literal — "
                           "declare a frozen dataclass task (see "
                           "hpc.sharding.ShardTask) so the payload schema "
                           "is named, typed, and lintable")
                break

    # Track appends into candidate payload lists (tasks.append((...,))).
    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if self._scopes and isinstance(call, ast.Call) and \
                isinstance(call.func, ast.Attribute) and \
                call.func.attr == "append" and \
                isinstance(call.func.value, ast.Name) and call.args:
            name = call.func.value.id
            for scope in reversed(self._scopes):
                if name in scope.list_payloads:
                    scope.list_payloads[name].append(call.args[0])
                    break
        self.generic_visit(node)


# --------------------------------------------------------------------------- #
# Scoped allowlisting: ``# repro-allow: RULE <reason>``
# --------------------------------------------------------------------------- #
#: Directive comment shape.  The reason is mandatory: an exemption nobody
#: can justify in one clause should not exist.
_ALLOW_RE = re.compile(
    r"#\s*repro-allow:\s*(?P<rule>\S+)(?:\s+(?P<reason>.+?))?\s*$")

#: A comment *starting* with the directive keyword is a directive attempt;
#: prose merely mentioning repro-allow mid-comment is not.
_ALLOW_CANDIDATE_RE = re.compile(r"#\s*repro-allow\b")

#: Rules a directive may never waive: the directive machinery itself, and
#: the syntax-error pseudo-rule.
_UNWAIVABLE = {"REPRO203", "REPRO000"}


@dataclass(frozen=True)
class AllowDirective:
    """One parsed ``# repro-allow: RULE reason`` comment.

    ``line`` is where the comment sits; ``target_line`` is the single line
    whose violations it waives — the same line for a trailing comment, the
    next code line for a comment standing alone.  The scope is deliberately
    one line: a directive can never blanket a region, let alone a file.
    """

    path: str
    line: int
    target_line: int
    rule: str
    reason: str


def parse_allow_directives(path: str, source: str
                           ) -> tuple[list[AllowDirective], list[Violation]]:
    """Extract allow directives (and directive *mistakes*) from one file.

    Tokenises rather than scanning lines so ``#`` inside string literals
    can never be mistaken for a comment.  Malformed directives — unknown
    or unwaivable rule ids, a missing reason, a missing colon — come back
    as REPRO203 violations instead of being silently ignored, because a
    directive the author believes is active but the linter cannot parse is
    worse than no directive at all.
    """
    directives: list[AllowDirective] = []
    problems: list[Violation] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return [], []  # unparsable files are REPRO000's problem
    for tok in tokens:
        if tok.type != tokenize.COMMENT or \
                _ALLOW_CANDIDATE_RE.match(tok.string) is None:
            continue
        line, col = tok.start
        match = _ALLOW_RE.match(tok.string)
        if match is None:
            problems.append(Violation(
                path=path, line=line, col=col, rule="REPRO203",
                message="malformed repro-allow directive — the shape is "
                        "'# repro-allow: RULEID <reason>'"))
            continue
        rule = match.group("rule")
        reason = (match.group("reason") or "").strip()
        if rule not in RULES or rule in _UNWAIVABLE:
            problems.append(Violation(
                path=path, line=line, col=col, rule="REPRO203",
                message=f"repro-allow names {rule!r}, which is not a "
                        "waivable rule id"))
            continue
        if not reason:
            problems.append(Violation(
                path=path, line=line, col=col, rule="REPRO203",
                message=f"repro-allow for {rule} carries no reason — state "
                        "why this line is exempt"))
            continue
        target = line
        if not lines[line - 1][:col].strip():
            # Standalone comment: it annotates the next code line.
            for j in range(line, len(lines)):
                text = lines[j].strip()
                if text and not text.startswith("#"):
                    target = j + 1
                    break
        directives.append(AllowDirective(path=path, line=line,
                                         target_line=target, rule=rule,
                                         reason=reason))
    return directives, problems


def apply_allow_directives(violations: list[Violation],
                           directives: list[AllowDirective],
                           families: tuple[str, ...] | None = None
                           ) -> list[Violation]:
    """Waive directive-covered violations; flag directives that waive
    nothing.

    An unused directive is itself a REPRO203 violation: once the code it
    excused stops violating the rule, the stale exemption would silently
    re-arm the moment someone reintroduces the hazard on that line.

    ``families`` scopes which directives this *pass* is responsible for,
    by rule-id prefix.  The lint and the flow pass share one directive
    syntax but emit disjoint rule families; without the scope each would
    flag the other's perfectly-used directives as unused.
    """
    if families is not None:
        directives = [d for d in directives if d.rule.startswith(families)]
    by_key: dict[tuple[str, int], list[AllowDirective]] = {}
    for d in directives:
        by_key.setdefault((d.rule, d.target_line), []).append(d)
    used: set[AllowDirective] = set()
    kept: list[Violation] = []
    for v in violations:
        covering = by_key.get((v.rule, v.line))
        if covering:
            used.update(covering)
        else:
            kept.append(v)
    for d in directives:
        if d not in used:
            kept.append(Violation(
                path=d.path, line=d.line, col=0, rule="REPRO203",
                message=f"unused repro-allow directive — line "
                        f"{d.target_line} does not violate {d.rule}; "
                        "delete the directive"))
    return kept


def check_file(tree: ast.Module, context: FileContext,
               registered: set[str]) -> list[Violation]:
    """Run every per-file rule over one parsed module."""
    checker = _FileChecker(context, registered)
    checker.visit(tree)
    return checker.violations


def registry_violations(registry: StaticRegistry) -> list[Violation]:
    """Cross-file duplicate-tag detection (REPRO104)."""
    out: list[Violation] = []
    for first, second in registry.duplicate_tags():
        out.append(Violation(
            path=second.path, line=second.line, col=0, rule="REPRO104",
            message=(f"stream tag {second.tag} in domain {second.domain!r} "
                     f"is registered twice: {first.stream_name!r} at "
                     f"{first.path}:{first.line} and "
                     f"{second.stream_name!r} here — two names on one tag "
                     "alias their seed streams")))
    return out
