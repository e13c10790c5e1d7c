#!/usr/bin/env python3
"""perseas-verify: static write-ahead-ordering and charge-scope verifier.

Where perseas-lint (tools/perseas-lint.py) checks token-level registry
consistency, this tool checks *paths*: it extracts every function body in
src/core, src/netram and the WAL engines (src/wal) into a statement tree,
builds an interprocedural call graph, and enforces three protocol
contracts the linter cannot see (docs/ANALYSIS.md §8 defines each):

  V1  write-ahead ordering   The failure points a single function notifies
                             directly fire in non-decreasing registry
                             `order` on every path through it (V1a); an
                             entry point only notifies phases of its own
                             protocol step (V1b); and on the PERSEAS
                             entries the classified protocol stores
                             (undo.push < flag.set < db.write < flag.clear)
                             are rank-monotone per path, so no store to
                             record memory precedes its undo push on any
                             path that contains both (V1c).
  V2  charge-scope coverage  Every call that charges sim::SimClock —
                             directly via advance() or transitively via
                             any function whose body reaches advance()
                             uncovered — is dominated by a live
                             obs::ScopedCost on the transaction-lifecycle
                             entries of every engine (PERSEAS, RVM,
                             Vista).  Only the PERSEAS setup/teardown
                             entries are exempt: their charges land in
                             the ledger's unattributed bucket by design.
  V3  point reachability     The static reachable notify set of each
                             engine's entry points covers every registry
                             row the engine owns (a statically unreachable
                             row is dead instrumentation), and, when given
                             perseas-mc reports (--mc-report), every
                             dynamically fired point is statically
                             reachable (a dynamic-only point means the
                             verifier's frontend lost an edge — a verifier
                             bug, reported as a violation).

Two frontends produce the same statement-tree IR:

  internal  a pure-stdlib recursive-descent pass over the lexed sources
            (the lexer is imported from perseas-lint.py).  Default, runs
            anywhere, used by --selftest.
  ast       clang -Xclang -ast-dump=json over compile_commands.json.
            CI-only (the dev container has no clang); any per-run failure
            falls back to the internal frontend with a warning, and the
            report records which frontend actually ran.

Exit status: 0 clean, 1 violations, 2 internal/usage error.

--selftest seeds one violation per check into an in-memory copy of the
tree (a reordered notify, a deleted ScopedCost, a deleted notify plus a
synthetic mc report that still fires it) and fails unless all three are
caught.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.util
import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCHEMA = "perseas-verify/1"

PROTOCOL_HPP = "src/core/protocol_points.hpp"
REGISTRY_HPP = "src/core/failure_points.hpp"

# Directories whose functions are subject to V1 (the protocol engines).
ENGINE_DIRS = ("src/core/", "src/netram/", "src/wal/")


def _load_lint():
    spec = importlib.util.spec_from_file_location(
        "perseas_lint", Path(__file__).resolve().parent / "perseas-lint.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


lex = _load_lint().lex

# --------------------------------------------------------------------------
# Registry: literal -> (engine, phase, order, mc).

CONST_RE = re.compile(
    r'inline\s+constexpr\s+const\s+char\*\s+(k\w+)\s*=\s*"([^"]+)"\s*;')
ROW_RE = re.compile(
    r'\{\s*(k\w+)\s*,\s*"(\w+)"\s*,\s*"(\w+)"\s*,\s*(\d+)\s*,\s*(true|false)\s*\}')
ALIAS_RE = re.compile(
    r'constexpr\s+const\s+char\*\s+(k\w+)\s*=\s*(?:\w+\s*::\s*)+(k\w+)\s*;')


def parse_registry(tree):
    constants = {}
    for path in (PROTOCOL_HPP, REGISTRY_HPP):
        constants.update(CONST_RE.findall(tree.get(path, "")))
    registry = {}
    for ident, engine, phase, order, mc in ROW_RE.findall(tree.get(REGISTRY_HPP, "")):
        if ident in constants:
            registry[constants[ident]] = (engine, phase, int(order), mc == "true")
    return constants, registry


# --------------------------------------------------------------------------
# IR.  Statement-tree nodes (shared by both frontends):
#   ("seq", [node...])            ("block", node)    RAII boundary
#   ("events", [event...])        ("ret", [event...])  return/throw
#   ("if", [cond-events], then-node, else-node-or-None)
#   ("loop", [head-events], body-node)   for/while/switch: body once
#   ("try", body-node, [catch-node...])
# Events, in source order:
#   ("notify", literal-or-None, ident, line)
#   ("call", name, args-or-None, line)       args only for store_flag
#   ("scope", None, None, line)              an obs::ScopedCost came alive


class Func:
    def __init__(self, qualname, cls, base, file, line, body):
        self.qualname = qualname
        self.cls = cls
        self.base = base
        self.file = file
        self.line = line
        self.body = body

    def __repr__(self):
        return f"<{self.qualname} {self.file}:{self.line}>"


def iter_events(node):
    """Every event in `node`, path-insensitively, in source order."""
    kind = node[0]
    if kind in ("events", "ret"):
        yield from node[1]
    elif kind == "seq":
        for ch in node[1]:
            yield from iter_events(ch)
    elif kind == "block":
        yield from iter_events(node[1])
    elif kind == "if":
        yield from node[1]
        yield from iter_events(node[2])
        if node[3] is not None:
            yield from iter_events(node[3])
    elif kind == "loop":
        yield from node[1]
        yield from iter_events(node[2])
    elif kind == "try":
        yield from iter_events(node[1])
        for c in node[2]:
            yield from iter_events(c)


# --------------------------------------------------------------------------
# Internal frontend: function extraction + recursive-descent body parsing
# over the lexed code (comments and strings blanked, newlines preserved).

HEAD_RE = re.compile(r"(~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*\(")
NOTIFY_RE = re.compile(r"\bnotify\s*\(\s*((?:\w+\s*::\s*)*k\w+)")
CALL_RE = re.compile(r"\b(~?[A-Za-z_]\w*)\s*\(")
SCOPED_RE = re.compile(r"\bScopedCost\b")

KEYWORDS = frozenset(
    "if for while switch do try catch return throw else new delete sizeof "
    "alignof decltype noexcept static_assert case default goto operator "
    "template typename using namespace alignas requires co_return co_await "
    "co_yield and or not assert typeid".split())
# Words that, immediately before a head match, mean "expression, not a
# definition" (e.g. `return foo(x)`).
PRECEDING_REJECT = frozenset(
    "return throw case new delete goto sizeof while if for switch else "
    "co_return co_await and or not".split())
# Qualifier-ish words allowed between the parameter list and the body.
QUAL_OK = frozenset("const noexcept override final mutable".split())
CALL_SKIP = KEYWORDS | {"notify"}


def _match_balanced(code, i, open_c, close_c, limit):
    """Index just past the delimiter closing the `open_c` at `i`."""
    depth = 0
    while i < limit:
        c = code[i]
        if c == open_c:
            depth += 1
        elif c == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


class FileEnv:
    def __init__(self, path, code, aliases, lineof):
        self.path = path
        self.code = code
        self.aliases = aliases  # local ident -> canonical literal
        self.lineof = lineof


def _events_in(env, start, stop, constants):
    """Events in code[start:stop], in source order."""
    text = env.code[start:stop]
    evs = []
    notify_spans = []
    for m in NOTIFY_RE.finditer(text):
        base = m.group(1).split("::")[-1].strip()
        lit = env.aliases.get(base, constants.get(base))
        evs.append((m.start(), ("notify", lit, base, env.lineof(start + m.start()))))
        notify_spans.append((m.start(), m.end()))
    for m in SCOPED_RE.finditer(text):
        evs.append((m.start(), ("scope", None, None, env.lineof(start + m.start()))))
    for m in CALL_RE.finditer(text):
        name = m.group(1)
        if name in CALL_SKIP:
            continue
        args = None
        if name == "store_flag":
            close = _match_balanced(env.code, start + m.end() - 1, "(", ")",
                                    len(env.code))
            if close != -1:
                args = _split_args(env.code[start + m.end():close - 1])
        evs.append((m.start(), ("call", name, args, env.lineof(start + m.start()))))
    evs.sort(key=lambda pe: pe[0])
    return [e for _, e in evs]


def _split_args(text):
    """Top-level comma split of an argument list."""
    args, depth, cur = [], 0, []
    for c in text:
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        if c == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    args.append("".join(cur).strip())
    return args


class BodyParser:
    def __init__(self, env, constants):
        self.env = env
        self.code = env.code
        self.constants = constants
        self.i = 0

    def _skip_ws(self, end):
        while self.i < end and self.code[self.i].isspace():
            self.i += 1

    def _peek_word(self, end):
        m = re.match(r"[A-Za-z_]\w*", self.code[self.i:min(self.i + 32, end + 32)])
        return m.group(0) if m else None

    def _events(self, start, stop):
        return _events_in(self.env, start, stop, self.constants)

    def parse_seq(self, end):
        nodes = []
        while True:
            self._skip_ws(end)
            if self.i >= end:
                break
            n = self.parse_one(end)
            if n is not None:
                nodes.append(n)
        return ("seq", nodes)

    def parse_one(self, end):
        self._skip_ws(end)
        if self.i >= end:
            return None
        c = self.code[self.i]
        if c == ";":
            self.i += 1
            return None
        if c == "}":
            self.i += 1
            return None
        if c == "{":
            close = _match_balanced(self.code, self.i, "{", "}", end + 1)
            if close == -1:
                self.i = end
                return None
            inner = BodyParser(self.env, self.constants)
            inner.i = self.i + 1
            node = ("block", inner.parse_seq(close - 1))
            self.i = close
            return node
        w = self._peek_word(end)
        if w == "if":
            return self._parse_if(end)
        if w in ("for", "while", "switch"):
            return self._parse_loop(end, len(w))
        if w == "do":
            return self._parse_do(end)
        if w == "try":
            return self._parse_try(end)
        if w in ("return", "throw"):
            start, stop = self._consume_statement(end)
            return ("ret", self._events(start, stop))
        if w in ("case", "default"):
            colon = self.code.find(":", self.i, end)
            self.i = colon + 1 if colon != -1 else end
            return None
        if w == "else":  # defensive: stray else
            self.i += 4
            return self.parse_one(end)
        start, stop = self._consume_statement(end)
        evs = self._events(start, stop)
        return ("events", evs) if evs else None

    def _consume_statement(self, end):
        start = self.i
        depth = 0
        while self.i < end:
            c = self.code[self.i]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                if depth == 0 and c == "}":
                    return start, self.i  # stray close: missing ';'
                depth -= 1
            elif c == ";" and depth == 0:
                stop = self.i
                self.i += 1
                return start, stop
            self.i += 1
        return start, end

    def _balanced_parens(self, end):
        self._skip_ws(end)
        if self.i >= end or self.code[self.i] != "(":
            return self.i, self.i
        close = _match_balanced(self.code, self.i, "(", ")", end + 1)
        if close == -1:
            start = self.i
            self.i = end
            return start, end
        start = self.i + 1
        self.i = close
        return start, close - 1

    def _parse_if(self, end):
        self.i += 2
        self._skip_ws(end)
        if self._peek_word(end) == "constexpr":
            self.i += len("constexpr")
        cstart, cstop = self._balanced_parens(end)
        then = self.parse_one(end) or ("seq", [])
        save = self.i
        self._skip_ws(end)
        els = None
        if self._peek_word(end) == "else":
            self.i += 4
            els = self.parse_one(end) or ("seq", [])
        else:
            self.i = save
        return ("if", self._events(cstart, cstop), then, els)

    def _parse_loop(self, end, wlen):
        self.i += wlen
        cstart, cstop = self._balanced_parens(end)
        body = self.parse_one(end) or ("seq", [])
        return ("loop", self._events(cstart, cstop), body)

    def _parse_do(self, end):
        self.i += 2
        body = self.parse_one(end) or ("seq", [])
        self._skip_ws(end)
        evs = []
        if self._peek_word(end) == "while":
            self.i += 5
            cstart, cstop = self._balanced_parens(end)
            evs = self._events(cstart, cstop)
            self._skip_ws(end)
            if self.i < end and self.code[self.i] == ";":
                self.i += 1
        return ("seq", [body, ("events", evs)]) if evs else body

    def _parse_try(self, end):
        self.i += 3
        body = self.parse_one(end) or ("seq", [])
        catches = []
        while True:
            save = self.i
            self._skip_ws(end)
            if self._peek_word(end) != "catch":
                self.i = save
                break
            self.i += 5
            self._balanced_parens(end)
            catches.append(self.parse_one(end) or ("seq", []))
        return ("try", body, catches)


def _head_candidate(code, m):
    """Reject head matches that are expressions rather than definitions."""
    s = m.start()
    if s > 0 and (code[s - 1].isalnum() or code[s - 1] == "_"):
        return False
    j = s - 1
    while j >= 0 and code[j].isspace():
        j -= 1
    if j >= 0 and code[j] in ".,(<>!&|=+-*/?:'\"~%^[":
        return False
    wm = re.search(r"([A-Za-z_]\w*)\s*$", code[max(0, j - 24):j + 1])
    if wm and wm.group(1) in PRECEDING_REJECT:
        return False
    base = m.group(1).split("::")[-1].strip().lstrip("~")
    return base not in KEYWORDS


def _find_body(code, close):
    """Scan qualifiers after the parameter list's ')' (index `close` is one
    past it); returns the index of the body's '{' or -1."""
    n = len(code)
    i = close
    while i < n:
        while i < n and code[i].isspace():
            i += 1
        if i >= n:
            return -1
        c = code[i]
        if c == "{":
            return i
        if c in ";=,)" or c == "#":
            return -1
        if c == ":":
            if i + 1 < n and code[i + 1] == ":":
                return -1
            return _find_after_init_list(code, i + 1)
        if c == "-" and i + 1 < n and code[i + 1] == ">":
            # Trailing return type: accept up to the first top-level '{'.
            i += 2
            while i < n and code[i] not in "{;":
                i += 1
            return i if i < n and code[i] == "{" else -1
        wm = re.match(r"[A-Za-z_]\w*", code[i:])
        if wm:
            word = wm.group(0)
            i += len(wm.group(0))
            if word in QUAL_OK:
                continue
            if word == "noexcept" or re.fullmatch(r"[A-Z_][A-Z_0-9]*", word):
                while i < n and code[i].isspace():
                    i += 1
                if i < n and code[i] == "(":
                    i = _match_balanced(code, i, "(", ")", n)
                    if i == -1:
                        return -1
                continue
            return -1
        return -1
    return -1


def _find_after_init_list(code, i):
    n = len(code)
    while True:
        while i < n and code[i].isspace():
            i += 1
        wm = re.match(r"[A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*", code[i:])
        if not wm:
            return -1
        i += wm.end()
        while i < n and code[i].isspace():
            i += 1
        if i < n and code[i] == "<":
            i = _match_balanced(code, i, "<", ">", n)
            if i == -1:
                return -1
            while i < n and code[i].isspace():
                i += 1
        if i >= n or code[i] not in "({":
            return -1
        i = _match_balanced(code, i, code[i], ")" if code[i] == "(" else "}", n)
        if i == -1:
            return -1
        while i < n and code[i].isspace():
            i += 1
        if i < n and code[i] == ",":
            i += 1
            continue
        return i if i < n and code[i] == "{" else -1


def extract_functions(path, raw, constants):
    code, _ = lex(raw)
    newlines = [m.start() for m in re.finditer("\n", code)]
    lineof = lambda pos: bisect.bisect_right(newlines, pos) + 1  # noqa: E731
    aliases = {local: constants[canon]
               for local, canon in ALIAS_RE.findall(code) if canon in constants}
    env = FileEnv(path, code, aliases, lineof)

    funcs = []
    i = 0
    while True:
        m = HEAD_RE.search(code, i)
        if not m:
            break
        if not _head_candidate(code, m):
            i = m.start() + 1
            continue
        close = _match_balanced(code, m.end() - 1, "(", ")", len(code))
        if close == -1:
            i = m.start() + 1
            continue
        brace = _find_body(code, close)
        if brace == -1:
            i = m.start() + 1
            continue
        body_close = _match_balanced(code, brace, "{", "}", len(code))
        if body_close == -1:
            i = m.start() + 1
            continue
        qualname = re.sub(r"\s+", "", m.group(1))
        parts = qualname.split("::")
        parser = BodyParser(env, constants)
        parser.i = brace + 1
        body = parser.parse_seq(body_close - 1)
        funcs.append(Func(qualname, parts[-2] if len(parts) > 1 else None,
                          parts[-1].lstrip("~"), path, lineof(m.start()), body))
        i = body_close
    return funcs


def load_tree(repo):
    tree = {}
    src = repo / "src"
    for ext in ("*.cpp", "*.hpp", "*.h", "*.cc"):
        for p in sorted(src.rglob(ext)):
            tree[p.relative_to(repo).as_posix()] = p.read_text(
                encoding="utf-8", errors="replace")
    return tree


def internal_frontend(tree, constants):
    funcs = []
    for path, raw in sorted(tree.items()):
        funcs.extend(extract_functions(path, raw, constants))
    return funcs


# --------------------------------------------------------------------------
# AST frontend: clang -Xclang -ast-dump=json over compile_commands.json.
# CI-only; any failure raises AstError and the caller falls back.


class AstError(Exception):
    pass


class _AstConv:
    """Converts one TU's clang AST JSON into the shared IR."""

    def __init__(self, repo):
        self.repo = str(repo)
        self.file = ""
        self.line = 0
        self.records = {}     # record id -> name
        self.var_lits = {}    # VarDecl id -> string literal (resolved later)
        self.var_refs = {}    # VarDecl id -> referenced VarDecl id
        self.funcs = []       # (qualname, cls, base, file, line, body, pending)

    def _loc(self, n):
        loc = n.get("loc") or {}
        for key in ("spellingLoc", "expansionLoc"):
            if key in loc:
                loc = loc[key]
        if "file" in loc:
            self.file = loc["file"]
        if "line" in loc:
            self.line = loc["line"]

    def visit_tu(self, doc):
        for n in doc.get("inner", []):
            self.visit_decl(n, None)

    def visit_decl(self, n, cls):
        if not isinstance(n, dict):
            return
        kind = n.get("kind", "")
        self._loc(n)
        if kind in ("NamespaceDecl", "LinkageSpecDecl", "ExternCContextDecl"):
            for c in n.get("inner", []):
                self.visit_decl(c, cls)
            return
        if kind in ("CXXRecordDecl", "ClassTemplateDecl",
                    "ClassTemplateSpecializationDecl"):
            name = n.get("name")
            if n.get("id") and name:
                self.records[n["id"]] = name
            for c in n.get("inner", []):
                self.visit_decl(c, name or cls)
            return
        if kind == "VarDecl":
            self._record_var(n)
            return
        if kind in ("FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
                    "CXXDestructorDecl", "FunctionTemplateDecl"):
            if kind == "FunctionTemplateDecl":
                for c in n.get("inner", []):
                    self.visit_decl(c, cls)
                return
            self._record_func(n, cls)

    def _record_var(self, n):
        name = n.get("name", "")
        if not name.startswith("k") or "id" not in n:
            return
        for c in n.get("inner", []):
            hit = self._find_kind(c, ("StringLiteral", "DeclRefExpr"))
            if hit is None:
                continue
            if hit["kind"] == "StringLiteral":
                self.var_lits[n["id"]] = hit.get("value", "").strip('"')
            else:
                ref = hit.get("referencedDecl", {})
                if ref.get("id"):
                    self.var_refs[n["id"]] = ref["id"]
            return

    def _find_kind(self, n, kinds):
        if not isinstance(n, dict):
            return None
        if n.get("kind") in kinds:
            return n
        for c in n.get("inner", []):
            hit = self._find_kind(c, kinds)
            if hit is not None:
                return hit
        return None

    def _record_func(self, n, cls):
        body = None
        for c in n.get("inner", []):
            if isinstance(c, dict) and c.get("kind") == "CompoundStmt":
                body = c
        if body is None:
            return
        self._loc(n)
        file, line = self.file, self.line
        if not file.startswith(self.repo) and "/src/" not in file:
            return
        name = n.get("name", "")
        if not name or name.startswith("operator"):
            name = name or "operator"
        if cls is None and n.get("parentDeclContextId") in self.records:
            cls = self.records[n["parentDeclContextId"]]
        qual = f"{cls}::{name}" if cls else name
        rel = file
        if "/src/" in rel:
            rel = "src/" + rel.split("/src/", 1)[1]
        self.funcs.append((qual, cls, name.lstrip("~"), rel, line,
                           self.conv(body)))

    # --- statement conversion ---------------------------------------------

    def conv(self, n):
        kind = n.get("kind", "")
        self._loc(n)
        inner = [c for c in n.get("inner", []) if isinstance(c, dict) and c.get("kind")]
        if kind == "CompoundStmt":
            nodes = [x for x in (self.conv(c) for c in inner) if x is not None]
            return ("block", ("seq", nodes))
        if kind == "IfStmt":
            has_else = bool(n.get("hasElse"))
            els = self.conv(inner[-1]) if has_else and inner else None
            then_idx = -2 if has_else else -1
            then = self.conv(inner[then_idx]) if inner else ("seq", [])
            head = []
            for c in inner[:then_idx]:
                head.extend(self.events_of(c))
            return ("if", head, then or ("seq", []), els)
        if kind in ("ForStmt", "WhileStmt", "CXXForRangeStmt", "SwitchStmt"):
            body = self.conv(inner[-1]) if inner else ("seq", [])
            head = []
            for c in inner[:-1]:
                head.extend(self.events_of(c))
            return ("loop", head, body or ("seq", []))
        if kind == "DoStmt":
            body = self.conv(inner[0]) if inner else ("seq", [])
            cond = []
            for c in inner[1:]:
                cond.extend(self.events_of(c))
            return ("seq", [body or ("seq", []), ("events", cond)])
        if kind == "CXXTryStmt":
            body = self.conv(inner[0]) if inner else ("seq", [])
            catches = []
            for c in inner[1:]:
                if c.get("kind") == "CXXCatchStmt":
                    sub = [x for x in c.get("inner", [])
                           if isinstance(x, dict) and x.get("kind") == "CompoundStmt"]
                    catches.append(self.conv(sub[-1]) if sub else ("seq", []))
            return ("try", body or ("seq", []), catches)
        if kind in ("ReturnStmt", "CXXThrowExpr"):
            return ("ret", self.events_of(n, skip_self=True))
        if kind in ("BreakStmt", "ContinueStmt", "NullStmt", "GotoStmt",
                    "DeclRefExpr"):
            return None
        evs = self.events_of(n, skip_self=True)
        return ("events", evs) if evs else None

    def events_of(self, n, skip_self=False):
        out = []
        self._loc(n)
        kind = n.get("kind", "")
        if not skip_self:
            if kind == "CXXMemberCallExpr":
                out.extend(self._member_call(n))
            elif kind == "CallExpr":
                out.extend(self._free_call(n))
            elif kind == "VarDecl":
                if "ScopedCost" in n.get("type", {}).get("qualType", ""):
                    out.append(("scope", None, None, self.line))
        for c in n.get("inner", []):
            if isinstance(c, dict):
                out.extend(self.events_of(c))
        return out

    def _callee_name(self, n):
        if n.get("kind") == "CXXMemberCallExpr":
            mem = self._find_kind(n.get("inner", [{}])[0], ("MemberExpr",))
            return mem.get("name", "") if mem else ""
        ref = self._find_kind(n.get("inner", [{}])[0] if n.get("inner") else {},
                              ("DeclRefExpr",))
        return ref.get("referencedDecl", {}).get("name", "") if ref else ""

    def _member_call(self, n):
        name = self._callee_name(n)
        line = self.line
        if name == "notify":
            for arg in n.get("inner", [])[1:]:
                ref = self._find_kind(arg, ("DeclRefExpr",))
                if ref:
                    decl = ref.get("referencedDecl", {})
                    if str(decl.get("name", "")).startswith("k"):
                        return [("notify", decl.get("id"), decl.get("name"), line)]
            return []
        args = None
        if name == "store_flag":
            args = []
            for arg in n.get("inner", [])[1:]:
                lit = self._find_kind(arg, ("IntegerLiteral",))
                args.append("0" if lit and lit.get("value") == "0" else "x")
        return [("call", name, args, line)] if name else []

    def _free_call(self, n):
        name = self._callee_name(n)
        if not name or name in CALL_SKIP:
            return []
        return [("call", name, None, self.line)]

    def resolve_literals(self):
        """notify events carry VarDecl ids; rewrite them to literals."""
        def lit_of(decl_id, depth=0):
            if decl_id in self.var_lits:
                return self.var_lits[decl_id]
            if depth < 8 and decl_id in self.var_refs:
                return lit_of(self.var_refs[decl_id], depth + 1)
            return None

        def rewrite(node):
            kind = node[0]
            if kind in ("events", "ret"):
                return (kind, [("notify", lit_of(e[1]), e[2], e[3])
                               if e[0] == "notify" else e for e in node[1]])
            if kind == "seq":
                return ("seq", [rewrite(c) for c in node[1]])
            if kind == "block":
                return ("block", rewrite(node[1]))
            if kind == "if":
                head = [("notify", lit_of(e[1]), e[2], e[3])
                        if e[0] == "notify" else e for e in node[1]]
                return ("if", head, rewrite(node[2]),
                        rewrite(node[3]) if node[3] is not None else None)
            if kind == "loop":
                head = [("notify", lit_of(e[1]), e[2], e[3])
                        if e[0] == "notify" else e for e in node[1]]
                return ("loop", head, rewrite(node[2]))
            if kind == "try":
                return ("try", rewrite(node[1]), [rewrite(c) for c in node[2]])
            return node

        return [Func(q, c, b, f, l, rewrite(body))
                for q, c, b, f, l, body in self.funcs]


def ast_frontend(repo, cache_dir):
    clang = shutil.which("clang++") or shutil.which("clang")
    if clang is None:
        raise AstError("no clang on PATH")
    ccdb_path = repo / "compile_commands.json"
    if not ccdb_path.is_file():
        raise AstError("compile_commands.json not found (configure with CMake first)")
    try:
        ccdb = json.loads(ccdb_path.read_text())
    except json.JSONDecodeError as e:
        raise AstError(f"unreadable compile_commands.json: {e}") from e

    funcs = []
    seen_tus = 0
    for entry in ccdb:
        file = entry.get("file", "")
        rel = file
        if "/src/" in rel:
            rel = "src/" + rel.split("/src/", 1)[1]
        if not rel.startswith("src/"):
            continue
        args = entry.get("arguments") or shlex.split(entry.get("command", ""))
        cmd = [clang]
        skip = False
        for a in args[1:]:
            if skip:
                skip = False
                continue
            if a == "-o":
                skip = True
                continue
            if a == "-c":
                continue
            cmd.append(a)
        cmd += ["-fsyntax-only", "-Xclang", "-ast-dump=json", "-Wno-everything"]

        out = None
        key = None
        if cache_dir is not None:
            h = hashlib.sha256(" ".join(cmd).encode())
            try:
                h.update(Path(file).read_bytes())
            except OSError as e:
                raise AstError(f"cannot read {file}: {e}") from e
            key = cache_dir / (h.hexdigest() + ".json")
            if key.is_file():
                out = key.read_text()
        if out is None:
            try:
                proc = subprocess.run(cmd, cwd=entry.get("directory", str(repo)),
                                      capture_output=True, text=True, timeout=600)
            except (OSError, subprocess.TimeoutExpired) as e:
                raise AstError(f"clang failed on {rel}: {e}") from e
            if proc.returncode != 0:
                raise AstError(f"clang failed on {rel}: {proc.stderr.strip()[:400]}")
            out = proc.stdout
            if key is not None:
                cache_dir.mkdir(parents=True, exist_ok=True)
                key.write_text(out)
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as e:
            raise AstError(f"unparseable AST JSON for {rel}: {e}") from e
        conv = _AstConv(repo)
        conv.visit_tu(doc)
        funcs.extend(conv.resolve_literals())
        seen_tus += 1
    if seen_tus == 0:
        raise AstError("compile_commands.json names no src/ translation units")
    # Inline header functions appear once per TU; dedupe on (file, line, name).
    seen = set()
    out_funcs = []
    for f in funcs:
        sig = (f.file, f.line, f.qualname)
        if sig not in seen:
            seen.add(sig)
            out_funcs.append(f)
    return out_funcs


# --------------------------------------------------------------------------
# Path walker shared by V1/V2.


def walk(node, st, on_event):
    """Walks every path through `node`; returns (state, terminated)."""
    kind = node[0]
    if kind == "seq":
        for ch in node[1]:
            st, term = walk(ch, st, on_event)
            if term:
                return st, True
        return st, False
    if kind == "events":
        for ev in node[1]:
            on_event(st, ev)
        return st, False
    if kind == "ret":
        for ev in node[1]:
            on_event(st, ev)
        return st, True
    if kind == "block":
        tok = st.enter_block()
        st, term = walk(node[1], st, on_event)
        st.exit_block(tok)
        return st, term
    if kind == "if":
        for ev in node[1]:
            on_event(st, ev)
        branches = []
        st_t, term_t = walk(node[2], st.copy(), on_event)
        if not term_t:
            branches.append(st_t)
        if node[3] is not None:
            st_e, term_e = walk(node[3], st.copy(), on_event)
            if not term_e:
                branches.append(st_e)
        else:
            branches.append(st.copy())
        if not branches:
            return st, True
        out = branches[0]
        for s in branches[1:]:
            out.merge(s)
        return out, False
    if kind == "loop":
        for ev in node[1]:
            on_event(st, ev)
        st_b, term_b = walk(node[2], st.copy(), on_event)
        if not term_b:
            st.merge(st_b)  # join the zero- and one-iteration paths
        return st, False
    if kind == "try":
        branches = []
        st_b, term_b = walk(node[1], st.copy(), on_event)
        if not term_b:
            branches.append(st_b)
        for c in node[2]:
            st_c, term_c = walk(c, st.copy(), on_event)
            if not term_c:
                branches.append(st_c)
        if not branches:
            return st, True
        out = branches[0]
        for s in branches[1:]:
            out.merge(s)
        return out, False
    raise AssertionError(f"unknown node kind {kind!r}")


class OrderState:
    """Per-engine high-water mark of notified registry orders."""

    def __init__(self):
        self.seen = {}  # key -> (order, name, line)

    def copy(self):
        c = OrderState()
        c.seen = dict(self.seen)
        return c

    def merge(self, other):
        for key, val in other.seen.items():
            if key not in self.seen or val[0] > self.seen[key][0]:
                self.seen[key] = val

    def enter_block(self):
        return None

    def exit_block(self, tok):
        pass


class CoverState:
    """Whether a live obs::ScopedCost dominates the current point."""

    def __init__(self, covered=False):
        self.covered = covered

    def copy(self):
        return CoverState(self.covered)

    def merge(self, other):
        self.covered = self.covered and other.covered

    def enter_block(self):
        return self.covered

    def exit_block(self, tok):
        self.covered = tok


# --------------------------------------------------------------------------
# The analysis proper.

# Entry points: (qualname, protocol step, charge-scope required).  Every
# engine's transaction lifecycle requires V2 coverage; only the PERSEAS
# setup/teardown entries are exempt (see the module docstring).
ENTRIES = [
    ("Perseas::begin_transaction", "begin", True),
    ("Perseas::txn_set_range_impl", "set_range", True),
    ("Perseas::txn_commit_impl", "commit", True),
    ("Perseas::txn_abort_impl", "abort", True),
    ("Perseas::attach_recover", "recover", True),
    ("Perseas::persistent_malloc", "setup", False),
    ("Perseas::init_remote_db", "setup", False),
    ("Perseas::shutdown", "setup", False),
    ("Perseas::rebuild_mirror", "rebuild", False),
    ("Rvm::begin_transaction", "begin", True),
    ("Rvm::set_range", "set_range", True),
    ("Rvm::commit_transaction", "commit", True),
    ("Rvm::abort_transaction", "abort", True),
    ("Rvm::recover", "recover", True),
    ("Vista::begin_transaction", "begin", True),
    ("Vista::set_range", "set_range", True),
    ("Vista::commit_transaction", "commit", True),
    ("Vista::abort_transaction", "abort", True),
    ("Vista::recover", "recover", True),
    ("RemoteWal::begin_transaction", "begin", True),
    ("RemoteWal::set_range", "set_range", True),
    ("RemoteWal::commit_transaction", "commit", True),
    ("RemoteWal::abort_transaction", "abort", True),
    ("RemoteWal::recover", "recover", True),
    ("FsMirror::begin_transaction", "begin", True),
    ("FsMirror::set_range", "set_range", True),
    ("FsMirror::commit_transaction", "commit", True),
    ("FsMirror::abort_transaction", "abort", True),
    ("FsMirror::recover", "recover", True),
]

# V1b: registry phases an entry may notify directly.  Lazy-undo pushes
# ride inside commit, so commit may fire set_range-phase points.
PHASE_ALLOWED = {
    "begin": set(),
    "set_range": {"set_range", "undo"},
    "commit": {"commit", "set_range", "undo"},
    "abort": {"abort"},
    "recover": {"recover"},
    "setup": set(),
    "rebuild": {"rebuild"},
}

# V1c: protocol-store ranks on the PERSEAS lifecycle entries.  flag.clear
# is THE commit point; nothing protocol-visible may precede its log push.
OP_RANK = {"undo.push": 1, "flag.set": 2, "db.write": 3, "flag.clear": 4}
OP_ALLOWED = {
    "begin": set(),
    "set_range": {"undo.push"},
    "commit": {"undo.push", "flag.set", "db.write", "flag.clear"},
    "abort": set(),
    "recover": {"flag.clear"},
}

GROUP_OF = {"perseas": "perseas", "netram": "perseas", "rvm": "rvm", "vista": "vista"}
GROUP_ROOTS = {
    "perseas": [q for q, _, _ in ENTRIES if q.startswith("Perseas::")]
    + ["Perseas::txn_set_range", "Perseas::txn_commit", "Perseas::txn_abort"],
    "rvm": [q for q, _, _ in ENTRIES if q.startswith("Rvm::")],
    "vista": [q for q, _, _ in ENTRIES if q.startswith("Vista::")],
}

# tools/check-mc-report.py keeps the same fallback for reports predating
# the registry_engines field; src/mc/report.cpp is the source of truth.
ENGINE_DOMAINS = {
    "perseas": ["perseas", "netram"],
    "vista": ["vista"],
    "rvm-disk": ["rvm"],
    "rvm-disk-group": ["rvm"],
    "rvm-rio": ["rvm"],
    "rvm-nvram": ["rvm"],
}


def classify_op(event):
    """The protocol-store class of a direct call, or None."""
    name = event[1]
    if name == "push":
        return "undo.push"
    if name in ("propagate_ranges", "propagate_entries"):
        return "db.write"
    if name == "store_flag":
        args = event[2] or []
        if len(args) >= 3 and args[1] == "0" and args[2] == "0":
            return "flag.clear"
        return "flag.set"
    return None


class Analysis:
    def __init__(self, funcs, registry):
        self.funcs = funcs
        self.registry = registry
        self.by_base = {}
        self.by_qual = {}
        for f in funcs:
            self.by_base.setdefault(f.base, []).append(f)
            self.by_qual.setdefault(f.qualname, []).append(f)
        self.violations = []
        self.warnings = []
        self._unprot = {}
        self._onstack = set()

    def violation(self, check, func, line, message):
        self.violations.append({
            "check": check, "file": func.file if func else "",
            "line": line, "function": func.qualname if func else "",
            "message": message})

    def resolve(self, caller, name):
        cands = self.by_base.get(name)
        if not cands:
            return None
        if caller.cls:
            same = [c for c in cands if c.cls == caller.cls]
            if same:
                return same[0]
        if len({c.qualname for c in cands}) == 1:
            return cands[0]
        return None  # ambiguous: refuse to guess an edge

    # --- V1 ---------------------------------------------------------------

    def check_v1(self):
        entry_of = {q: (label, req) for q, label, req in ENTRIES}
        for f in self.funcs:
            if not f.file.startswith(ENGINE_DIRS):
                continue
            self._v1a(f)
            label = entry_of.get(f.qualname, (None, None))[0]
            if label is not None:
                self._v1b(f, label)
                if f.qualname.startswith("Perseas::") and label in OP_ALLOWED:
                    self._v1c(f, label)

    def _v1a(self, f):
        def ev(st, e):
            if e[0] != "notify" or e[1] is None or e[1] not in self.registry:
                return
            engine, _, order, _ = self.registry[e[1]]
            prev = st.seen.get(engine)
            if prev is not None and order < prev[0]:
                self.violation(
                    "V1", f, e[3],
                    f"write-ahead ordering: {e[1]} (order {order}) fires after "
                    f"{prev[1]} (order {prev[0]}, line {prev[2]}) on a path "
                    f"through {f.qualname}")
            if prev is None or order > prev[0]:
                st.seen[engine] = (order, e[1], e[3])

        walk(f.body, OrderState(), ev)

    def _v1b(self, f, label):
        allowed = PHASE_ALLOWED[label]
        for e in iter_events(f.body):
            if e[0] != "notify" or e[1] is None or e[1] not in self.registry:
                continue
            engine, phase, _, _ = self.registry[e[1]]
            if engine == "netram":
                continue  # transport points fire from any protocol step
            if phase not in allowed:
                self.violation(
                    "V1", f, e[3],
                    f"phase purity: {label} entry {f.qualname} directly notifies "
                    f"{e[1]} (phase {phase}; allowed: "
                    f"{', '.join(sorted(allowed)) or 'none'})")

    def _v1c(self, f, label):
        allowed = OP_ALLOWED[label]

        def ev(st, e):
            if e[0] != "call":
                return
            op = classify_op(e)
            if op is None:
                return
            if op not in allowed:
                self.violation(
                    "V1", f, e[3],
                    f"store discipline: {label} entry {f.qualname} performs "
                    f"{op} (allowed: {', '.join(sorted(allowed)) or 'none'})")
                return
            rank = OP_RANK[op]
            prev = st.seen.get("op")
            if prev is not None and rank < prev[0]:
                self.violation(
                    "V1", f, e[3],
                    f"store discipline: {op} follows {prev[1]} (line {prev[2]}) "
                    f"on a path through {f.qualname} — a store to record "
                    f"memory must not precede its write-ahead step")
            if prev is None or rank > prev[0]:
                st.seen["op"] = (rank, op, e[3])

        walk(f.body, OrderState(), ev)

    # --- V2 ---------------------------------------------------------------

    def unprotected(self, f):
        """A witness chain [(qualname, line), ...] ending at an uncovered
        SimClock charge reachable from `f` with no ScopedCost above it, or
        None when every charge inside `f` is internally covered."""
        key = f.qualname
        if key in self._unprot:
            return self._unprot[key]
        if key in self._onstack:
            return None
        self._onstack.add(key)
        hit = []

        def ev(st, e):
            if hit:
                return
            if e[0] == "scope":
                st.covered = True
            elif e[0] == "call" and not st.covered:
                if e[1] == "advance":
                    hit.append([(f.qualname, e[3]), ("sim::SimClock::advance", e[3])])
                else:
                    callee = self.resolve(f, e[1])
                    if callee is not None:
                        sub = self.unprotected(callee)
                        if sub is not None:
                            hit.append([(f.qualname, e[3])] + sub)

        walk(f.body, CoverState(False), ev)
        self._onstack.discard(key)
        result = hit[0] if hit else None
        self._unprot[key] = result
        return result

    def check_v2(self):
        exempt = []
        for qualname, label, required in ENTRIES:
            funcs = self.by_qual.get(qualname)
            if not funcs:
                continue  # reported by check_entries
            f = funcs[0]
            if not required:
                exempt.append({"function": qualname, "step": label})
                continue
            reported = set()

            def ev(st, e, f=f, reported=reported):
                if e[0] == "scope":
                    st.covered = True
                    return
                if e[0] != "call" or st.covered:
                    return
                chain = None
                if e[1] == "advance":
                    chain = [(f.qualname, e[3]), ("sim::SimClock::advance", e[3])]
                else:
                    callee = self.resolve(f, e[1])
                    if callee is not None:
                        sub = self.unprotected(callee)
                        if sub is not None:
                            chain = [(f.qualname, e[3])] + sub
                if chain is not None and (e[1], e[3]) not in reported:
                    reported.add((e[1], e[3]))
                    trail = " -> ".join(f"{q}:{ln}" for q, ln in chain)
                    self.violation(
                        "V2", f, e[3],
                        f"uncovered charge: {e[1]}() charges SimClock with no "
                        f"live obs::ScopedCost ({trail})")

            walk(f.body, CoverState(False), ev)
        return exempt

    # --- V3 ---------------------------------------------------------------

    def reachable_points(self):
        out = {}
        for group, roots in GROUP_ROOTS.items():
            seen = set()
            work = []
            for q in roots:
                for f in self.by_qual.get(q, []):
                    if f.qualname not in seen:
                        seen.add(f.qualname)
                        work.append(f)
            points = {}
            while work:
                f = work.pop()
                for e in iter_events(f.body):
                    if e[0] == "notify" and e[1] in self.registry:
                        points.setdefault(e[1], (f.qualname, e[3]))
                    elif e[0] == "call":
                        callee = self.resolve(f, e[1])
                        if callee is not None and callee.qualname not in seen:
                            seen.add(callee.qualname)
                            work.append(callee)
            out[group] = points
        return out

    def check_v3(self, reach, mc_docs):
        for literal, (engine, _, _, mc) in sorted(self.registry.items()):
            group = GROUP_OF.get(engine)
            if group is None or literal in reach.get(group, {}):
                continue
            self.violation(
                "V3", None, 0,
                f"dead instrumentation: registry row {literal} is not "
                f"statically reachable from the {group} entry points")

        mc_summary = []
        for label, doc in mc_docs:
            fired = {row["point"] for row in doc.get("points", [])}
            fired |= {row["point"] for row in doc.get("recovery_points", [])}
            domains = doc.get("registry_engines") or \
                ENGINE_DOMAINS.get(doc.get("engine"), [])
            if not domains:
                self.warnings.append(
                    f"{label}: no registry domain for mc engine "
                    f"{doc.get('engine')!r}; V3 cross-check skipped")
                continue
            dynamic_only = static_unfired = 0
            for domain in domains:
                group = GROUP_OF[domain]
                static = {p for p in reach.get(group, {})
                          if p.startswith(domain + ".")}
                fired_d = {p for p in fired if p.startswith(domain + ".")}
                for p in sorted(fired_d - static):
                    dynamic_only += 1
                    self.violation(
                        "V3", None, 0,
                        f"dynamic-only point: {label} fired {p} but the static "
                        f"frontend never reaches it from the {group} entry "
                        f"points — the verifier lost a call edge")
                for p in sorted(static - fired_d):
                    static_unfired += 1
                    if self.registry[p][3]:
                        self.warnings.append(
                            f"{label}: mc-reachable point {p} is statically "
                            f"reachable but this sweep never fired it")
            mc_summary.append({"report": label, "engine": doc.get("engine"),
                               "fired": len(fired), "dynamic_only": dynamic_only,
                               "static_unfired": static_unfired})
        return mc_summary

    def check_entries(self):
        found = []
        for qualname, label, required in ENTRIES:
            funcs = self.by_qual.get(qualname)
            if not funcs:
                self.violation(
                    "V1", None, 0,
                    f"entry point {qualname} not found by the frontend "
                    f"(renamed? update tools/perseas-verify.py ENTRIES)")
                continue
            f = funcs[0]
            found.append({"function": qualname, "step": label,
                          "charge": "require" if required else "exempt",
                          "file": f.file, "line": f.line})
        return found


def analyze(tree, mc_docs=(), funcs=None, frontend="internal"):
    constants, registry = parse_registry(tree)
    if not registry:
        return {"schema": SCHEMA, "frontend": frontend, "files": 0,
                "functions": 0, "entry_points": [], "checks": {},
                "reachable": {}, "mc_reports": [], "warnings": [],
                "violations": [{"check": "V3", "file": REGISTRY_HPP, "line": 0,
                                "function": "",
                                "message": "failure-point registry not found"}],
                "ok": False}
    if funcs is None:
        funcs = internal_frontend(tree, constants)
    a = Analysis(funcs, registry)
    entries = a.check_entries()
    a.check_v1()
    exempt = a.check_v2()
    reach = a.reachable_points()
    mc_summary = a.check_v3(reach, mc_docs)
    counts = {"V1": 0, "V2": 0, "V3": 0}
    for v in a.violations:
        counts[v["check"]] += 1
    return {
        "schema": SCHEMA,
        "frontend": frontend,
        "files": len({f.file for f in funcs}),
        "functions": len(funcs),
        "entry_points": entries,
        "checks": {
            "V1": {"violations": counts["V1"]},
            "V2": {"violations": counts["V2"], "exempt": exempt},
            "V3": {"violations": counts["V3"], "mc_reports": mc_summary},
        },
        "reachable": {g: sorted(pts) for g, pts in reach.items()},
        "mc_reports": [label for label, _ in mc_docs],
        "warnings": a.warnings,
        "violations": a.violations,
        "ok": not a.violations,
    }


# --------------------------------------------------------------------------
# Selftest: seed one violation per check, require all three to be caught.

SEED_FILE = "src/core/perseas.cpp"
SEED_BEFORE_CLEAR = "    cluster_->failures().notify(points::kBeforeFlagClear);\n"
SEED_AFTER_CLEAR = "    cluster_->failures().notify(points::kAfterFlagClear);"
SEED_SCOPE = ('  const obs::ScopedCost cost_scope(cluster_->sinks(), txn_id, '
              '"commit", "core", "cpu");\n')


def selftest(repo):
    tree = load_tree(repo)
    src = tree.get(SEED_FILE, "")
    for needle, what in ((SEED_BEFORE_CLEAR, "kBeforeFlagClear notify"),
                         (SEED_AFTER_CLEAR, "kAfterFlagClear notify"),
                         (SEED_SCOPE, "commit ScopedCost")):
        if needle not in src:
            print(f"selftest: seed anchor missing from {SEED_FILE}: {what}",
                  file=sys.stderr)
            return 2

    clean = analyze(tree)
    if clean["violations"]:
        for v in clean["violations"]:
            print(format_violation(v), file=sys.stderr)
        print("selftest: the unseeded tree must verify clean", file=sys.stderr)
        return 1

    status = 0

    # V1: move the before_flag_clear notify after after_flag_clear — the
    # announcement of the propagation window now fires out of order.
    t1 = dict(tree)
    t1[SEED_FILE] = t1[SEED_FILE].replace(SEED_BEFORE_CLEAR, "", 1).replace(
        SEED_AFTER_CLEAR,
        SEED_AFTER_CLEAR + "\n" + SEED_BEFORE_CLEAR.rstrip("\n"), 1)
    r1 = analyze(t1)
    hits = [v for v in r1["violations"]
            if v["check"] == "V1" and "before_flag_clear" in v["message"]]
    status |= _seed_result("V1", hits, "reordered notify in txn_commit_impl")

    # V2: delete commit's ScopedCost — its charges lose their cost scope.
    t2 = dict(tree)
    t2[SEED_FILE] = t2[SEED_FILE].replace(SEED_SCOPE, "", 1)
    r2 = analyze(t2)
    hits = [v for v in r2["violations"]
            if v["check"] == "V2" and v["function"] == "Perseas::txn_commit_impl"]
    status |= _seed_result("V2", hits, "deleted ScopedCost in txn_commit_impl")

    # V3: delete the notify entirely, then replay a synthetic mc report
    # (built from the registry) that still fired it — a dynamic-only point.
    t3 = dict(tree)
    t3[SEED_FILE] = t3[SEED_FILE].replace(SEED_BEFORE_CLEAR, "", 1)
    _, registry = parse_registry(tree)
    synth = {
        "engine": "perseas",
        "registry_engines": ["perseas", "netram"],
        "points": [{"point": lit, "hits": 1}
                   for lit, (eng, _, _, mc) in sorted(registry.items())
                   if mc and eng in ("perseas", "netram")],
        "recovery_points": [],
    }
    r3 = analyze(t3, mc_docs=[("synthetic-mc", synth)])
    hits = [v for v in r3["violations"]
            if v["check"] == "V3" and "dynamic-only" in v["message"]
            and "before_flag_clear" in v["message"]]
    status |= _seed_result("V3", hits, "deleted notify + synthetic mc report")

    print("selftest: " + ("OK (3/3 checks fire)" if status == 0 else "FAILED"))
    return status


def _seed_result(check, hits, what):
    if hits:
        print(f"selftest: {check}: caught seeded violation ({what}): "
              f"{hits[0]['message']}")
        return 0
    print(f"selftest: {check}: MISSED seeded violation ({what})", file=sys.stderr)
    return 1


# --------------------------------------------------------------------------


def format_violation(v):
    where = f"{v['file']}:{v['line']}" if v["file"] else "(registry)"
    return f"{where}: [{v['check']}] {v['message']}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=REPO)
    parser.add_argument("--frontend", choices=("auto", "ast", "internal"),
                        default="internal",
                        help="statement-tree frontend (default: internal; "
                             "'auto' prefers clang AST dumps when clang and "
                             "compile_commands.json are available)")
    parser.add_argument("--ast-cache", type=Path, default=None,
                        help="directory for per-TU AST-dump caching (CI)")
    parser.add_argument("--mc-report", action="append", default=[],
                        help="perseas-mc/1 report to cross-check (V3); repeatable")
    parser.add_argument("--report", default=None,
                        help=f"write a {SCHEMA} JSON report here ('-' = stdout)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    repo = args.repo.resolve()

    if args.selftest:
        return selftest(repo)

    mc_docs = []
    for path in args.mc_report:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"perseas-verify: cannot read mc report {path}: {e}",
                  file=sys.stderr)
            return 2
        if doc.get("schema") != "perseas-mc/1":
            print(f"perseas-verify: {path} is not a perseas-mc/1 report",
                  file=sys.stderr)
            return 2
        mc_docs.append((path, doc))

    try:
        tree = load_tree(repo)
    except OSError as e:
        print(f"perseas-verify: cannot read tree: {e}", file=sys.stderr)
        return 2
    if not tree:
        print(f"perseas-verify: no src/ files under {repo}", file=sys.stderr)
        return 2

    frontend = args.frontend
    funcs = None
    ast_warning = None
    if frontend in ("ast", "auto"):
        try:
            funcs = ast_frontend(repo, args.ast_cache)
            frontend = "ast"
        except AstError as e:
            if args.frontend == "ast":
                print(f"perseas-verify: AST frontend failed: {e}", file=sys.stderr)
                return 2
            ast_warning = f"AST frontend unavailable ({e}); fell back to internal"
            frontend = "internal"

    result = analyze(tree, mc_docs=mc_docs, funcs=funcs, frontend=frontend)
    if ast_warning:
        result["warnings"].insert(0, ast_warning)

    if args.report:
        text = json.dumps(result, indent=2) + "\n"
        if args.report == "-":
            sys.stdout.write(text)
        else:
            Path(args.report).write_text(text)

    for w in result["warnings"]:
        print(f"perseas-verify: warning: {w}", file=sys.stderr)
    for v in result["violations"]:
        print(format_violation(v))
    if result["violations"]:
        n = len(result["violations"])
        print(f"perseas-verify: {n} violation{'s' if n != 1 else ''}")
        return 1
    reach = result["reachable"]
    print(f"perseas-verify: clean (frontend={result['frontend']}, "
          f"{result['files']} files, {result['functions']} functions, "
          f"{len(result['entry_points'])} entry points; static points: "
          + " ".join(f"{g}={len(reach[g])}" for g in sorted(reach)) + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
