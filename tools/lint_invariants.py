#!/usr/bin/env python3
"""Repo-invariant linter: concurrency and error-handling rules that the
compiler alone does not enforce (and that clang's thread-safety analysis
assumes as preconditions).

Rules, each with its rationale:

  mutex-types      src/ outside util/mutex.h must not name std::mutex,
                   std::condition_variable(_any), std::lock_guard,
                   std::unique_lock, std::scoped_lock, or std::shared_mutex.
                   Thread-safety analysis only sees annotated capability
                   types; a raw std::mutex member is invisible to it, so
                   every lock must go through tkc::Mutex / tkc::MutexLock /
                   tkc::CondVar (util/mutex.h is their one implementation
                   site).

  mutex-annotated  Every `Mutex` member declared in a src/ header or .cc
                   must be referenced by at least one TKC_* annotation in
                   the same file (GUARDED_BY / REQUIRES / ACQUIRE / ...),
                   or carry an explicit waiver comment on an adjacent line:
                       // lint: standalone-mutex(<member>): <reason>
                   An unreferenced mutex guards nothing the analysis can
                   check — it is either dead or hiding an unstated
                   protocol.

  nodiscard        Every free-function declaration in a src/ header whose
                   return type is Status or StatusOr<...> must be marked
                   [[nodiscard]] (util/status.h itself is exempt: the
                   classes carry a class-level [[nodiscard]], and the
                   header declares Status-returning members/factories whose
                   discard already warns through the class attribute).

  sleep-for        std::this_thread::sleep_for is banned in src/ outside
                   src/util/: a sleep in product code is either a latency
                   bug or an unsynchronized wait. Injected stalls go
                   through FaultStallIfArmed (util/fault_injection.h);
                   genuine timed waits go through CondVar::WaitUntil.

  relaxed-comment  Every memory_order_relaxed use in src/ must carry a
                   justifying comment containing the word "relaxed" on the
                   same line or within the 4 preceding lines. Relaxed
                   atomics are correct only under an argument the type
                   system cannot see; the argument must live next to the
                   code.

  options-caller   Every field of a `*Options` struct declared under
                   src/serve or src/net must be assigned (`.field =` or
                   `->field =`, possibly through a nested member such as
                   `options.engine.pool =`) somewhere in src/, bench/,
                   examples/ or e2ebench/ — tests/ does not count. A field
                   only tests set needs a waiver on the comment lines
                   directly above it (or on its own line):
                       // lint: test-only-option(<field>): <reason>
                   An assignment to a class's own `options_` copy (a clamp
                   of the caller's value) is not a caller. A knob nothing
                   sets is dead surface: its default is the behaviour, so
                   it belongs in a constant. The match is by field name,
                   so a same-named field of another struct also counts.

Exit status: 0 when clean, 1 with one `file:line: [rule] message` per
violation otherwise.
"""

import argparse
import os
import re
import sys

MUTEX_IMPL = os.path.join("util", "mutex.h")

BANNED_SYNC = re.compile(
    r"std::(mutex|condition_variable(_any)?|lock_guard|unique_lock"
    r"|scoped_lock|shared_mutex|shared_lock)\b"
)
MUTEX_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:tkc::)?Mutex\s+(\w+)\s*;"
)
WAIVER = re.compile(r"//\s*lint:\s*standalone-mutex\((\w+)\)\s*:\s*\S")
TKC_ANNOTATION = re.compile(r"TKC_[A-Z_]+\(([^)]*)\)")
STATUS_DECL = re.compile(
    r"^(?:(?P<attrs>(?:\[\[[^\]]*\]\]\s*)+))?"
    r"(?:static\s+|inline\s+|friend\s+|constexpr\s+)*"
    r"(?:tkc::)?Status(?:Or<.*>)?\s+\w+\s*\("
)
OPTIONS_STRUCT = re.compile(r"^\s*struct\s+(\w+Options)\s*\{")
OPTION_FIELD = re.compile(
    r"^\s*(?:const\s+)?[\w:<>*,\s]*?[\w>*]\s+\**(\w+)\s*(?:=[^=].*|\{.*\})?;")
OPTION_WAIVER = re.compile(r"//\s*lint:\s*test-only-option\((\w+)\)\s*:\s*\S")
OPTION_DIRS = ("serve", "net")
CALLER_DIRS = ("bench", "examples", "e2ebench")
SLEEP_FOR = re.compile(r"sleep_for\s*\(")
RELAXED = re.compile(r"memory_order_relaxed")
RELAXED_COMMENT = re.compile(r"//.*relaxed", re.IGNORECASE)
RELAXED_WINDOW = 4


def strip_comments_keep_lines(text):
    """Blanks out // and /* */ comment bodies (and string literals), keeping
    line structure, so code patterns never match inside prose."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        if state == "code":
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            out.append(c)
        elif state in ("line", "block"):
            if state == "line" and c == "\n":
                state = "code"
                out.append(c)
            elif state == "block" and c == "*" and i + 1 < n and \
                    text[i + 1] == "/":
                state = "code"
                out.append("  ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
        elif state == "str":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
            out.append(c if c != "\n" else "\n")
        elif state == "chr":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def check_file(path, rel, violations):
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    raw_lines = raw.splitlines()
    code = strip_comments_keep_lines(raw)
    code_lines = code.splitlines()

    in_mutex_impl = rel.replace(os.sep, "/").endswith("util/mutex.h")
    in_util = rel.replace(os.sep, "/").startswith("util/")
    is_header = rel.endswith(".h")
    is_status_h = rel.replace(os.sep, "/").endswith("util/status.h")

    # mutex-types
    if not in_mutex_impl:
        for lineno, line in enumerate(code_lines, 1):
            m = BANNED_SYNC.search(line)
            if m:
                violations.append(
                    (rel, lineno, "mutex-types",
                     f"{m.group(0)} is banned outside util/mutex.h; use "
                     "tkc::Mutex / tkc::MutexLock / tkc::CondVar"))

    # mutex-annotated
    if not in_mutex_impl:
        annotated = set()
        for line in code_lines:
            for m in TKC_ANNOTATION.finditer(line):
                for arg in m.group(1).split(","):
                    annotated.add(arg.strip().lstrip("!&*").split("->")[-1]
                                  .split(".")[-1])
        for lineno, line in enumerate(code_lines, 1):
            m = MUTEX_MEMBER.match(line)
            if not m:
                continue
            name = m.group(1)
            if name in annotated:
                continue
            nearby = raw_lines[max(0, lineno - 2):lineno + 1]
            waived = any(
                (w := WAIVER.search(l)) and w.group(1) == name
                for l in nearby)
            if not waived:
                violations.append(
                    (rel, lineno, "mutex-annotated",
                     f"Mutex member '{name}' is referenced by no TKC_* "
                     "annotation in this file; annotate what it guards or "
                     f"waive with '// lint: standalone-mutex({name}): "
                     "<reason>'"))

    # nodiscard (headers only; util/status.h exempt — class-level attribute)
    if is_header and not is_status_h:
        for lineno, line in enumerate(code_lines, 1):
            m = STATUS_DECL.match(line)
            if m and (m.group("attrs") is None
                      or "nodiscard" not in m.group("attrs")):
                violations.append(
                    (rel, lineno, "nodiscard",
                     "Status/StatusOr-returning declaration without "
                     "[[nodiscard]]"))

    # sleep-for
    if not in_util:
        for lineno, line in enumerate(code_lines, 1):
            if SLEEP_FOR.search(line):
                violations.append(
                    (rel, lineno, "sleep-for",
                     "sleep_for outside src/util/; use FaultStallIfArmed "
                     "or CondVar::WaitUntil"))

    # relaxed-comment
    for lineno, line in enumerate(code_lines, 1):
        if not RELAXED.search(line):
            continue
        window = raw_lines[max(0, lineno - 1 - RELAXED_WINDOW):lineno]
        if not any(RELAXED_COMMENT.search(l) for l in window):
            violations.append(
                (rel, lineno, "relaxed-comment",
                 "memory_order_relaxed without a justifying comment "
                 "containing 'relaxed' on this line or the 4 preceding "
                 "lines"))


def option_fields(path):
    """(struct, field, line) for every data member of every `*Options`
    struct in `path`, plus the set of fields waived as test-only."""
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    raw_lines = raw.splitlines()
    code_lines = strip_comments_keep_lines(raw).splitlines()
    fields = []
    waived = set()
    struct, depth = None, 0
    for lineno, line in enumerate(code_lines, 1):
        if struct is None:
            m = OPTIONS_STRUCT.match(line)
            if m:
                struct, depth = m.group(1), line.count("{") - line.count("}")
            continue
        if depth == 1:
            m = OPTION_FIELD.match(line)
            if m and "(" not in line.split("=")[0]:
                field = m.group(1)
                fields.append((struct, field, lineno))
                # The waiver sits on the field's line or in the comment
                # block directly above it.
                i = lineno - 1
                block = [raw_lines[i]]
                while i > 0 and raw_lines[i - 1].strip().startswith("//"):
                    i -= 1
                    block.append(raw_lines[i])
                if any((w := OPTION_WAIVER.search(l)) and w.group(1) == field
                       for l in block):
                    waived.add(field)
        depth += line.count("{") - line.count("}")
        if depth <= 0:
            struct = None
    return fields, waived


def assigned_fields(roots):
    """Names assigned through `.name =` / `->name =` anywhere under `roots`,
    except through a class's own `options_` copy."""
    assign = re.compile(
        r"(\w+)?\s*(?:\.|->)\s*(\w+)((?:\s*(?:\.|->)\s*\w+)*)\s*=(?!=)")
    names = set()
    for root in roots:
        if not os.path.isdir(root):
            continue
        for dirpath, _, filenames in sorted(os.walk(root)):
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".cpp")):
                    continue
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    code = strip_comments_keep_lines(f.read())
                for m in assign.finditer(code):
                    if m.group(1) == "options_":
                        continue
                    names.add(m.group(2))
                    for part in re.findall(r"\w+", m.group(3)):
                        names.add(part)
    return names


def check_option_callers(src_root, violations):
    """The options-caller rule over `src_root` (the repo's src/) and its
    sibling caller directories."""
    repo = os.path.dirname(src_root)
    assigned = assigned_fields(
        [src_root] + [os.path.join(repo, d) for d in CALLER_DIRS])
    for sub in OPTION_DIRS:
        base = os.path.join(src_root, sub)
        if not os.path.isdir(base):
            continue
        for name in sorted(os.listdir(base)):
            if not name.endswith(".h"):
                continue
            path = os.path.join(base, name)
            rel = os.path.relpath(path, src_root)
            fields, waived = option_fields(path)
            for struct, field, lineno in fields:
                if field in assigned or field in waived:
                    continue
                violations.append(
                    (rel, lineno, "options-caller",
                     f"{struct}::{field} is assigned nowhere in src/, "
                     "bench/, examples/ or e2ebench/; make it a constant, "
                     f"or waive with '// lint: test-only-option({field}): "
                     "<reason>'"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="source root to lint (default: <repo>/src)")
    args = parser.parse_args()

    root = args.root
    if root is None:
        root = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src")
    root = os.path.abspath(root)

    violations = []
    for dirpath, _, filenames in sorted(os.walk(root)):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            check_file(path, rel, violations)
    check_option_callers(root, violations)

    for rel, lineno, rule, message in violations:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_invariants: clean ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
