#!/usr/bin/env python3
"""Report header-declared functions that nothing calls.

Lists every function or method declared in a ``src/**/*.hpp`` whose name
appears nowhere in ``src/``, ``tools/``, ``bench/``, ``examples/`` or
``perfbench/`` apart from its own declarations and definitions (the
"no caller" list), and, separately, the ones that only ``tests/`` use
(the "test-only" list). Report only: the exit status is always 0.

    python3 tools/dead_api.py [--root DIR]

The scan is name-based and deliberately conservative: comments, string
literals and preprocessor lines are dropped (identifiers in a `#define`
body count as uses), function bodies are skipped when collecting
declarations, and any other occurrence of the name counts as a use. A name shared by several overloads, or with an unrelated
function elsewhere, is therefore reported only when every one of them is
unused. Constructors, destructors and operators are never reported.
"""

import argparse
import os
import re

LIBRARY_DIRS = ("src", "tools", "bench", "examples", "perfbench")
TEST_DIRS = ("tests",)
CODE_EXTS = (".hpp", ".h", ".cpp", ".cc")

SCOPE_KEYWORDS = {"namespace", "class", "struct", "union", "enum"}
NOT_A_DECLARATOR = {
    "alignas", "alignof", "decltype", "noexcept", "operator", "sizeof",
    "static_assert", "requires", "__attribute__",
}
IDENT = re.compile(r"[A-Za-z_]\w*")
SCOPE_NAME = re.compile(r"\b(?:class|struct|union)\s+(?:\w+\s+)*?"
                        r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^:]|$)")


def blank(text):
    return re.sub(r"[^\n]", " ", text)


def strip_code(text):
    """Blank out comments, string/char literals and preprocessor lines,
    keeping every character position so offsets map to line numbers.
    Returns the stripped code and the identifiers of `#define` bodies (a
    function a macro calls is used wherever the macro expands)."""
    out = []
    macro_words = []
    i, n = 0, len(text)
    line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            out.append(c)
            line_start = True
            i += 1
        elif c in " \t":
            out.append(c)
            i += 1
        elif line_start and c == "#":
            # Preprocessor directive, with backslash continuations.
            j = i
            while j < n and text[j] != "\n":
                j += 2 if text.startswith("\\\n", j) else 1
            define = re.match(r"#\s*define\s+\w+", text[i:j])
            if define:
                body, _ = strip_code(text[i + define.end():j])
                macro_words += IDENT.findall(body)
            out.append(blank(text[i:j]))
            i = j
        elif text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(blank(text[i:j]))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(blank(text[i:j]))
            i = j
        elif text.startswith('R"', i) and not (
                i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_")):
            paren = text.find("(", i + 2)
            delim = text[i + 2:paren]
            j = text.find(")" + delim + '"', paren)
            j = n if j < 0 else j + len(delim) + 2
            out.append(blank(text[i:j]))
            i = j
        elif c in "\"'" and not (c == "'" and i > 0 and text[i - 1].isalnum()):
            # (a quote after a digit is a C++14 digit separator)
            j = i + 1
            while j < n and text[j] not in (c, "\n"):
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(blank(text[i:j]))
            i = j
        else:
            line_start = False
            out.append(c)
            i += 1
    return "".join(out), macro_words


def closing(code, i, open_ch, close_ch):
    """Index just past the bracket that closes the one at `i`."""
    depth = 0
    for j in range(i, len(code)):
        if code[j] == open_ch:
            depth += 1
        elif code[j] == close_ch:
            depth -= 1
            if depth == 0:
                return j + 1
    return len(code)


def declared_function(statement):
    """(name, offset, qualifier) of the function that a declaration-scope
    statement declares or defines, or None when it declares none."""
    words = IDENT.findall(statement)
    if not words or words[0] in ("using", "typedef", "friend"):
        return None
    depth = 0  # template argument lists
    for k, ch in enumerate(statement):
        if ch == "<":
            depth += 1
        elif ch == ">" and depth > 0:
            depth -= 1
        elif ch == "=" and depth == 0:
            return None  # an initializer, `= delete` or an operator
        elif ch == "(" and depth == 0:
            head = statement[:k].rstrip()
            m = re.search(r"(~?)([A-Za-z_]\w*)$", head)
            if not m or m.group(1) or m.group(2) in NOT_A_DECLARATOR:
                return None
            before = head[:m.start(2)]
            if re.search(r"\boperator\s*$", before):
                return None
            qualifier = re.search(r"(\w+)\s*::\s*$", before)
            return (m.group(2), m.start(2),
                    qualifier.group(1) if qualifier else None)
    return None


def scan(code):
    """Function declarations and definitions at namespace/class scope of
    stripped code: a list of (name, offset, owning class or "")."""
    found = []
    scopes = []  # owning class name per open scope ("" for namespaces)
    start = 0
    i, n = 0, len(code)

    def record(end):
        decl = declared_function(code[start:end])
        if decl is None:
            return
        name, off, qualifier = decl
        owner = qualifier or next((s for s in reversed(scopes) if s), "")
        if name != owner:  # constructors are not API to delete
            found.append((name, start + off, owner))

    while i < n:
        c = code[i]
        if c == "(":
            i = closing(code, i, "(", ")")
            continue
        if c == "{":
            words = set(IDENT.findall(code[start:i]))
            if words & SCOPE_KEYWORDS and "(" not in code[start:i]:
                m = SCOPE_NAME.search(code[start:i].strip())
                scopes.append(m.group(1) if m and "namespace" not in words
                              else "")
                start = i = i + 1
                continue
            record(i)  # a definition: skip its body (or an initializer)
            start = i = closing(code, i, "{", "}")
            continue
        if c == ";":
            record(i)
            start = i + 1
        elif c == "}":
            if scopes:
                scopes.pop()
            start = i + 1
        i += 1
    return found


def code_files(root, dirs):
    for top in dirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CODE_EXTS):
                    yield os.path.join(dirpath, name)


def count_uses(root, dirs, uses):
    """Add every identifier occurrence outside a declaration to `uses`."""
    for path in code_files(root, dirs):
        with open(path, encoding="utf-8", errors="replace") as f:
            code, macro_words = strip_code(f.read())
        declared = {off for _, off, _ in scan(code)}
        words = [m.group() for m in IDENT.finditer(code)
                 if m.start() not in declared]
        for word in words + macro_words:
            uses[word] = uses.get(word, 0) + 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the parent of tools/)")
    args = parser.parse_args()

    api = {}  # name -> first (path:line, qualified name) declaring it
    for path in code_files(args.root, ("src",)):
        if not path.endswith(".hpp"):
            continue
        with open(path, encoding="utf-8", errors="replace") as f:
            code, _ = strip_code(f.read())
        rel = os.path.relpath(path, args.root)
        for name, off, owner in scan(code):
            line = code.count("\n", 0, off) + 1
            qualified = owner + "::" + name if owner else name
            api.setdefault(name, ("%s:%d" % (rel, line), qualified))

    library_uses, test_uses = {}, {}
    count_uses(args.root, LIBRARY_DIRS, library_uses)
    count_uses(args.root, TEST_DIRS, test_uses)

    unused = sorted(api[name] for name in api if name not in library_uses)
    no_caller = [e for e in unused if e[1].split("::")[-1] not in test_uses]
    test_only = [e for e in unused if e[1].split("::")[-1] in test_uses]

    print("dead_api: %d function names declared in src/**/*.hpp"
          % len(api))
    print("no caller outside their own declaration/definition (%d):"
          % len(no_caller))
    for where, name in no_caller:
        print("  %-48s %s" % (where, name))
    print("called only from tests/ (%d):" % len(test_only))
    for where, name in test_only:
        print("  %-48s %s" % (where, name))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
