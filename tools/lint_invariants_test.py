#!/usr/bin/env python3
"""Unit tests for tools/lint_invariants.py: one passing and one failing
fixture per rule, run against a synthetic source tree so the test never
depends on the real repo's contents."""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_invariants  # noqa: E402


class LintInvariantsTest(unittest.TestCase):
    def lint(self, rel_path, content):
        """Writes one file into a temp tree and returns its violations as
        (rule, line) pairs."""
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, rel_path)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
            violations = []
            lint_invariants.check_file(path, rel_path, violations)
            return [(rule, line) for (_, line, rule, _) in violations]

    def rules(self, rel_path, content):
        return {rule for (rule, _) in self.lint(rel_path, content)}

    # --- mutex-types --------------------------------------------------------

    def test_std_mutex_banned_outside_util_mutex(self):
        self.assertIn("mutex-types",
                      self.rules("serve/foo.h", "std::mutex mu_;\n"))

    def test_std_lock_guard_banned(self):
        self.assertIn(
            "mutex-types",
            self.rules("serve/foo.cc",
                       "void F() { std::lock_guard<std::mutex> l(mu_); }\n"))

    def test_util_mutex_h_may_use_std_mutex(self):
        self.assertEqual(set(),
                         self.rules("util/mutex.h", "std::mutex mu_;\n"))

    def test_std_mutex_in_comment_is_fine(self):
        self.assertEqual(
            set(), self.rules("serve/foo.h", "// not std::mutex anymore\n"))

    # --- mutex-annotated ----------------------------------------------------

    def test_unreferenced_mutex_member_flagged(self):
        self.assertIn("mutex-annotated",
                      self.rules("serve/foo.h", "mutable Mutex mu_;\n"))

    def test_guarded_by_reference_satisfies(self):
        src = "mutable Mutex mu_;\nint x_ TKC_GUARDED_BY(mu_);\n"
        self.assertEqual(set(), self.rules("serve/foo.h", src))

    def test_excludes_reference_satisfies(self):
        src = "void F() TKC_EXCLUDES(mu_);\nMutex mu_;\n"
        self.assertEqual(set(), self.rules("serve/foo.h", src))

    def test_waiver_comment_satisfies(self):
        src = ("// lint: standalone-mutex(mu_): guards an external "
               "resource, not a member\nMutex mu_;\n")
        self.assertEqual(set(), self.rules("serve/foo.h", src))

    def test_waiver_for_other_name_does_not_satisfy(self):
        src = "// lint: standalone-mutex(other_): reason\nMutex mu_;\n"
        self.assertIn("mutex-annotated", self.rules("serve/foo.h", src))

    # --- nodiscard ----------------------------------------------------------

    def test_status_decl_without_nodiscard_flagged(self):
        self.assertIn("nodiscard",
                      self.rules("vct/foo.h", "Status Save(int x);\n"))

    def test_statusor_decl_without_nodiscard_flagged(self):
        self.assertIn(
            "nodiscard",
            self.rules("vct/foo.h", "StatusOr<Index> Load(int x);\n"))

    def test_nodiscard_decl_passes(self):
        self.assertEqual(
            set(),
            self.rules("vct/foo.h", "[[nodiscard]] Status Save(int x);\n"))

    def test_cc_files_not_checked_for_nodiscard(self):
        # Definitions repeat the header's declaration; the attribute lives
        # on the declaration only.
        self.assertEqual(set(),
                         self.rules("vct/foo.cc", "Status Save(int x) {\n"))

    def test_status_h_exempt(self):
        self.assertEqual(
            set(), self.rules("util/status.h", "Status ToStatus(int x);\n"))

    # --- sleep-for ----------------------------------------------------------

    def test_sleep_for_banned_outside_util(self):
        src = "void F() { std::this_thread::sleep_for(ms); }\n"
        self.assertIn("sleep-for", self.rules("serve/foo.cc", src))

    def test_sleep_for_allowed_in_util(self):
        src = "void F() { std::this_thread::sleep_for(ms); }\n"
        self.assertEqual(set(), self.rules("util/foo.cc", src))

    # --- relaxed-comment ----------------------------------------------------

    def test_uncommented_relaxed_flagged(self):
        src = "x.load(std::memory_order_relaxed);\n"
        self.assertIn("relaxed-comment", self.rules("serve/foo.cc", src))

    def test_same_line_comment_satisfies(self):
        src = "x.load(std::memory_order_relaxed);  // Relaxed: hint only\n"
        self.assertEqual(set(), self.rules("serve/foo.cc", src))

    def test_preceding_comment_within_window_satisfies(self):
        src = ("// Relaxed: monotone counter, no ordering promised.\n"
               "x.fetch_add(1, std::memory_order_relaxed);\n")
        self.assertEqual(set(), self.rules("serve/foo.cc", src))

    def test_comment_outside_window_does_not_satisfy(self):
        src = ("// Relaxed: too far away.\n" + "int a;\n" * 5 +
               "x.load(std::memory_order_relaxed);\n")
        self.assertIn("relaxed-comment", self.rules("serve/foo.cc", src))

    # --- options-caller -----------------------------------------------------

    def option_violations(self, files):
        """Writes `files` ({repo-relative path: content}) into a temp repo
        and returns the options-caller violations as (field, line) pairs."""
        with tempfile.TemporaryDirectory() as repo:
            for rel, content in files.items():
                path = os.path.join(repo, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(content)
            violations = []
            lint_invariants.check_option_callers(os.path.join(repo, "src"),
                                                 violations)
            return [(msg.split("::")[1].split(" ")[0], line)
                    for (_, line, rule, msg) in violations
                    if rule == "options-caller"]

    OPTIONS_H = ("struct FooOptions {\n"
                 "  /// Pool to run on.\n"
                 "  ThreadPool* pool = nullptr;\n"
                 "  size_t capacity = 64;\n"
                 "};\n")

    def test_unassigned_option_flagged(self):
        found = self.option_violations({
            "src/serve/foo.h": self.OPTIONS_H,
            "bench/b.cc": "void F() { FooOptions o; o.pool = &p; }\n",
        })
        self.assertEqual(found, [("capacity", 4)])

    def test_assignment_in_each_caller_dir_counts(self):
        for caller in ("src/serve/x.cc", "bench/b.cc", "examples/e.cpp",
                       "e2ebench/d.cc"):
            found = self.option_violations({
                "src/net/foo.h": self.OPTIONS_H,
                caller: "void F() { o->pool = &p; o.capacity = 8; }\n",
            })
            self.assertEqual(found, [], caller)

    def test_nested_member_assignment_counts(self):
        src = ("struct LiveOptions {\n  FooOptions engine;\n};\n" +
               self.OPTIONS_H)
        found = self.option_violations({
            "src/serve/foo.h": src,
            "e2ebench/d.cc": "void F() { o.engine.pool = &p; "
                             "o.engine.capacity = 1; }\n",
        })
        self.assertEqual(found, [])

    def test_tests_dir_and_comparisons_do_not_count(self):
        found = self.option_violations({
            "src/serve/foo.h": self.OPTIONS_H,
            "tests/t.cc": "void F() { o.pool = &p; o.capacity = 1; }\n",
            "bench/b.cc": "bool F() { return o.pool == p; }\n"
                          "// o.capacity = 3;\n",
        })
        self.assertEqual(sorted(found), [("capacity", 4), ("pool", 3)])

    def test_own_options_copy_clamp_does_not_count(self):
        found = self.option_violations({
            "src/net/foo.h": self.OPTIONS_H,
            "src/net/foo.cc": "void F() { options_.capacity = 1; "
                              "options_.pool = nullptr; }\n",
        })
        self.assertEqual(sorted(found), [("capacity", 4), ("pool", 3)])

    def test_waiver_above_field_satisfies(self):
        src = ("struct FooOptions {\n"
               "  /// Queue bound.\n"
               "  // lint: test-only-option(capacity): tests shrink it\n"
               "  // to reach the backpressure path.\n"
               "  size_t capacity = 64;\n"
               "};\n")
        self.assertEqual(self.option_violations({"src/serve/foo.h": src}),
                         [])

    def test_waiver_for_other_field_does_not_satisfy(self):
        src = ("struct FooOptions {\n"
               "  // lint: test-only-option(other): reason\n"
               "  size_t capacity = 64;\n"
               "};\n")
        self.assertEqual(self.option_violations({"src/serve/foo.h": src}),
                         [("capacity", 3)])

    def test_options_outside_serve_and_net_ignored(self):
        self.assertEqual(
            self.option_violations({"src/vct/foo.h": self.OPTIONS_H}), [])

    # --- reporting ----------------------------------------------------------

    def test_violation_carries_line_number(self):
        src = "int a;\nstd::mutex mu_;\n"
        self.assertIn(("mutex-types", 2), self.lint("serve/foo.h", src))


if __name__ == "__main__":
    unittest.main()
