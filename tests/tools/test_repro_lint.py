"""Tests for ``tools/repro_lint``: every rule code, noqa, CLI, JSON, docs.

Fixtures lint synthetic snippets under *virtual* repo-relative paths
(rule scoping keys off the path), so each rule gets a bad/good pair
without touching the real tree.  The real tree is covered too: the
acceptance criterion "``python -m tools.repro_lint src benchmarks
tools`` exits 0" is asserted directly.
"""

import json
import textwrap
from pathlib import Path

import pytest

from tools.repro_lint import all_rules, check_docs, lint_source, main
from tools.repro_lint.framework import SYNTAX_ERROR_CODE

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def codes(findings):
    return [f.code for f in findings]


def lint(source, rel, **kwargs):
    return lint_source(textwrap.dedent(source), rel, **kwargs)


class TestRPR001PrivateStateMutation:
    BAD = """
        def evil(matrix, arr):
            matrix._plan = None
            matrix._data = arr
    """

    def test_flags_outside_core(self):
        findings = lint(self.BAD, "src/repro/nn/opt.py")
        assert codes(findings) == ["RPR001", "RPR001"]
        assert "._plan" in findings[0].message

    def test_core_is_exempt(self):
        assert lint(self.BAD, "src/repro/core/block_perm_diag.py") == []

    def test_subscript_and_del_targets(self):
        src = """
            def evil(m):
                m._csr_cache[True] = ()
                del m._plan
        """
        assert codes(lint(src, "src/repro/serve/server.py")) == [
            "RPR001", "RPR001",
        ]

    def test_own_private_attrs_are_fine(self):
        src = """
            class Thing:
                def __init__(self):
                    self._cache = {}
                    self._input_shape = None
        """
        assert lint(src, "src/repro/nn/layers/thing.py") == []


class TestRPR002BackendBypass:
    def test_scipy_import_flagged_in_serve(self):
        src = "from scipy import sparse\n"
        assert codes(lint(src, "src/repro/serve/server.py")) == ["RPR002"]
        src = "import scipy.sparse\n"
        assert codes(lint(src, "src/repro/hw/engine.py")) == ["RPR002"]

    def test_core_out_of_scope(self):
        assert lint("from scipy import sparse\n", "src/repro/core/x.py") == []

    def test_compress_in_scope_non_strict(self):
        # The factory is in RPR002 scope (no raw products in offline
        # pipelines either) but not in the serve-only strict form.
        src = "from scipy import sparse\n"
        assert codes(lint(src, "src/repro/compress/pipeline.py")) == ["RPR002"]
        src = """
            import numpy as np
            def f(a, b):
                return np.dot(a, b)
        """
        assert codes(lint(src, "src/repro/compress/zoo.py")) == ["RPR002"]
        src = """
            def f(a, b):
                return a @ b
        """
        assert lint(src, "src/repro/compress/pipeline.py") == []

    def test_baselines_exempt(self):
        src = "from scipy import sparse\n"
        assert lint(src, "src/repro/hw/baselines/eie.py") == []

    def test_np_dot_flagged(self):
        src = """
            import numpy as np
            def f(a, b):
                return np.dot(a, b)
        """
        assert codes(lint(src, "src/repro/nn/layers/x.py")) == ["RPR002"]

    def test_matmul_on_matrix_state_flagged(self):
        src = """
            def f(matrix, x):
                return matrix.to_dense() @ x
        """
        assert codes(lint(src, "src/repro/serve/server.py")) == ["RPR002"]

    def test_dense_weight_matmul_allowed(self):
        src = """
            def f(self, x):
                return x @ self.weight.value.T + self.bias.value
        """
        assert lint(src, "src/repro/nn/layers/dense.py") == []

    def test_serve_flags_every_matmul(self):
        # Strict form: in serve/, name heuristics are off -- `a @ b` on
        # innocuously-named operands is still a bypass.
        src = """
            def f(a, b):
                return a @ b
        """
        findings = lint(src, "src/repro/serve/server.py")
        assert codes(findings) == ["RPR002"]
        assert "serve/" in findings[0].message
        # ... while the same product outside serve/ needs a matrix hint.
        assert lint(src, "src/repro/nn/layers/dense.py") == []

    def test_serve_flags_matmul_shaped_reductions(self):
        src = """
            import numpy as np
            def f(w, x):
                a = np.einsum("ij,bj->bi", w, x)
                b = np.tensordot(w, x, axes=1)
                c = np.inner(w, x)
                return a, b, c
        """
        assert codes(lint(src, "src/repro/serve/stage.py")) == [
            "RPR002", "RPR002", "RPR002",
        ]
        # The reductions stay legal outside the strict prefix.
        assert lint(src, "src/repro/nn/functional.py") == []


class TestRPR003CsrIndexDtype:
    def test_untyped_construction_flagged(self):
        # select= keeps the fixture focused: a dtype-less np.zeros in
        # the kernel module is (correctly) also an RPR009 finding.
        src = """
            import numpy as np
            def f(n):
                indptr = np.zeros(n + 1)
                return indptr
        """
        findings = lint(
            src, "src/repro/core/kernel.py", select={"RPR003"}
        )
        assert codes(findings) == ["RPR003"]

    def test_int64_literal_flagged(self):
        src = """
            import numpy as np
            def f(n):
                indices = np.empty(n, dtype=np.int64)
                indices[:] = 0
                return indices
        """
        assert codes(lint(src, "src/repro/core/kernel.py")) == ["RPR003"]

    def test_astype_int64_flagged(self):
        src = """
            import numpy as np
            def f(raw):
                col_indices = raw.astype(np.int64)
                return col_indices
        """
        assert codes(lint(src, "src/repro/core/kernel.py")) == ["RPR003"]

    def test_symbolic_dtype_allowed(self):
        src = """
            import numpy as np
            def f(n, idx_dtype):
                indptr = np.zeros(n + 1, dtype=idx_dtype)
                indices = np.arange(n, dtype=idx_dtype)
                return indptr, indices
        """
        assert lint(src, "src/repro/core/kernel.py") == []

    def test_unrelated_names_ignored(self):
        src = """
            import numpy as np
            def f(n):
                values = np.zeros(n)
                return values
        """
        assert (
            lint(src, "src/repro/core/kernel.py", select={"RPR003"})
            == []
        )


class TestRPR004SystemExit:
    def test_raise_systemexit_flagged(self):
        src = """
            def f():
                raise SystemExit(2)
        """
        assert codes(lint(src, "src/repro/hw/engine.py")) == ["RPR004"]

    def test_sys_exit_flagged(self):
        src = """
            import sys
            def f():
                sys.exit(1)
        """
        assert codes(lint(src, "src/repro/serve/server.py")) == ["RPR004"]

    def test_cli_exempt(self):
        src = """
            import sys
            def main():
                sys.exit(0)
        """
        assert lint(src, "src/repro/cli.py") == []

    def test_typed_raise_allowed(self):
        src = """
            def f():
                raise ValueError("bad")
        """
        assert lint(src, "src/repro/hw/engine.py") == []


class TestRPR005ExceptionSwallow:
    def test_bare_except_flagged(self):
        src = """
            def f():
                try:
                    g()
                except:
                    return None
        """
        assert codes(lint(src, "src/repro/metrics/x.py")) == ["RPR005"]

    def test_broad_pass_flagged(self):
        src = """
            def f():
                try:
                    g()
                except Exception:
                    pass
        """
        assert codes(lint(src, "tools/helper.py")) == ["RPR005"]

    def test_typed_pass_allowed(self):
        src = """
            def f():
                try:
                    g()
                except ImportError:
                    pass
        """
        assert lint(src, "src/repro/core/x.py") == []

    def test_broad_handler_that_acts_allowed(self):
        src = """
            def f(log):
                try:
                    g()
                except Exception as exc:
                    log.warning("g failed: %s", exc)
                    raise
        """
        assert lint(src, "src/repro/serve/server.py") == []


class TestRPR006EmptyPartialWrite:
    def test_guarded_fill_flagged(self):
        src = """
            import numpy as np
            def kernel(n, flag):
                out = np.empty(n)
                if flag:
                    out[:] = 1.0
                return out
        """
        findings = lint(
            src, "src/repro/core/kernel.py", select={"RPR006"}
        )
        assert codes(findings) == ["RPR006"]

    def test_loop_fill_allowed(self):
        src = """
            import numpy as np
            def kernel(n, chunks):
                out = np.empty(n)
                for start, stop in chunks:
                    out[start:stop] = 1.0
                return out
        """
        assert (
            lint(src, "src/repro/core/kernel.py", select={"RPR006"})
            == []
        )

    def test_alloc_and_fill_inside_else_allowed(self):
        # Regression: conditionality is judged relative to the
        # allocation's own block (the shape of kernel.batched_grad_data).
        src = """
            import numpy as np
            def kernel(matrix, chunked, chunks):
                if chunked:
                    out = g(matrix)
                else:
                    grad = np.empty_like(matrix)
                    for start, stop in chunks:
                        grad[start:stop] = h(matrix, start, stop)
                    out = grad
                return out
        """
        assert lint(src, "src/repro/core/kernel.py") == []

    def test_kernel_call_arg_counts_as_fill(self):
        src = """
            import numpy as np
            def kernel(values, x):
                out = np.empty_like(values)
                _jit_kernel(values, x, out)
                return out
        """
        assert lint(src, "src/repro/core/kernel.py") == []

    def test_out_of_scope_path_ignored(self):
        src = """
            import numpy as np
            def helper(n, flag):
                out = np.empty(n)
                if flag:
                    out[:] = 1.0
                return out
        """
        assert lint(src, "src/repro/metrics/x.py") == []


class TestRPR007AliasBreakingCopy:
    def test_copy_of_shard_storage_flagged(self):
        src = """
            def pack(shard):
                return shard.data.copy()
        """
        assert codes(lint(src, "src/repro/serve/bundle.py")) == ["RPR007"]

    def test_reshape_minus_one_flagged(self):
        src = """
            def pack(param):
                return param.value.reshape(-1)
        """
        assert codes(lint(src, "src/repro/nn/serialization.py")) == ["RPR007"]

    def test_ascontiguousarray_flagged(self):
        src = """
            import numpy as np
            def pack(shard):
                return np.ascontiguousarray(shard.data)
        """
        assert codes(lint(src, "src/repro/serve/bundle.py")) == ["RPR007"]

    def test_non_storage_copy_allowed(self):
        src = """
            def dup(manifest):
                return manifest.copy()
        """
        assert lint(src, "src/repro/serve/bundle.py") == []

    def test_structured_reshape_allowed(self):
        src = """
            def unpack(shard, mb, p, nb):
                return shard.data.reshape(mb, p, nb)
        """
        assert lint(src, "src/repro/serve/bundle.py") == []

    def test_out_of_scope_path_ignored(self):
        src = """
            def pack(shard):
                return shard.data.copy()
        """
        assert lint(src, "src/repro/core/storage.py") == []


class TestRPR008SetflagsUnfreeze:
    def test_setflags_true_flagged(self):
        src = """
            def thaw(arr):
                arr.setflags(write=True)
        """
        assert codes(lint(src, "src/repro/serve/server.py")) == ["RPR008"]

    def test_flags_writeable_true_flagged(self):
        src = """
            def thaw(arr):
                arr.flags.writeable = True
        """
        assert codes(lint(src, "src/repro/nn/optim.py")) == ["RPR008"]

    def test_core_and_debug_exempt(self):
        """Only debug/ is exempt: no core path lifts a read-only flag."""
        src = """
            def thaw(arr):
                arr.setflags(write=True)
        """
        assert codes(lint(src, "src/repro/core/block_perm_diag.py")) == ["RPR008"]
        assert lint(src, "src/repro/debug/sanitizer.py") == []

    def test_freezing_allowed_anywhere(self):
        src = """
            def freeze(arr):
                arr.setflags(write=False)
        """
        assert lint(src, "src/repro/serve/server.py") == []


class TestRPR009DtypelessAllocation:
    @pytest.mark.parametrize("ctor", ["zeros", "empty", "ones"])
    def test_dtypeless_allocation_flagged(self, ctor):
        src = f"""
            import numpy as np
            def kernel(n):
                out = np.{ctor}(n)
                out[:] = 1.0
                return out
        """
        findings = lint(src, "src/repro/core/kernel.py")
        assert codes(findings) == ["RPR009"]
        assert "dtype" in findings[0].message

    def test_dtypeless_full_flagged(self):
        src = """
            import numpy as np
            def kernel(n):
                out = np.full(n, 0.0)
                return out
        """
        assert codes(lint(src, "src/repro/core/kernel.py")) == [
            "RPR009",
        ]

    def test_keyword_dtype_allowed(self):
        src = """
            import numpy as np
            def kernel(n, matrix):
                out = np.zeros(n, dtype=matrix.compute_dtype)
                buf = np.empty(n, dtype=np.float32)
                buf[:] = 0.0
                return out, buf
        """
        assert lint(src, "src/repro/core/kernel.py") == []

    def test_positional_dtype_allowed(self):
        src = """
            import numpy as np
            def kernel(n):
                out = np.zeros(n, np.float32)
                fill = np.full(n, 0.0, np.float32)
                return out, fill
        """
        assert lint(src, "src/repro/core/kernel.py") == []

    def test_like_constructors_exempt(self):
        src = """
            import numpy as np
            def kernel(values):
                out = np.empty_like(values)
                out[:] = 0.0
                return out, np.zeros_like(values)
        """
        assert lint(src, "src/repro/core/kernel.py") == []

    def test_out_of_scope_path_ignored(self):
        src = """
            import numpy as np
            def helper(n):
                return np.zeros(n)
        """
        assert lint(src, "src/repro/serve/server.py") == []
        # to_dense() is a float64 reference by contract; only the kernel
        # module computes in the operands' dtype.
        assert lint(src, "src/repro/core/block_perm_diag.py") == []


class TestSuppressionAndSelection:
    def test_noqa_with_code_suppresses(self):
        src = "def f(m):\n    m._plan = None  # noqa: RPR001\n"
        assert lint_source(src, "src/repro/nn/x.py") == []

    def test_bare_noqa_suppresses(self):
        src = "def f(m):\n    m._plan = None  # noqa\n"
        assert lint_source(src, "src/repro/nn/x.py") == []

    def test_wrong_code_does_not_suppress(self):
        src = "def f(m):\n    m._plan = None  # noqa: RPR005\n"
        assert codes(lint_source(src, "src/repro/nn/x.py")) == ["RPR001"]

    def test_select_and_ignore(self):
        src = "def f(m):\n    m._plan = None\n    raise SystemExit(1)\n"
        rel = "src/repro/nn/x.py"
        assert codes(lint_source(src, rel, select={"RPR004"})) == ["RPR004"]
        assert codes(lint_source(src, rel, ignore={"RPR004"})) == ["RPR001"]

    def test_syntax_error_reported_as_rpr000(self):
        findings = lint_source("def f(:\n", "src/repro/nn/x.py")
        assert codes(findings) == [SYNTAX_ERROR_CODE]


class TestRuleRegistry:
    def test_all_nine_codes_registered(self):
        assert [r.code for r in all_rules()] == [
            f"RPR00{i}" for i in range(1, 10)
        ]

    def test_rules_carry_docs(self):
        for rule in all_rules():
            assert rule.name and rule.invariant and rule.rationale

    def test_kernel_module_is_in_scope(self):
        """RPR006 and RPR009 guard the module the matrix products call."""
        import repro.core.kernel as kernel

        rel = Path(kernel.__file__).resolve().relative_to(REPO_ROOT)
        src = """
            import numpy as np
            def kernel(n, flag):
                out = np.empty(n)
                if flag:
                    out[:] = 1.0
                return out
        """
        assert codes(lint(src, rel.as_posix())) == ["RPR006", "RPR009"]

    def test_scopes_name_paths_in_the_tree(self):
        """A scope left pointing at a moved or deleted file would silently
        lint nothing, and the whole-tree run would still pass."""
        for rule in all_rules():
            for prefix in rule.scope + rule.exempt:
                assert (REPO_ROOT / prefix).exists(), (rule.code, prefix)


class TestCli:
    def _write_bad_tree(self, root):
        pkg = root / "src" / "repro" / "nn"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(
            "def f(m):\n    m._plan = None\n", encoding="utf-8"
        )
        return root

    def test_exit_one_on_findings_and_report_format(self, tmp_path, capsys):
        self._write_bad_tree(tmp_path)
        rc = main(["src", "--root", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "src/repro/nn/bad.py:2:5: RPR001" in captured.out
        assert "1 finding(s)" in captured.err

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        pkg = tmp_path / "src"
        pkg.mkdir()
        (pkg / "ok.py").write_text("x = 1\n", encoding="utf-8")
        rc = main(["src", "--root", str(tmp_path)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        rc = main(["nope", "--root", str(tmp_path)])
        assert rc == 2
        assert "no such path" in capsys.readouterr().err

    def test_json_schema(self, tmp_path, capsys):
        self._write_bad_tree(tmp_path)
        rc = main(["src", "--root", str(tmp_path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"RPR001": 1}
        (finding,) = payload["findings"]
        assert finding["code"] == "RPR001"
        assert finding["path"] == "src/repro/nn/bad.py"
        assert finding["line"] == 2
        assert set(finding) == {
            "code", "rule", "message", "path", "line", "col",
        }

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 10):
            assert f"RPR00{i}" in out

    def test_real_tree_is_clean(self):
        """Acceptance criterion: the shipped tree lints clean."""
        rc = main(["src", "benchmarks", "tools", "--root", str(REPO_ROOT)])
        assert rc == 0


class TestDocsCheck:
    def _docs_tree(self, root, link):
        (root / "docs").mkdir()
        (root / "README.md").write_text("# x\n", encoding="utf-8")
        (root / "CHANGES.md").write_text("- x\n", encoding="utf-8")
        (root / "docs" / "GUIDE.md").write_text(
            f"see [other]({link})\n", encoding="utf-8"
        )
        (root / "docs" / "OTHER.md").write_text("# other\n", encoding="utf-8")
        return root

    def test_broken_link_flagged(self, tmp_path):
        self._docs_tree(tmp_path, "MISSING.md")
        findings, checked = check_docs(tmp_path)
        assert checked >= 3
        assert codes(findings) == ["RPR900"]
        assert findings[0].path == "docs/GUIDE.md"
        assert "MISSING.md" in findings[0].message

    def test_good_link_passes(self, tmp_path):
        self._docs_tree(tmp_path, "OTHER.md")
        findings, _ = check_docs(tmp_path)
        assert findings == []

    def test_external_and_anchor_links_skipped(self, tmp_path):
        self._docs_tree(tmp_path, "https://example.com/x")
        (tmp_path / "docs" / "GUIDE.md").write_text(
            "[a](https://example.com) [b](#section) [c](mailto:x@y.z)\n",
            encoding="utf-8",
        )
        findings, _ = check_docs(tmp_path)
        assert findings == []

    def test_fenced_code_blocks_skipped(self, tmp_path):
        self._docs_tree(tmp_path, "OTHER.md")
        (tmp_path / "docs" / "GUIDE.md").write_text(
            "```\n[fake](NOT_A_FILE.md)\n```\nand `[x](ALSO_FAKE.md)` inline\n",
            encoding="utf-8",
        )
        findings, _ = check_docs(tmp_path)
        assert findings == []

    def test_cli_docs_mode(self, tmp_path, capsys):
        self._docs_tree(tmp_path, "MISSING.md")
        rc = main(["--docs", "--root", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "RPR900" in captured.out

    def test_real_docs_are_clean(self):
        findings, checked = check_docs(REPO_ROOT)
        assert findings == []
        assert checked > 0
