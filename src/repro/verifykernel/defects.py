"""Seeded-defect registry for cross-validating static vs dynamic checks.

Each defect is a minimal, realistic bug injected into one kernel (or into
the Python dispatch layer) via exact-match source substitution. The
verification pipeline applies each defect and asserts that it is caught
**both** by the static analyzer (bounds/alias/dispatch pass) and by the
matching dynamic check (ASan, TSan, or oracle divergence) — the same
static-vs-dynamic cross-validation PR 3 used for the happens-before
checker. A defect whose substitution no longer matches the shipped
kernel source fails loudly (`apply` raises), so the suite cannot rot
into silently testing nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.backends.jit import SSSP_SOURCES

__all__ = ["DEFECTS", "SeededDefect", "defect_by_name"]


@dataclass(frozen=True)
class SeededDefect:
    """One injected bug and the checks expected to catch it."""

    name: str
    kind: str  # "c" (kernel template) | "python" (dispatch layer)
    kernel: str | None  # template name for C defects
    old: str
    new: str
    dynamic: str  # asan | tsan | divergence — the dynamic catcher
    #: finding .check expected from the static pass; ``None`` for a
    #: dynamic-only defect in a kernel outside KERNEL_TEMPLATES
    static_check: str | None
    description: str

    def apply(self, source: str) -> str:
        """Return ``source`` with the defect injected (exact, unique match)."""
        count = source.count(self.old)
        if count != 1:
            raise ValueError(
                f"defect {self.name!r}: expected exactly one match for "
                f"{self.old!r} in target source, found {count} — the kernel "
                f"source drifted; update the defect registry"
            )
        return source.replace(self.old, self.new, 1)

    def overrides(self, templates_by_name: dict) -> dict[str, str]:
        """C defects: kernel_source ``overrides`` mapping with the bug."""
        if self.kind != "c":
            raise ValueError(f"defect {self.name!r} is not a C-source defect")
        assert self.kernel is not None
        template = templates_by_name.get(self.kernel)
        source = template.source if template else SSSP_SOURCES[self.kernel]
        return {self.kernel: self.apply(source)}


DEFECTS: tuple[SeededDefect, ...] = (
    SeededDefect(
        name="off_by_one_subscript",
        kind="c",
        kernel="mp_update_f32_seq",
        old="for (i64 j = 0; j < len; j++)",
        new="for (i64 j = 0; j <= len; j++)",
        dynamic="asan",
        static_check="bounds",
        description="inner column loop runs one element past the tile "
        "(classic <= for <), reading/writing one float past each row slice",
    ),
    SeededDefect(
        name="dropped_remainder_guard",
        kind="c",
        kernel="mp_update_f32",
        old="for (; k + 4 <= k1; k += 4)",
        new="for (; k < k1; k += 4)",
        dynamic="asan",
        static_check="bounds",
        description="register-blocked pivot loop loses its 4-wide guard, so "
        "a partial final group reads up to 3 pivots past the tile edge",
    ),
    SeededDefect(
        name="widened_panel",
        kind="c",
        kernel="mp_update_f32_omp",
        old="i64 hi = bj * (t + 1) / threads;",
        new="i64 hi = bj * (t + 1) / threads + 1;",
        dynamic="tsan",
        static_check="panels",
        description="each OpenMP column panel is widened by one column, so "
        "adjacent threads write the shared boundary column concurrently",
    ),
    SeededDefect(
        name="seq_fanout",
        kind="c",
        kernel="mp_update_f32_omp",
        old="""    if (seq) {
        mp_update_f32_seq(c, a, b, bi, bk, bj, cs, as, bs, tile);
        return;
    }
""",
        new="",
        dynamic="tsan",
        static_check="alias",
        description="the router's aliased-operand early return is dropped, "
        "fanning seq operands across panels: each thread reads rows of 'a' "
        "that sibling threads are concurrently rewriting through 'c'",
    ),
    SeededDefect(
        name="unsound_alias_routing",
        kind="python",
        kernel=None,
        old="seq = self._aliased(c, a, b)",
        new="seq = False",
        dynamic="divergence",
        static_check="dispatch",
        description="Python dispatch stops detecting overlapping operands "
        "and routes aliased updates to the disjoint-only fast kernel, "
        "which consumes stale 4-pivot groups (silent wrong distances)",
    ),
    SeededDefect(
        name="edge_loop_overrun",
        kind="c",
        kernel="dijkstra_f64",
        old="for (i64 e = indptr[u]; e < indptr[u + 1]; e++)",
        new="for (i64 e = indptr[u]; e <= indptr[u + 1]; e++)",
        dynamic="asan",
        static_check=None,
        description="the Dijkstra edge loop runs one edge too far: it relaxes "
        "the next vertex's first edge (oracle divergence, stats included) "
        "and reads past the end of indices/weights at the last vertex",
    ),
)


def defect_by_name(name: str) -> SeededDefect:
    for defect in DEFECTS:
        if defect.name == name:
            return defect
    raise KeyError(name)
