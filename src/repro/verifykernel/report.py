"""Top-level verification pipeline: static proofs + sanitizer legs + defects.

:func:`verify_kernels` is what the CLI (``repro verify-kernels``) and the
autotuner consume. It composes:

- the **static pass** (:func:`static_findings`): affine bounds proofs,
  interprocedural call-region checks, alias-class derivation, OpenMP
  panel disjointness, router seq-discipline, and the Python dispatch
  cross-check — all purely symbolic, no compiler needed;
- optional **sanitizer legs** (ASan/UBSan matrix replays, the TSan
  driver for ``cc-omp``), skipped with an honest record when the
  toolchain lacks a mode;
- the optional **seeded-defect cross-validation**: every defect in
  :data:`repro.verifykernel.defects.DEFECTS` must be flagged by the
  static pass *and* by its dynamic catcher — zero false negatives on
  the seeded suite, zero findings on clean kernels. Defects in the
  native SSSP kernels (:data:`repro.core.backends.jit.SSSP_SOURCES`,
  outside the static pass) are dynamic only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.backends import jit
from repro.core.backends.jit import KERNEL_TEMPLATES
from repro.verifykernel import cparse
from repro.verifykernel.alias import (
    check_call_aliasing,
    check_parallel_disjointness,
    check_python_dispatch,
    derive_alias_class,
)
from repro.verifykernel.bounds import Finding, analyze_kernel, check_kernel_bounds
from repro.verifykernel.defects import DEFECTS, SeededDefect
from repro.verifykernel.sanitizers import SanitizerRunResult, run_matrix

__all__ = [
    "SCHEMA_VERSION",
    "DefectResult",
    "KernelVerification",
    "static_findings",
    "verify_kernels",
]

SCHEMA_VERSION = 1


def static_findings(
    overrides: dict[str, str] | None = None,
    python_source: str | None = None,
) -> list[Finding]:
    """Run the full static pass; returns every finding (empty = proven).

    ``overrides`` substitutes kernel template sources (seeded defects);
    ``python_source`` substitutes the dispatch-layer source checked by
    the Python cross-check (defaults to the shipped ``jit.py``).
    """
    overrides = overrides or {}
    findings: list[Finding] = []
    templates_by_name = {t.name: t for t in KERNEL_TEMPLATES}
    parsed: dict[str, cparse.FuncDef] = {}
    for t in KERNEL_TEMPLATES:
        source = overrides.get(t.name, t.source)
        try:
            parsed[t.name] = cparse.parse_kernel(source)
        except cparse.CParseError as exc:
            findings.append(Finding("parse", t.name, 0, str(exc)))
    known = frozenset(parsed)
    analyses = {}
    derived: dict[str, str] = {}
    for t in KERNEL_TEMPLATES:
        if t.name not in parsed:
            continue
        analysis, bounds_findings = check_kernel_bounds(
            t, parsed[t.name], templates_by_name, parsed
        )
        analyses[t.name] = analysis
        findings.extend(bounds_findings)
        cls, class_findings = derive_alias_class(analysis, t)
        derived[t.name] = cls
        findings.extend(class_findings)
    for t in KERNEL_TEMPLATES:
        if t.name not in analyses:
            continue
        findings.extend(
            check_parallel_disjointness(
                analyses[t.name], t, templates_by_name, parsed
            )
        )
        findings.extend(
            check_call_aliasing(
                analyses[t.name], t, templates_by_name, parsed, derived
            )
        )
    if python_source is None:
        python_source = Path(jit.__file__).read_text()
    findings.extend(check_python_dispatch(python_source))
    return findings


@dataclass
class DefectResult:
    """Cross-validation outcome for one seeded defect."""

    defect: SeededDefect
    static_caught: bool
    static_findings: list[Finding]
    dynamic: SanitizerRunResult | None  # None = leg unavailable, skipped
    ok: bool

    def to_dict(self) -> dict:
        return {
            "name": self.defect.name,
            "dynamic_only": self.defect.static_check is None,
            "static_caught": self.static_caught,
            "static_findings": [f.to_dict() for f in self.static_findings],
            "dynamic": self.dynamic.to_dict() if self.dynamic else None,
            "dynamic_skipped": self.dynamic is None,
            "ok": self.ok,
        }


def _run_defect(defect: SeededDefect, *, fast: bool) -> DefectResult:
    templates_by_name = {t.name: t for t in KERNEL_TEMPLATES}
    if defect.static_check is None:
        found: list[Finding] = []  # dynamic only: outside the static pass
    elif defect.kind == "c":
        overrides = defect.overrides(templates_by_name)
        found = static_findings(overrides)
    else:
        patched = defect.apply(Path(jit.__file__).read_text())
        found = static_findings(python_source=patched)
    relevant = [f for f in found if f.check == defect.static_check]
    static_caught = bool(relevant)

    dynamic: SanitizerRunResult | None
    if defect.dynamic == "divergence":
        dynamic = run_matrix("asan", force_fast_alias=True, fast=fast)
    elif defect.kind == "c":
        dynamic = run_matrix(
            defect.dynamic, overrides=defect.overrides(templates_by_name), fast=fast
        )
    else:  # pragma: no cover - no such defect today
        dynamic = None
    if dynamic is not None and not dynamic.available:
        dynamic = None  # toolchain can't run the leg: skip, don't fail
    static_ok = static_caught or defect.static_check is None
    ok = static_ok and (dynamic is None or dynamic.caught)
    return DefectResult(defect, static_caught, relevant, dynamic, ok)


@dataclass
class KernelVerification:
    """Aggregated result of one ``verify-kernels`` run."""

    findings: list[Finding] = field(default_factory=list)
    sanitizers: list[SanitizerRunResult] = field(default_factory=list)
    defects: list[DefectResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        static_ok = not self.findings
        legs_ok = all(s.clean for s in self.sanitizers if s.ran)
        defects_ok = all(d.ok for d in self.defects)
        return static_ok and legs_ok and defects_ok

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "ok": self.ok,
            "kernels": [t.name for t in KERNEL_TEMPLATES],
            "findings": [f.to_dict() for f in self.findings],
            "sanitizers": [s.to_dict() for s in self.sanitizers],
            "defects": [d.to_dict() for d in self.defects],
        }


def verify_kernels(
    *,
    sanitize: tuple[str, ...] = (),
    defects: bool = False,
    fast: bool = True,
) -> KernelVerification:
    """Verify every shipped kernel flavor; see module docstring."""
    result = KernelVerification(findings=static_findings())
    for mode in sanitize:
        result.sanitizers.append(run_matrix(mode, fast=fast))
    if defects:
        for defect in DEFECTS:
            result.defects.append(_run_defect(defect, fast=fast))
    return result
