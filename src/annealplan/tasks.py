"""Evaluation task-id lists for the medical and math domains.

Plain string metadata for building ``--tasks`` filters; nothing here
runs an evaluation.
"""

from __future__ import annotations

__all__ = [
    "MATH_MMLU_CF_TASKS",
    "MATH_NON_MMLU_TASKS",
    "MEDICAL_MC_EXTRA_TASKS",
    "MEDICAL_MMLU_CF_TASKS",
    "TASK_GROUPS",
]

MEDICAL_MMLU_CF_TASKS = (
    "mmlu_anatomy",
    "mmlu_clinical_knowledge",
    "mmlu_college_biology",
    "mmlu_college_medicine",
    "mmlu_high_school_biology",
    "mmlu_medical_genetics",
    "mmlu_professional_medicine",
)

MEDICAL_MC_EXTRA_TASKS = (
    "pubmedqa",
    "medqa_4options",
    "medmcqa",
)

MATH_MMLU_CF_TASKS = (
    "mmlu_continuation_abstract_algebra",
    "mmlu_continuation_college_mathematics",
    "mmlu_continuation_elementary_mathematics",
    "mmlu_continuation_high_school_mathematics",
    "mmlu_continuation_high_school_statistics",
)

MATH_NON_MMLU_TASKS = (
    "gsm8k_cot",
    "hendrycks_math_algebra",
    "hendrycks_math_counting_and_prob",
    "hendrycks_math_geometry",
    "hendrycks_math_intermediate_algebra",
    "hendrycks_math_num_theory",
    "hendrycks_math_prealgebra",
    "hendrycks_math_precalc",
)

TASK_GROUPS = {
    "medical-mmlu-cf": MEDICAL_MMLU_CF_TASKS,
    "medical-mc-extra": MEDICAL_MC_EXTRA_TASKS,
    "math-mmlu-cf": MATH_MMLU_CF_TASKS,
    "math-non-mmlu": MATH_NON_MMLU_TASKS,
}
