"""Pin numpy's runtime SIMD dispatch below AVX-512; import this before numpy.

numpy's AVX-512 float64 ``exp`` and ``log`` round differently, in the last
digits, from its AVX2 and baseline ones, which agree with each other.  An
audit's p-value traces come from them, so the audit goldens are captured and
checked under AVX2 dispatch, as on a machine without AVX-512.  numpy warns
when told to disable a feature the CPU lacks (and the suite turns warnings
into errors), so the targets are disabled only where the CPU reports
``avx512f``.
"""

import os
import re
from pathlib import Path

AVX512_TARGETS = "X86_V4 AVX512_ICL AVX512_SPR"


def _cpu_has_avx512() -> bool:
    try:
        return re.search(r"\bavx512f\b", Path("/proc/cpuinfo").read_text()) is not None
    except OSError:
        return False


if _cpu_has_avx512():
    os.environ["NPY_DISABLE_CPU_FEATURES"] = AVX512_TARGETS
