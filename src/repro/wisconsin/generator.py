"""Scalable Wisconsin benchmark dataset generator (paper Table II).

The paper evaluates PolyFrame on synthetically generated Wisconsin
benchmark data [DeWitt '93], modified to include missing values so that
benchmark expression 13 (``df[df['tenPercent'].isna()]``) has something to
count. Attribute derivations follow Table II exactly:

========== ==================== =============================
attribute   domain               value
========== ==================== =============================
unique1     0..MAX-1             unique, random permutation
unique2     0..MAX-1             unique, sequential (the key)
two         0..1                 unique1 mod 2
four        0..3                 unique1 mod 4
ten         0..9                 unique1 mod 10
twenty      0..19                unique1 mod 20
onePercent  0..99                unique1 mod 100
tenPercent  0..9                 unique1 mod 10  (+ injected NULLs)
twentyPct   0..4                 unique1 mod 5
fiftyPct    0..1                 unique1 mod 2
unique3     0..MAX-1             unique1
evenOnePct  0,2,..,198           onePercent * 2
oddOnePct   1,3,..,199           onePercent * 2 + 1
stringu1    per template         derived from unique1
stringu2    per template         derived from unique2
string4     per template         cyclic A, H, O, V
========== ==================== =============================

Strings follow the classic Wisconsin template: 52 characters, the first
seven being the base-26 (A–Z) rendering of the driving unique value, the
remainder padding ``x``; ``string4`` cycles four fixed patterns.

Generation is deterministic in ``seed`` (numpy Generator) so the DuckDB
oracle, the pandas baseline and every PolyFrame backend all see identical
data. The generator makes pandas frames only: each connector loads them
into its backend when they are registered, and the multi-node job
registers each in a ``local[n]`` session of its own. Sizes: the paper's single-node datasets
are 0.5M–5M records (Table IV); this reproduction runs the same *ratios*
at 1/100 scale for benchmarks and 1/1000 for tests (DESIGN.md §2
substitution 3).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

#: Paper Table IV record counts (single node, JSON sizes 1–10 GB).
PAPER_SIZES: dict[str, int] = {
    "XS": 500_000,
    "S": 1_250_000,
    "M": 2_500_000,
    "L": 3_750_000,
    "XL": 5_000_000,
}

#: Fraction of tenPercent values replaced by NULL (the paper's
#: "modified the Wisconsin dataset to include missing values").
MISSING_RATE = 0.1

_STRING_LEN = 52
_SIG_CHARS = 7
_STRING4_CYCLE = ("A", "H", "O", "V")


def _base26_strings(values: np.ndarray) -> np.ndarray:
    """Classic Wisconsin string template: 7 significant A–Z chars from the
    base-26 rendering of each value, padded with 'x' to 52 chars."""
    n = len(values)
    digits = np.empty((n, _SIG_CHARS), dtype=np.int64)
    v = values.astype(np.int64).copy()
    for pos in range(_SIG_CHARS - 1, -1, -1):
        digits[:, pos] = v % 26
        v //= 26
    letters = np.frombuffer(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", dtype="S1")
    chars = letters[digits]  # (n, 7) bytes
    sig = chars.view(f"S{_SIG_CHARS}").ravel().astype(str)
    pad = "x" * (_STRING_LEN - _SIG_CHARS)
    return np.char.add(sig, pad)


def _string4(n: int) -> np.ndarray:
    cycle = np.array(
        [c * 4 + "x" * (_STRING_LEN - 4) for c in _STRING4_CYCLE], dtype=object
    )
    return cycle[np.arange(n) % 4]


def wisconsin_pdf(n: int, *, seed: int) -> pd.DataFrame:
    """Generate ``n`` Wisconsin records as a pandas DataFrame.

    ``tenPercent`` is a float64 column with :data:`MISSING_RATE` of its
    values NaN (→ NULL in every backend); all other attributes are exact
    Table II derivations from ``unique1``/``unique2``.
    """
    g = np.random.default_rng(seed)
    unique2 = np.arange(n, dtype=np.int64)
    unique1 = g.permutation(n).astype(np.int64)
    one_percent = unique1 % 100
    ten_percent = (unique1 % 10).astype(np.float64)
    ten_percent[g.random(n) < MISSING_RATE] = np.nan
    return pd.DataFrame(
        {
            "unique1": unique1,
            "unique2": unique2,
            "two": unique1 % 2,
            "four": unique1 % 4,
            "ten": unique1 % 10,
            "twenty": unique1 % 20,
            "onePercent": one_percent,
            "tenPercent": ten_percent,
            "twentyPercent": unique1 % 5,
            "fiftyPercent": unique1 % 2,
            "unique3": unique1.copy(),
            "evenOnePercent": one_percent * 2,
            "oddOnePercent": one_percent * 2 + 1,
            "stringu1": _base26_strings(unique1),
            "stringu2": _base26_strings(unique2),
            "string4": _string4(n),
        }
    )


def scaled_sizes(scale: float) -> dict[str, int]:
    """Paper Table IV sizes times ``scale`` (the jobs default to 1/100)."""
    return {name: max(1, int(n * scale)) for name, n in PAPER_SIZES.items()}
