"""Loading and saving expert panels and run configuration.

Panel files are JSON::

    { "n": 4, "experts": [ { "id": "e1", "matrix": [[...], ...] }, ... ] }

Each expert entry's JSON types and shape are checked first (exit 2).  The
values of all k matrices are then checked as one (k, n, n) stack: positive
finite entries first, then c_ij * c_ji = 1 within 1e-2, as printed matrices are
rounded.  Errors name the lowest failing expert and the cell (exit 3).  The
stack is re-symmetrized from its upper triangles, with the diagonal reset to 1.
A config's ``credibility_matrix`` is checked and repaired the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .core import ExpertPanel, PCMatrix, resymmetrize
from .errors import DomainError, PanelParseError
from .montecarlo import EPSILON_DISTRIBUTIONS
from .robust import CredibilityScale2, CredibilityScale3, RobustConfig, credibility_from_matrix

LOAD_RECIPROCITY_RTOL = 1e-2
MAX_ALPHA_LEVELS = 1000  # the study runs 40
MAX_ALTERNATIVES = 100  # the study runs 5 to 7
# judgment entries a corpus draws, sum(counts[n] * n**2) * alpha levels * panel_size:
# about 400 MB of float64; the study draws 2,924,000
MAX_CORPUS_ENTRIES = 50_000_000


def _number_list(raw, size: int) -> bool:
    # bool is an int subclass in Python but not a number in JSON
    return isinstance(raw, list) and len(raw) == size and all(type(x) in (int, float) for x in raw)


def _number_grid(raw, n: int) -> bool:
    return isinstance(raw, list) and len(raw) == n and all(_number_list(r, n) for r in raw)


def _read_object(path: str | Path) -> dict:
    try:
        # an integer past float range reads as infinity, which every number check rejects
        doc = json.loads(Path(path).read_text(),
                         parse_int=lambda s: int(s) if math.isfinite(float(s)) else float(s))
    except (ValueError, RecursionError) as exc:  # bad JSON, non-UTF-8 bytes, deep nesting
        raise PanelParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise PanelParseError(f"{path}: top level must be an object")
    return doc


def _judgment_stack(grids: list, names: list[str]) -> np.ndarray:
    """Check k grids of n x n numbers as one (k, n, n) stack and re-symmetrize it.

    A DomainError names the lowest failing grid by ``names[q]`` and the cell.
    """
    A = np.array(grids, dtype=float)
    bad = ~(np.isfinite(A) & (A > 0.0))
    if bad.any():
        q, i, j = np.argwhere(bad)[0]
        raise DomainError(f"{names[q]}: non-positive entry at row {i + 1}, column {j + 1}")
    with np.errstate(over="ignore"):  # an overflowing pair gives inf, which fails below
        prod = A * A.transpose(0, 2, 1)
    dev = np.abs(prod - 1.0).reshape(len(A), -1)
    broken = dev.max(axis=1) > LOAD_RECIPROCITY_RTOL
    if broken.any():
        q = np.argmax(broken)
        i, j = np.unravel_index(np.argmax(dev[q]), A.shape[1:])
        raise DomainError(
            f"{names[q]}: reciprocity violated at row {i + 1}, "
            f"column {j + 1} (c_ij*c_ji = {prod[q, i, j]:.4f})"
        )
    return resymmetrize(A)


def parse_panel(doc: dict) -> tuple[ExpertPanel, list[str]]:
    n, experts = doc.get("n"), doc.get("experts")
    if type(n) is not int:
        raise PanelParseError(f"'n' must be an integer, got {n!r}")
    if n < 2:
        raise DomainError(f"'n' must be at least 2, got {n}")
    if not (isinstance(experts, list) and experts):
        raise PanelParseError("'experts' must be a non-empty list")
    ids, grids = [], []
    for q, entry in enumerate(experts):
        if not isinstance(entry, dict):
            raise PanelParseError(f"expert #{q + 1}: entry must be an object, got {entry!r}")
        eid = str(entry.get("id", f"e{q + 1}"))
        if "matrix" not in entry:
            raise PanelParseError(f"expert {eid!r}: missing 'matrix' field")
        if not _number_grid(entry["matrix"], n):
            raise PanelParseError(f"expert {eid!r}: matrix must be {n} rows of {n} numbers")
        ids.append(eid)
        grids.append(entry["matrix"])
    return ExpertPanel.from_stack(_judgment_stack(grids, [f"expert {eid!r}" for eid in ids])), ids


def load_panel(path: str | Path) -> tuple[ExpertPanel, list[str]]:
    return parse_panel(_read_object(path))


def panel_document(panel: ExpertPanel, ids: list[str] | None = None) -> dict:
    """The JSON document of a panel file; experts are e1, e2, ... without ``ids``."""
    ids = ids or [f"e{q + 1}" for q in range(panel.k)]
    return {
        "n": panel.n,
        "experts": [
            {"id": eid, "matrix": m.values.tolist()}
            for eid, m in zip(ids, panel.matrices)
        ],
    }


def save_panel(path: str | Path, panel: ExpertPanel, ids: list[str] | None = None) -> None:
    Path(path).write_text(json.dumps(panel_document(panel, ids), indent=1))


def bundled_panel(name: str) -> tuple[ExpertPanel, list[str]]:
    """Load one of the sample panels shipped with the package."""
    text = resources.files("groupahp.data").joinpath(f"{name}.json").read_text()
    return parse_panel(json.loads(text))


@dataclass(frozen=True)
class RunConfig:
    """Batch configuration for experiments and the attack model."""

    seed: int = 20230
    counts: dict[int, int] = field(default_factory=lambda: {5: 34, 6: 33, 7: 33})
    alpha_start: float = 1.1
    alpha_stop: float = 5.0
    alpha_step: float = 0.1
    panel_size: int = 20
    robust: RobustConfig = field(default_factory=RobustConfig)
    saturation: float = 9.0
    max_bribes: int | None = None
    epsilon_distribution: str = "log-uniform"
    workers: int = 1

    @property
    def alpha_count(self) -> float:
        """Number of alpha levels; a float, so that a step too small to count by gives inf."""
        return float(np.rint((self.alpha_stop - self.alpha_start) / self.alpha_step)) + 1

    @property
    def alphas(self) -> tuple[float, ...]:
        count = int(self.alpha_count)
        return tuple(round(self.alpha_start + i * self.alpha_step, 10) for i in range(count))


# key: (JSON type, range test, range in words); CredibilityScale2 checks h and
# l, RobustConfig checks beta and metric
_SCALAR_KEYS = {
    "seed": (int, lambda v: v >= 0, ">= 0"),
    "panel_size": (int, lambda v: v >= 1, ">= 1"),
    "max_bribes": (int, lambda v: v >= 0, ">= 0 or null"),
    "workers": (int, lambda v: v >= 1, ">= 1"),
    "alpha_start": (float, lambda v: v >= 1.0, ">= 1"),
    "alpha_stop": (float, lambda v: v >= 1.0, ">= 1"),
    "alpha_step": (float, lambda v: v > 0.0, "> 0"),
    "saturation": (float, lambda v: v > 1.0, "> 1"),
    "epsilon_distribution": (str, lambda v: v in EPSILON_DISTRIBUTIONS,
                             f"one of {list(EPSILON_DISTRIBUTIONS)}"),
    "h": (float, None, None), "l": (float, None, None),
    "beta": (float, None, None), "metric": (str, None, None),
}
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}
_CREDIBILITY_KEYS = ("credibility_matrix", "credibility_ratios")


def check_value(key: str, value, name: str | None = None):
    """Check ``value`` against the JSON type and range of config key ``key``.

    Errors call the value ``name``, by default "config key '<key>'".
    """
    kind, in_range, rule = _SCALAR_KEYS[key]
    name = name or f"config key {key!r}"
    if value is None and key == "max_bribes":
        return None
    if type(value) not in _JSON_TYPES[kind]:
        raise PanelParseError(f"{name} must be {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    if in_range and not in_range(value):
        raise DomainError(f"{name} must be {rule}, got {value!r}")
    return value


def _counts(raw) -> dict[int, int]:
    # JSON object keys are always strings
    if not (isinstance(raw, dict) and all(n.isdecimal() and type(c) is int for n, c in raw.items())):
        raise PanelParseError(
            f"config key 'counts' must map alternative counts to integers, got {raw!r}"
        )
    # a key too long to be in range never reaches int(), which refuses 4,300+ digits
    if any(len(n) > len(str(MAX_ALTERNATIVES)) or not 2 <= int(n) <= MAX_ALTERNATIVES or c < 0
           for n, c in raw.items()):
        raise DomainError(
            f"config key 'counts' needs 2 <= n <= {MAX_ALTERNATIVES} and counts >= 0, got {raw!r}"
        )
    counts = {int(n): c for n, c in raw.items()}
    if not any(counts.values()):
        raise DomainError(f"config key 'counts' asks for no ground-truth vectors, got {raw!r}")
    return counts


def _parse_credibility(key: str, raw) -> CredibilityScale3:
    matrix = key == "credibility_matrix"
    if not (_number_grid(raw, 3) if matrix else _number_list(raw, 3)):
        shape = "3 rows of 3" if matrix else "3"
        raise PanelParseError(f"config key {key!r} must be {shape} numbers, got {raw!r}")
    if matrix:
        raw = PCMatrix(_judgment_stack([raw], [f"config key {key!r}"])[0])
    try:
        return credibility_from_matrix(raw) if matrix else CredibilityScale3.from_ratios(*raw)
    except DomainError as exc:
        raise DomainError(f"config key {key!r}: {exc}") from None


def load_config(path: str | Path | None) -> RunConfig:
    """Read a run config file; ``None`` gives the defaults.

    A malformed file or a value of the wrong JSON type raises
    PanelParseError; a value out of range raises DomainError.  Both name
    the key.
    """
    if path is None:
        return RunConfig()
    doc = _read_object(path)
    unknown = set(doc) - set(_SCALAR_KEYS) - {"counts", *_CREDIBILITY_KEYS}
    if unknown:
        raise PanelParseError(f"unknown config keys: {sorted(unknown)}")
    values = {k: check_value(k, v) for k, v in doc.items() if k in _SCALAR_KEYS}
    robust = {k: values.pop(k) for k in ("beta", "metric") if k in values}
    robust["scale2"] = CredibilityScale2(**{k: values.pop(k) for k in ("h", "l") if k in values})
    key = next((k for k in _CREDIBILITY_KEYS if k in doc), None)
    if key:
        robust["scale3"] = _parse_credibility(key, doc[key])
    values["robust"] = RobustConfig(**robust)
    if "counts" in doc:
        values["counts"] = _counts(doc["counts"])
    config = RunConfig(**values)
    if not 1 <= config.alpha_count <= MAX_ALPHA_LEVELS:  # checked before any level is built
        raise DomainError(
            f"config keys 'alpha_start', 'alpha_stop' and 'alpha_step' give "
            f"{config.alpha_count:g} alpha levels, not 1 to {MAX_ALPHA_LEVELS}: "
            f"{config.alpha_start!r} to {config.alpha_stop!r} by {config.alpha_step!r}"
        )
    per_level = sum(c * n * n for n, c in config.counts.items()) * config.panel_size
    if per_level * int(config.alpha_count) > MAX_CORPUS_ENTRIES:  # Python ints: no count overflows
        raise DomainError(
            f"config keys 'counts', 'panel_size', 'alpha_start', 'alpha_stop' and 'alpha_step' "
            f"ask for a corpus of more than {MAX_CORPUS_ENTRIES:,} judgment entries "
            f"(sum of counts[n] * n^2, times alpha levels, times panel_size)"
        )
    return config
