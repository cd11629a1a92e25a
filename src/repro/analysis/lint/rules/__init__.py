"""Rule registry: every repo-specific rule, instantiated fresh per call."""

from repro.analysis.lint.rules.cycles import BareAssertRule, FloatCyclesRule
from repro.analysis.lint.rules.determinism import (
    UnorderedIterationRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.analysis.lint.rules.epochs import EpochCoverageRule
from repro.analysis.lint.rules.layering import LayeringRule
from repro.analysis.lint.rules.lifecycle_order import TeardownOrderRule
from repro.analysis.lint.rules.parallel_safety import (
    ParallelSafetyRule,
    UnorderedFoldRule,
)

_RULE_CLASSES = (
    LayeringRule,
    UnseededRandomRule,
    WallClockRule,
    UnorderedIterationRule,
    FloatCyclesRule,
    BareAssertRule,
    EpochCoverageRule,
    TeardownOrderRule,
    ParallelSafetyRule,
    UnorderedFoldRule,
)

#: Findings the engine emits itself (no rule class): parse failures and
#: suppression hygiene. Listed here so ``--list-rules`` and the SARIF
#: rule table cover every id the engine can produce.
ENGINE_RULES = (
    ("BF000", "file does not parse: syntax error reported as a finding"),
    ("BF001", "unused suppression: '# bfa: disable=...' that suppresses "
              "nothing (warning; --strict fails on it)"),
    ("BF002", "unreadable file: non-UTF-8 bytes or other parse crash "
              "reported as a finding instead of aborting the engine"),
)


def all_rules():
    """Fresh instances of every registered rule."""
    return [cls() for cls in _RULE_CLASSES]


def rule_catalog():
    """(rule_id, description) pairs, sorted by id — for ``--list-rules``.

    Includes the engine-level pseudo-rules (BF000/BF001/BF002) alongside
    the visitor/dataflow rule classes.
    """
    entries = [(cls.rule_id, cls.description) for cls in _RULE_CLASSES]
    entries.extend(ENGINE_RULES)
    return sorted(entries)
