"""Rule registry of the protocol-aware lint pass.

Four rule families (ISSUE 1):

1. **compare-store-send discipline** — ``store-literal``, ``send-literal``;
2. **message-dispatch completeness / isolation** — ``dispatch-complete``,
   ``foreign-mutation``;
3. **RNG determinism** — ``stdlib-random``, ``legacy-np-random``,
   ``import-time-rng``;
4. **self-stabilization hygiene** — ``bare-except``, ``broad-except``,
   ``silent-except``, ``mutable-default``;
5. **SoA performance discipline** — ``scalar-loop-over-soa`` (promoted
   from advisory once every deliberate scalar site carried its pragma);
6. **observability discipline** — ``obs-blocking-in-wave`` (advisory:
   blocking I/O inside the fast engine's kernel/wave-dispatch path).

``ALL_RULES`` instantiates one of each; ``RULES_BY_ID`` indexes them for
the CLI's ``--select``/``--ignore`` filters and the pragma machinery.
"""

from __future__ import annotations

from repro.analysis.lint.rules.base import Rule
from repro.analysis.lint.rules.hygiene import (
    BareExceptRule,
    BroadExceptRule,
    MutableDefaultRule,
    SilentExceptRule,
)
from repro.analysis.lint.rules.obs import ObsBlockingInWaveRule
from repro.analysis.lint.rules.perf import ScalarLoopOverSoaRule
from repro.analysis.lint.rules.protocol import (
    DispatchCompleteRule,
    ForeignMutationRule,
    SendLiteralRule,
    StoreLiteralRule,
)
from repro.analysis.lint.rules.rng import (
    ImportTimeRngRule,
    LegacyNpRandomRule,
    StdlibRandomRule,
)

__all__ = ["Rule", "ALL_RULES", "RULES_BY_ID"]

#: One instance of every shipped rule, in documentation order.
ALL_RULES: tuple[Rule, ...] = (
    StoreLiteralRule(),
    SendLiteralRule(),
    DispatchCompleteRule(),
    ForeignMutationRule(),
    StdlibRandomRule(),
    LegacyNpRandomRule(),
    ImportTimeRngRule(),
    BareExceptRule(),
    BroadExceptRule(),
    SilentExceptRule(),
    MutableDefaultRule(),
    ScalarLoopOverSoaRule(),
    ObsBlockingInWaveRule(),
)

RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
