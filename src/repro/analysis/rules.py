"""The circuit rule set: the :class:`Rule` protocol, registry, and built-ins.

A rule is a small object with a stable ``code`` and a
``check(circuit, context)`` method yielding :class:`Diagnostic` findings.
Rules register by code in a process-wide registry — the same shape as the
gate and backend registries (:mod:`repro.gates.registry`,
:mod:`repro.sim.registry`) — so downstream frontends (e.g. a QASM
ingester) can ship their own rules without touching this module.

:func:`analyze` is the driver: it runs every requested rule over one
circuit and returns the combined
:class:`~repro.analysis.diagnostics.AnalysisReport`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.analysis.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    AnalysisReport,
    Diagnostic,
    _SEVERITY_RANK,
)
from repro.circuit import Circuit
from repro.circuit.ptm import ptm_is_trace_preserving
from repro.transpile.fusion import is_fusion_barrier
from repro.utils.exceptions import AnalysisError

_GIB = 1024**3


def _code_tuple(field: str, value: Any) -> Tuple[str, ...]:
    """Normalise a select/ignore spec to a lowercase code tuple."""
    if value is None:
        return ()
    if isinstance(value, str):
        # A bare string is a one-element spec, not an iterable of chars.
        value = (value,)
    codes = []
    for code in value:
        if not isinstance(code, str) or not code:
            raise AnalysisError(
                f"{field} entries must be non-empty diagnostic codes, "
                f"got {code!r}"
            )
        codes.append(code.lower())
    return tuple(codes)


@dataclass(frozen=True)
class AnalysisContext:
    """Ambient facts rules may consult; safe defaults for bare ``analyze()``.

    Parameters
    ----------
    mode:
        The plan mode the circuit is headed for (``"statevector"``,
        ``"density"``, ``"trajectory"``, ``"ptm"``) or ``None`` when unknown —
        the resource rule then assumes the cheaper pure-state estimate.
    max_memory_bytes:
        State tensors estimated above this are *errors* (the run cannot
        reasonably fit).
    warn_memory_bytes:
        State tensors estimated above this (but under the hard limit)
        are warnings.
    itemsize:
        Bytes per amplitude (16 for complex128).
    select:
        Diagnostic codes to keep (ruff-style): empty (default) keeps
        everything; otherwise only findings whose code is listed survive
        :meth:`apply`.  Matched case-insensitively, like the rule
        registry.
    ignore:
        Diagnostic codes to drop, applied after ``select``.
    severity_overrides:
        Per-code severity rewrites, e.g. ``{"unused-qubit": "error"}``
        promotes that finding to error severity (so strict mode fails on
        it).  Accepts any mapping of code -> ``"error"``/``"warning"``/
        ``"info"`` (normalised to a sorted tuple of pairs so the context
        stays hashable).
    """

    mode: Optional[str] = None
    max_memory_bytes: int = 64 * _GIB
    warn_memory_bytes: int = 4 * _GIB
    itemsize: int = 16
    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    severity_overrides: Any = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "select", _code_tuple("select", self.select))
        object.__setattr__(self, "ignore", _code_tuple("ignore", self.ignore))
        overrides = self.severity_overrides
        if isinstance(overrides, Mapping):
            pairs = tuple(overrides.items())
        else:
            pairs = tuple(overrides)
        normalised = []
        for entry in pairs:
            try:
                code, level = entry
            except (TypeError, ValueError):
                raise AnalysisError(
                    f"severity_overrides entries must be (code, severity) "
                    f"pairs, got {entry!r}"
                ) from None
            if not isinstance(code, str) or not code:
                raise AnalysisError(
                    f"severity_overrides codes must be non-empty strings, "
                    f"got {code!r}"
                )
            if level not in _SEVERITY_RANK:
                raise AnalysisError(
                    f"severity override for {code!r} must be one of "
                    f"{sorted(_SEVERITY_RANK)}, got {level!r}"
                )
            normalised.append((code.lower(), level))
        object.__setattr__(
            self, "severity_overrides", tuple(sorted(normalised))
        )

    def apply(self, diagnostics: Iterable[Diagnostic]) -> Tuple[Diagnostic, ...]:
        """Filter and re-severity ``diagnostics`` per this context.

        ``select`` (when non-empty) keeps only listed codes, ``ignore``
        then drops its codes, and ``severity_overrides`` rewrites the
        severity of what remains — the order every linter with these
        knobs uses.  Codes match case-insensitively.  Idempotent, so
        layered reports (circuit + plan) can be filtered more than once.
        """
        overrides = dict(self.severity_overrides)
        kept: List[Diagnostic] = []
        for diagnostic in diagnostics:
            code = diagnostic.code.lower()
            if self.select and code not in self.select:
                continue
            if code in self.ignore:
                continue
            level = overrides.get(code)
            if level is not None and level != diagnostic.severity:
                diagnostic = dataclasses.replace(diagnostic, severity=level)
            kept.append(diagnostic)
        return tuple(kept)


@runtime_checkable
class Rule(Protocol):
    """What the analyzer drives: a code plus a ``check`` method."""

    code: str

    def check(
        self, circuit: Circuit, context: AnalysisContext
    ) -> Iterable[Diagnostic]:
        """Yield findings for ``circuit``; empty when the rule passes."""
        ...


# ----------------------------------------------------------------------
# registry (mirrors repro.gates.registry / repro.sim.registry)
# ----------------------------------------------------------------------
_RULES: Dict[str, Rule] = {}


def register_rule(rule: Rule, replace: bool = False) -> None:
    """Register ``rule`` under ``rule.code``.

    Duplicate codes are rejected unless ``replace=True`` — silently
    shadowing a rule is how checks rot away unnoticed.  Codes are
    case-insensitive, like gate and backend names.
    """
    code = getattr(rule, "code", None)
    if not isinstance(code, str) or not code:
        raise AnalysisError(
            f"rule must carry a non-empty string 'code', got {code!r}"
        )
    if not callable(getattr(rule, "check", None)):
        raise AnalysisError(f"rule {code!r} must define a check() method")
    key = code.lower()
    if key in _RULES and not replace:
        raise AnalysisError(
            f"rule {code!r} is already registered; pass replace=True to "
            "override it"
        )
    _RULES[key] = rule


def get_rule(code: str) -> Rule:
    """Look up a registered rule by code (case-insensitive)."""
    try:
        return _RULES[str(code).lower()]
    except KeyError:
        raise AnalysisError(
            f"unknown analysis rule {code!r}; available: "
            f"{', '.join(available_rules())}"
        ) from None


def available_rules() -> Tuple[str, ...]:
    """Registered rule codes, sorted (matching gates/backends)."""
    return tuple(sorted(_RULES))


# ----------------------------------------------------------------------
# built-in rules
# ----------------------------------------------------------------------
class UnusedQubitRule:
    """Qubits no instruction touches: usually an off-by-one in a builder."""

    code = "unused-qubit"

    def check(
        self, circuit: Circuit, context: AnalysisContext
    ) -> Iterator[Diagnostic]:
        active = set(circuit.active_qubits())
        for qubit in range(circuit.num_qubits):
            if qubit not in active:
                yield Diagnostic(
                    WARNING,
                    self.code,
                    f"qubit {qubit} is never used by any instruction",
                )


class UnusedClbitRule:
    """Classical bits never written (measured into) nor read (branched on)."""

    code = "unused-clbit"

    def check(
        self, circuit: Circuit, context: AnalysisContext
    ) -> Iterator[Diagnostic]:
        touched = set()
        for instruction in circuit:
            if instruction.is_measure or instruction.is_conditional:
                touched.add(instruction.operation.clbit)
        for clbit in range(circuit.num_clbits):
            if clbit not in touched:
                yield Diagnostic(
                    WARNING,
                    self.code,
                    f"clbit {clbit} is never measured into nor branched on",
                )


class ReadBeforeWriteRule:
    """``if_bit`` reads a clbit before the measure that writes it.

    The branch then always sees the initial 0 — almost certainly the
    measure and the conditional are in the wrong order.  Clbits that are
    *never* written are the dead-conditional rule's finding, not this
    one's.
    """

    code = "clbit-read-before-write"

    def check(
        self, circuit: Circuit, context: AnalysisContext
    ) -> Iterator[Diagnostic]:
        first_write: Dict[int, int] = {}
        for index, instruction in enumerate(circuit):
            if instruction.is_measure:
                first_write.setdefault(instruction.operation.clbit, index)
        for index, instruction in enumerate(circuit):
            if not instruction.is_conditional:
                continue
            clbit = instruction.operation.clbit
            if clbit in first_write and first_write[clbit] > index:
                yield Diagnostic(
                    WARNING,
                    self.code,
                    f"conditional reads clbit {clbit} before the first "
                    f"measurement that writes it (instruction "
                    f"{first_write[clbit]}); the branch always sees 0",
                    site=index,
                )


class DeadConditionalRule:
    """``if_bit`` on a clbit no measurement ever writes: a constant branch."""

    code = "dead-conditional"

    def check(
        self, circuit: Circuit, context: AnalysisContext
    ) -> Iterator[Diagnostic]:
        written = {
            instruction.operation.clbit
            for instruction in circuit
            if instruction.is_measure
        }
        for index, instruction in enumerate(circuit):
            if not instruction.is_conditional:
                continue
            operation = instruction.operation
            if operation.clbit not in written:
                fate = "always" if operation.value == 0 else "never"
                yield Diagnostic(
                    WARNING,
                    self.code,
                    f"conditional branches on clbit {operation.clbit}, which "
                    f"no measurement writes — the register reads 0, so the "
                    f"gate {fate} applies",
                    site=index,
                )


class MeasureOverwriteRule:
    """A second measurement into a clbit whose value was never read."""

    code = "measure-overwrite"

    def check(
        self, circuit: Circuit, context: AnalysisContext
    ) -> Iterator[Diagnostic]:
        last_write: Dict[int, int] = {}
        read_since: Dict[int, bool] = {}
        for index, instruction in enumerate(circuit):
            if instruction.is_conditional:
                read_since[instruction.operation.clbit] = True
                continue
            if not instruction.is_measure:
                continue
            clbit = instruction.operation.clbit
            if clbit in last_write and not read_since.get(clbit, False):
                yield Diagnostic(
                    WARNING,
                    self.code,
                    f"measurement overwrites clbit {clbit} (written at "
                    f"instruction {last_write[clbit]}) before anything "
                    f"reads it — the first outcome is lost",
                    site=index,
                )
            last_write[clbit] = index
            read_since[clbit] = False


class ChannelRule:
    """Channels whose Kraus set is ill-shaped or not trace preserving.

    Construction validates both, but ``Channel(..., validate=False)``
    skips the CPTP check and unpickling/corruption can damage shapes —
    either way the simulation silently leaks or gains probability, so
    this is an error, not a warning.
    """

    code = "non-cptp-channel"

    def check(
        self, circuit: Circuit, context: AnalysisContext
    ) -> Iterator[Diagnostic]:
        for index, instruction in enumerate(circuit):
            if not instruction.is_channel:
                continue
            channel = instruction.operation
            dim = 2**channel.num_qubits
            bad_shapes = [
                op.shape for op in channel.kraus if op.shape != (dim, dim)
            ]
            if not channel.kraus:
                yield Diagnostic(
                    ERROR,
                    self.code,
                    f"channel {channel.name!r} has no Kraus operators",
                    site=index,
                )
                continue
            if bad_shapes:
                yield Diagnostic(
                    ERROR,
                    self.code,
                    f"channel {channel.name!r} has Kraus operator(s) of "
                    f"shape {bad_shapes} where ({dim}, {dim}) is required",
                    site=index,
                )
                continue
            try:
                trace_preserving = channel.is_trace_preserving()
            except Exception as exc:
                yield Diagnostic(
                    ERROR,
                    self.code,
                    f"channel {channel.name!r} CPTP check failed: {exc}",
                    site=index,
                )
                continue
            if not trace_preserving:
                yield Diagnostic(
                    ERROR,
                    self.code,
                    f"channel {channel.name!r} is not trace preserving "
                    f"(sum K†K != I): probability leaks every application",
                    site=index,
                )
                continue
            # Same physics, second representation: the precomputed Pauli
            # transfer matrix must carry the trace row (1, 0, ..., 0) —
            # a corrupted/stale PTM cache would silently leak probability
            # in ptm-mode plans even when the Kraus set is intact.
            if not ptm_is_trace_preserving(channel.ptm):
                yield Diagnostic(
                    ERROR,
                    self.code,
                    f"channel {channel.name!r} is not trace preserving in "
                    f"the Pauli basis: the first PTM row deviates from "
                    f"(1, 0, ..., 0)",
                    site=index,
                )


class FusionBarrierRule:
    """Circuits dominated by fusion barriers: gate fusion is moot.

    What counts as a barrier is the fusion module's call for the
    context's plan mode (:func:`~repro.transpile.fusion.is_fusion_barrier`):
    dynamic ops and unbound parametric gates always, channels everywhere
    but ``"ptm"``, whose lowering fuses them with the gates around them.
    When at least half of a non-trivial circuit is barriers, fusion buys
    little — an advisory finding, not a bug.
    """

    code = "fusion-barrier-density"

    #: Below this many instructions density is noise, not signal.
    min_instructions = 4
    threshold = 0.5

    def check(
        self, circuit: Circuit, context: AnalysisContext
    ) -> Iterator[Diagnostic]:
        total = len(circuit)
        if total < self.min_instructions:
            return
        barriers = sum(
            1 for instruction in circuit if is_fusion_barrier(instruction, context.mode)
        )
        density = barriers / total
        if density >= self.threshold:
            yield Diagnostic(
                INFO,
                self.code,
                f"{barriers} of {total} instructions "
                f"({density:.0%}) are fusion barriers "
                f"(channels/dynamic ops/parametric gates); gate fusion "
                f"will have little effect",
            )


class ResourceRule:
    """Predicts state-tensor memory and flags runs that will not fit.

    A pure state costs ``itemsize * 2**n`` bytes, a density matrix
    ``itemsize * 4**n`` — estimates above the context's warn threshold
    are warnings, above the hard limit errors, *before* the first
    allocation happens inside a worker process.
    """

    code = "resource-limit"

    def check(
        self, circuit: Circuit, context: AnalysisContext
    ) -> Iterator[Diagnostic]:
        n = circuit.num_qubits
        # Density matrices and Pauli vectors both hold 4**n elements; the
        # ptm representation just stores them as reals instead of complex.
        mixed = context.mode in ("density", "ptm")
        amplitudes = 4**n if mixed else 2**n
        estimate = amplitudes * context.itemsize
        if estimate <= context.warn_memory_bytes:
            return
        if context.mode == "ptm":
            kind = "Pauli vector"
        elif mixed:
            kind = "density matrix"
        else:
            kind = "statevector"
        scaling = "4**n" if mixed else "2**n"
        message = (
            f"{kind} for {n} qubits needs ~{estimate / _GIB:.1f} GiB "
            f"({scaling} amplitudes x {context.itemsize} bytes)"
        )
        if estimate > context.max_memory_bytes:
            yield Diagnostic(
                ERROR,
                self.code,
                f"{message}, over the {context.max_memory_bytes / _GIB:.1f} "
                f"GiB limit — this run will not fit",
            )
        else:
            yield Diagnostic(
                WARNING,
                self.code,
                f"{message}, over the "
                f"{context.warn_memory_bytes / _GIB:.1f} GiB warning "
                f"threshold",
            )


for _rule in (
    UnusedQubitRule(),
    UnusedClbitRule(),
    ReadBeforeWriteRule(),
    DeadConditionalRule(),
    MeasureOverwriteRule(),
    ChannelRule(),
    FusionBarrierRule(),
    ResourceRule(),
):
    register_rule(_rule)
del _rule


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def analyze(
    circuit: Circuit,
    rules: Optional[Iterable[Union[str, Rule]]] = None,
    *,
    context: Optional[AnalysisContext] = None,
) -> AnalysisReport:
    """Run static-analysis rules over ``circuit``.

    Parameters
    ----------
    circuit:
        The circuit to lint; never executed, never mutated.
    rules:
        ``None`` for every registered rule (registration order), or an
        iterable of rule codes / :class:`Rule` instances to run a subset
        (or unregistered ad-hoc rules).
    context:
        Ambient facts (target plan mode, memory limits); defaults to
        :class:`AnalysisContext`'s conservative values.

    Returns
    -------
    AnalysisReport
        Every finding, in rule order then circuit order.
    """
    if not isinstance(circuit, Circuit):
        raise AnalysisError(
            f"analyze expects a Circuit, got {type(circuit).__name__}"
        )
    if context is None:
        context = AnalysisContext()
    if rules is None:
        selected: List[Rule] = list(_RULES.values())
    else:
        selected = []
        for entry in rules:
            if isinstance(entry, str):
                selected.append(get_rule(entry))
            elif callable(getattr(entry, "check", None)):
                selected.append(entry)
            else:
                raise AnalysisError(
                    f"rules entries must be codes or Rule objects, got "
                    f"{entry!r}"
                )
    diagnostics: List[Diagnostic] = []
    for rule in selected:
        diagnostics.extend(rule.check(circuit, context))
    return AnalysisReport(context.apply(diagnostics))


__all__ = [
    "AnalysisContext",
    "Rule",
    "register_rule",
    "get_rule",
    "available_rules",
    "analyze",
    "UnusedQubitRule",
    "UnusedClbitRule",
    "ReadBeforeWriteRule",
    "DeadConditionalRule",
    "MeasureOverwriteRule",
    "ChannelRule",
    "FusionBarrierRule",
    "ResourceRule",
]
