"""Compile-once/run-many: lowering circuit IR to :class:`ExecutionPlan` ops.

The eager simulation path re-did the same bookkeeping on every ``run()``:
matrix lookup per instruction, axis arithmetic per contraction, noise-rule
matching per gate, and — for a parameter sweep — all of it once per
binding.  :func:`compile_plan` hoists that work to compile time: a circuit
lowers once into a flat op sequence whose matrices are already reshaped
for :func:`numpy.tensordot` with their contraction axes resolved, Kraus
channels grouped, and :class:`~repro.noise.NoiseModel` rules matched per
instruction.  Executing the plan (the backends' shared tight loop in
:class:`~repro.sim.BaseBackend`) is then nothing but contractions.

Parametric gates lower to :class:`ParametricSlotOp` placeholders;
:meth:`ExecutionPlan.bind` resolves the slots to concrete ops *without
re-lowering* the static ops around them, so an N-point sweep costs one
lowering plus N cheap slot substitutions (or a single batched contraction
per op — see :mod:`repro.plan.batch`).

Four lowering modes exist, selected by the target backend's ``plan_mode``:

* ``"statevector"`` — gates become :class:`ContractOp` contractions onto
  a ``(2,) * n`` pure-state tensor; channel instructions and gate-noise
  models are rejected at compile time.
* ``"density"`` — ops conjugate a ``(2,) * 2n`` density tensor
  (``U rho U†`` as two contractions in :class:`DensityUnitaryOp`,
  channels as Kraus sums in :class:`DensityKrausOp`); noise-model
  rules are matched per instruction *here*, not per run.
* ``"trajectory"`` — pure-state ops like ``"statevector"``, but channels
  (and matched noise rules) lower to :class:`TrajectoryKrausOp`: at
  execution time one Kraus operator is *sampled* per application from the
  seeded RNG stream (Monte-Carlo wavefunction unraveling), keeping noisy
  evolution at O(2**n) per trajectory.
* ``"ptm"`` — every gate *and* every channel becomes one real
  ``(4**k, 4**k)`` Pauli-transfer matrix contracting onto the ``(4,) * n``
  Pauli vector of rho (a base-4 :class:`ContractOp`).  Because gates and noise now
  compose by plain matrix multiplication, lowering feeds gate and channel
  PTMs alike to the shared :class:`~repro.transpile.fusion.Fuser`: each
  program-order run whose qubits stay within
  :data:`~repro.transpile.fusion.FUSE_WIDTH` becomes a single op —
  channels stop being fusion barriers.  Dynamic instructions are
  rejected in this mode.

Dynamic instructions (measure/reset/if_bit) lower to
:class:`MeasureOp`/:class:`ResetOp`/:class:`ConditionalOp` in the other
three modes.
Plans containing them (or trajectory Kraus ops) set
:attr:`ExecutionPlan.has_dynamic_ops`; the backends' shared loop then
threads an RNG and a classical-bit register through
:func:`execute_dynamic_pure` / :func:`execute_dynamic_density` instead of
the plain op-after-op fast path.
"""

from __future__ import annotations

import contextlib
import time
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.circuit import Channel, Circuit, Parameter
from repro.circuit.ptm import kraus_to_ptm
from repro.transpile.fusion import Fuser, FusionGroup, contract, is_fusion_barrier
from repro.utils.exceptions import SimulationError

if TYPE_CHECKING:
    from repro.circuit.circuit import CircuitStats
    from repro.circuit.gate import Gate
    from repro.circuit.instruction import Instruction
    from repro.execution.options import RunOptions
    from repro.noise import NoiseModel

# Dynamic density evolution threads the state as classical-outcome
# branches: (clbit tuple, unnormalised rho).
Branches = List[Tuple[Tuple[int, ...], np.ndarray]]

STATEVECTOR = "statevector"
DENSITY = "density"
TRAJECTORY = "trajectory"
PTM = "ptm"

#: Density-mode classical branches below this trace weight are dropped:
#: they are fp dust from projecting deterministic outcomes, and keeping
#: them would only add zero tensors to every later contraction.
_BRANCH_ATOL = 1e-15

# Lowering hooks: callables invoked as fn(circuit, plan) after every *full*
# lowering (never on ExecutionPlan.bind, which only substitutes slot ops).
# Tests hang counters here to prove the compile-once/bind-many contract.
LowerHook = Callable[["Circuit", "ExecutionPlan"], None]

_LOWER_HOOKS: List[LowerHook] = []


def add_lower_hook(hook: LowerHook) -> None:
    """Register ``hook(circuit, plan)`` to fire after each full lowering."""
    if not callable(hook):
        raise SimulationError(f"lower hook must be callable, got {hook!r}")
    _LOWER_HOOKS.append(hook)


def remove_lower_hook(hook: LowerHook) -> None:
    """Unregister a hook added via :func:`add_lower_hook` (missing is a no-op)."""
    with contextlib.suppress(ValueError):
        _LOWER_HOOKS.remove(hook)


class ContractOp:
    """A matrix contraction onto ``targets`` of a ``(base,) * n`` state tensor.

    The one single-sided op of every mode but density: a gate unitary
    onto a ``(2,) * n`` pure state (``base=2``, statevector and trajectory
    plans), or a real Pauli-transfer matrix onto the ``(4,) * n`` Pauli
    vector of rho (``base=4``, ptm plans).  One ptm op routinely covers a
    whole fused gate+channel run: in that basis noise composes with gates
    by matrix multiplication, so lowering collapses adjacent runs into a
    single ``(4**k, 4**k)`` block.
    """

    __slots__ = ("tensor", "targets", "in_axes", "out_axes", "batch_targets", "name")

    is_slot = False
    is_dynamic = False

    def __init__(
        self,
        name: str,
        matrix: np.ndarray,
        targets: Sequence[int],
        dtype: np.dtype,
        base: int = 2,
    ) -> None:
        k = len(targets)
        # asarray, not astype: when the backend dtype matches the matrix
        # (the common complex128 / float64 case) the cached gate matrix or
        # PTM is shared, not copied per op.
        self.tensor = np.asarray(matrix, dtype=dtype).reshape((base,) * (2 * k))
        self.targets = tuple(targets)
        self.in_axes = tuple(range(k, 2 * k))
        self.out_axes = tuple(range(k))
        # Targets shifted by one for the (N, 2, ..., 2) batched sweep
        # layout, where axis 0 is the sweep-point axis.
        self.batch_targets = tuple(t + 1 for t in self.targets)
        self.name = name

    def apply(self, state: np.ndarray) -> np.ndarray:
        return contract(state, self.tensor, self.targets, self.in_axes, self.out_axes)

    def apply_batched(self, batch: np.ndarray) -> np.ndarray:
        return contract(
            batch, self.tensor, self.batch_targets, self.in_axes, self.out_axes
        )

    def __repr__(self) -> str:
        return f"ContractOp({self.name} @ {self.targets})"


class DensityUnitaryOp:
    """``U rho U†`` on a density tensor: two precomputed-axis contractions."""

    __slots__ = (
        "tensor",
        "conj_tensor",
        "row_targets",
        "col_targets",
        "in_axes",
        "out_axes",
        "name",
    )

    is_slot = False
    is_dynamic = False

    def __init__(
        self,
        name: str,
        matrix: np.ndarray,
        targets: Sequence[int],
        num_qubits: int,
        dtype: np.dtype,
    ) -> None:
        k = len(targets)
        matrix = np.asarray(matrix, dtype=dtype)
        self.tensor = matrix.reshape((2,) * (2 * k))
        self.conj_tensor = np.conj(matrix).reshape((2,) * (2 * k))
        self.row_targets = tuple(targets)
        self.col_targets = tuple(num_qubits + t for t in targets)
        self.in_axes = tuple(range(k, 2 * k))
        self.out_axes = tuple(range(k))
        self.name = name

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = contract(rho, self.tensor, self.row_targets, self.in_axes, self.out_axes)
        return contract(
            rho, self.conj_tensor, self.col_targets, self.in_axes, self.out_axes
        )

    def __repr__(self) -> str:
        return f"DensityUnitaryOp({self.name} @ {self.row_targets})"


class DensityKrausOp:
    """``sum_i K_i rho K_i†`` on a density tensor, operators prereshaped."""

    __slots__ = (
        "tensors",
        "conj_tensors",
        "row_targets",
        "col_targets",
        "in_axes",
        "out_axes",
        "name",
    )

    is_slot = False
    is_dynamic = False

    def __init__(
        self,
        name: str,
        kraus: Sequence[np.ndarray],
        targets: Sequence[int],
        num_qubits: int,
        dtype: np.dtype,
    ) -> None:
        k = len(targets)
        shape = (2,) * (2 * k)
        operators = [np.asarray(op, dtype=dtype) for op in kraus]
        self.tensors = tuple(op.reshape(shape) for op in operators)
        self.conj_tensors = tuple(np.conj(op).reshape(shape) for op in operators)
        self.row_targets = tuple(targets)
        self.col_targets = tuple(num_qubits + t for t in targets)
        self.in_axes = tuple(range(k, 2 * k))
        self.out_axes = tuple(range(k))
        self.name = name

    def apply(self, rho: np.ndarray) -> np.ndarray:
        total = None
        for tensor, conj_tensor in zip(self.tensors, self.conj_tensors):
            term = contract(rho, tensor, self.row_targets, self.in_axes, self.out_axes)
            term = contract(
                term, conj_tensor, self.col_targets, self.in_axes, self.out_axes
            )
            total = term if total is None else total + term
        return total

    def __repr__(self) -> str:
        return f"DensityKrausOp({self.name} @ {self.row_targets}, {len(self.tensors)} ops)"


# Gate PTMs memoised per (name, params, unitary bytes), mirroring the
# registry's gate cache: sweeps rebinding the same values and repeated
# lowerings share one U·U† conjugation instead of recomputing it per
# instruction.  The matrix bytes are part of the key because (name,
# params) does not determine the unitary for ad-hoc gates — every
# transpile-fused block is named "unitary" with no params.
_GATE_PTM_CACHE: "OrderedDict[Tuple[str, Tuple[float, ...], bytes], np.ndarray]" = (
    OrderedDict()
)
_GATE_PTM_CACHE_MAX = 4096


def _gate_ptm(
    name: str, params: Sequence[float], matrix: np.ndarray, num_qubits: int
) -> np.ndarray:
    key = (
        name,
        tuple(float(p) for p in params),
        np.ascontiguousarray(matrix).tobytes(),
    )
    cached = _GATE_PTM_CACHE.get(key)
    if cached is not None:
        _GATE_PTM_CACHE.move_to_end(key)
        return cached
    ptm = kraus_to_ptm((matrix,), num_qubits)
    ptm.setflags(write=False)
    _GATE_PTM_CACHE[key] = ptm
    if len(_GATE_PTM_CACHE) > _GATE_PTM_CACHE_MAX:
        _GATE_PTM_CACHE.popitem(last=False)
    return ptm


class ParametricSlotOp:
    """A placeholder for a gate whose matrix waits on parameter binding.

    Carries everything needed to become a concrete op the instant values
    arrive: the registry gate name, the parameter template (bound reals
    mixed with :class:`~repro.circuit.Parameter` symbols), and the target
    qubits.  :meth:`resolve_gate` goes through the registry's gate
    cache, so repeated bindings of the same value share one matrix.
    """

    __slots__ = ("gate_name", "params", "targets", "parameters", "index")

    is_slot = True
    is_dynamic = False

    def __init__(
        self,
        gate_name: str,
        params: Sequence[Union[float, Parameter]],
        targets: Sequence[int],
        index: int,
    ) -> None:
        self.gate_name = gate_name
        self.params = tuple(params)
        self.targets = tuple(targets)
        self.parameters = tuple(p for p in self.params if isinstance(p, Parameter))
        self.index = index

    def resolve_gate(self, values: Mapping[str, float]) -> "Gate":
        from repro.gates import get_gate

        bound = tuple(
            values[p.name] if isinstance(p, Parameter) else p for p in self.params
        )
        return get_gate(self.gate_name, *bound)

    def resolve_matrix(self, values: Mapping[str, float]) -> np.ndarray:
        return self.resolve_gate(values).matrix

    def apply(self, state: np.ndarray) -> np.ndarray:
        raise SimulationError(
            f"plan op {self.index} ({self.gate_name!r}) has unbound "
            f"parameter(s) {[p.name for p in self.parameters]}; bind the "
            "plan before executing it"
        )

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.parameters)
        return f"ParametricSlotOp({self.gate_name}({names}) @ {self.targets})"


def _project_density(
    rho: np.ndarray, qubit: int, num_qubits: int, outcome: int
) -> np.ndarray:
    """``P rho P`` for the Z-basis projector onto ``outcome`` of ``qubit``."""
    out = np.zeros_like(rho)
    src = np.moveaxis(rho, (qubit, num_qubits + qubit), (0, 1))
    dst = np.moveaxis(out, (qubit, num_qubits + qubit), (0, 1))
    dst[outcome, outcome] = src[outcome, outcome]
    return out


def _density_trace(rho: np.ndarray, num_qubits: int) -> float:
    dim = 1 << num_qubits
    return float(np.trace(rho.reshape(dim, dim)).real)


class MeasureOp:
    """Projective Z measurement of one qubit, outcome into a clbit.

    Pure modes sample the outcome from the RNG stream, zero the other
    branch, and renormalise; density mode splits every classical branch
    into its two projected (unnormalised) sub-branches, so the final
    branch weights *are* the joint clbit distribution.
    """

    __slots__ = ("qubit", "clbit", "num_qubits", "name")

    is_slot = False
    is_dynamic = True

    def __init__(self, qubit: int, clbit: int, num_qubits: int) -> None:
        self.qubit = int(qubit)
        self.clbit = int(clbit)
        self.num_qubits = int(num_qubits)
        self.name = "measure"

    def apply(self, state: np.ndarray) -> np.ndarray:
        raise SimulationError(
            "measure is a dynamic op; execute the plan through a backend "
            "(execute_plan threads the RNG and classical bits)"
        )

    def apply_pure(
        self, state: np.ndarray, rng: np.random.Generator, bits: List[int]
    ) -> np.ndarray:
        moved = np.moveaxis(state, self.qubit, 0)
        p0 = float(np.sum(np.abs(moved[0]) ** 2))
        p1 = float(np.sum(np.abs(moved[1]) ** 2))
        # Drawing against the *unnormalised* total also absorbs norm
        # drift; a zero-probability branch can never be selected (see the
        # boundary: random() < 1 strictly, and random() >= 0 always).
        outcome = 0 if rng.random() * (p0 + p1) < p0 else 1
        prob = p0 if outcome == 0 else p1
        out = np.zeros_like(state)
        np.moveaxis(out, self.qubit, 0)[outcome] = moved[outcome] / np.sqrt(prob)
        bits[self.clbit] = outcome
        return out

    def apply_density(self, branches: Branches) -> Branches:
        merged: Dict[tuple, np.ndarray] = {}
        for bits, rho in branches:
            for outcome in (0, 1):
                projected = _project_density(rho, self.qubit, self.num_qubits, outcome)
                if _density_trace(projected, self.num_qubits) <= _BRANCH_ATOL:
                    continue
                key = bits[: self.clbit] + (outcome,) + bits[self.clbit + 1 :]
                if key in merged:
                    merged[key] = merged[key] + projected
                else:
                    merged[key] = projected
        return list(merged.items())

    def __repr__(self) -> str:
        return f"MeasureOp(qubit={self.qubit} -> clbit={self.clbit})"


class ResetOp:
    """Re-initialise one qubit to ``|0>``: measure, flip on 1, discard.

    Pure modes unravel stochastically (sampled projective collapse, then
    the kept branch moves to the ``|0>`` slice); density mode applies the
    exact channel ``rho -> P0 rho P0 + X P1 rho P1 X`` per branch, which
    is deterministic and trace-preserving.
    """

    __slots__ = ("qubit", "num_qubits", "name")

    is_slot = False
    is_dynamic = True

    def __init__(self, qubit: int, num_qubits: int) -> None:
        self.qubit = int(qubit)
        self.num_qubits = int(num_qubits)
        self.name = "reset"

    def apply(self, state: np.ndarray) -> np.ndarray:
        raise SimulationError(
            "reset is a dynamic op; execute the plan through a backend "
            "(execute_plan threads the RNG and classical bits)"
        )

    def apply_pure(
        self, state: np.ndarray, rng: np.random.Generator, bits: List[int]
    ) -> np.ndarray:
        moved = np.moveaxis(state, self.qubit, 0)
        p0 = float(np.sum(np.abs(moved[0]) ** 2))
        p1 = float(np.sum(np.abs(moved[1]) ** 2))
        outcome = 0 if rng.random() * (p0 + p1) < p0 else 1
        prob = p0 if outcome == 0 else p1
        out = np.zeros_like(state)
        # The kept branch lands on the |0> slice whichever outcome was
        # drawn — collapse and conditional flip in one assignment.
        np.moveaxis(out, self.qubit, 0)[0] = moved[outcome] / np.sqrt(prob)
        return out

    def apply_density(self, branches: Branches) -> Branches:
        out = []
        for bits, rho in branches:
            new = np.zeros_like(rho)
            src = np.moveaxis(rho, (self.qubit, self.num_qubits + self.qubit), (0, 1))
            dst = np.moveaxis(new, (self.qubit, self.num_qubits + self.qubit), (0, 1))
            dst[0, 0] = src[0, 0] + src[1, 1]
            out.append((bits, new))
        return out

    def __repr__(self) -> str:
        return f"ResetOp(qubit={self.qubit})"


class ConditionalOp:
    """A concrete unitary op applied only when a clbit reads ``value``.

    ``inner`` is a fully resolved :class:`ContractOp` (pure modes) or
    :class:`DensityUnitaryOp` (density mode) — the branch test is the only
    work left at execution time.
    """

    __slots__ = ("clbit", "value", "inner", "name")

    is_slot = False
    is_dynamic = True

    def __init__(
        self, clbit: int, value: int, inner: Union[ContractOp, DensityUnitaryOp]
    ) -> None:
        self.clbit = int(clbit)
        self.value = int(value)
        self.inner = inner
        self.name = f"if[{inner.name}]"

    def apply(self, state: np.ndarray) -> np.ndarray:
        raise SimulationError(
            "if_bit is a dynamic op; execute the plan through a backend "
            "(execute_plan threads the RNG and classical bits)"
        )

    def apply_pure(
        self, state: np.ndarray, rng: np.random.Generator, bits: List[int]
    ) -> np.ndarray:
        if bits[self.clbit] == self.value:
            return self.inner.apply(state)
        return state

    def apply_density(self, branches: Branches) -> Branches:
        return [
            (bits, self.inner.apply(rho) if bits[self.clbit] == self.value else rho)
            for bits, rho in branches
        ]

    def __repr__(self) -> str:
        return f"ConditionalOp(clbit={self.clbit}=={self.value}, {self.inner!r})"


class TrajectoryKrausOp:
    """Monte-Carlo unraveling of a Kraus channel on a pure state.

    Applies every Kraus operator to the (normalised) input, computes the
    branch weights ``||K_i psi||^2`` — which sum to 1 for a CPTP map —
    samples one branch from the RNG stream, and renormalises.  This is
    the trajectory backend's whole trick: the density-matrix Kraus *sum*
    becomes a Kraus *choice* per trajectory.
    """

    __slots__ = ("tensors", "targets", "in_axes", "out_axes", "name")

    is_slot = False
    is_dynamic = True

    def __init__(
        self,
        name: str,
        kraus: Sequence[np.ndarray],
        targets: Sequence[int],
        dtype: np.dtype,
    ) -> None:
        k = len(targets)
        shape = (2,) * (2 * k)
        self.tensors = tuple(
            np.asarray(op, dtype=dtype).reshape(shape) for op in kraus
        )
        self.targets = tuple(targets)
        self.in_axes = tuple(range(k, 2 * k))
        self.out_axes = tuple(range(k))
        self.name = name

    def apply(self, state: np.ndarray) -> np.ndarray:
        raise SimulationError(
            "trajectory Kraus sampling is a dynamic op; execute the plan "
            "through the trajectory backend (execute_plan threads the RNG)"
        )

    def apply_pure(
        self, state: np.ndarray, rng: np.random.Generator, bits: List[int]
    ) -> np.ndarray:
        candidates = []
        weights = []
        for tensor in self.tensors:
            candidate = contract(state, tensor, self.targets, self.in_axes, self.out_axes)
            candidates.append(candidate)
            weights.append(float(np.vdot(candidate, candidate).real))
        draw = rng.random() * sum(weights)
        cumulative = 0.0
        chosen = None
        for index, weight in enumerate(weights):
            cumulative += weight
            if weight > 0.0 and draw < cumulative:
                chosen = index
                break
        if chosen is None:  # fp edge: draw landed on the trailing rounding gap
            chosen = int(np.argmax(weights))
        return candidates[chosen] / np.sqrt(weights[chosen])

    def __repr__(self) -> str:
        return (
            f"TrajectoryKrausOp({self.name} @ {self.targets}, "
            f"{len(self.tensors)} ops)"
        )


def execute_dynamic_pure(
    plan: "ExecutionPlan", tensor: np.ndarray, rng: np.random.Generator
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Run a dynamic pure-state plan: one stochastic trajectory.

    Returns ``(final_tensor, bits)`` where ``bits`` is the classical
    register (a tuple of 0/1 ints) after all measurements.  Identical for
    the statevector and trajectory modes — the op set is the only
    difference.
    """
    bits: List[int] = [0] * plan.num_clbits
    for op in plan.ops:
        if op.is_dynamic:
            tensor = op.apply_pure(tensor, rng, bits)
        else:
            tensor = op.apply(tensor)
    return tensor, tuple(bits)


def execute_dynamic_density(
    plan: "ExecutionPlan", tensor: np.ndarray
) -> Tuple[np.ndarray, Dict[str, float]]:
    """Run a dynamic density plan with classical-outcome bookkeeping.

    The state evolves as a list of ``(clbits, unnormalised rho)`` branches:
    measurements split branches (projector superoperators), conditionals
    apply per branch, and everything static is linear so same-clbit
    branches merge exactly.  Returns ``(rho_total, distribution)`` where
    ``rho_total`` is the deterministic ensemble average (trace 1) and
    ``distribution`` maps clbit strings to their exact probabilities.
    """
    branches = [((0,) * plan.num_clbits, tensor)]
    for op in plan.ops:
        if op.is_dynamic:
            branches = op.apply_density(branches)
        else:
            branches = [(bits, op.apply(rho)) for bits, rho in branches]
    total = None
    distribution: Dict[str, float] = {}
    for bits, rho in branches:
        total = rho if total is None else total + rho
        weight = max(_density_trace(rho, plan.num_qubits), 0.0)
        key = "".join(map(str, bits))
        distribution[key] = distribution.get(key, 0.0) + weight
    norm = sum(distribution.values())
    if norm > 0.0:
        distribution = {key: value / norm for key, value in distribution.items()}
    return total, distribution


PlanOp = Union[
    ContractOp,
    DensityUnitaryOp,
    DensityKrausOp,
    ParametricSlotOp,
    MeasureOp,
    ResetOp,
    ConditionalOp,
    TrajectoryKrausOp,
]


class ExecutionPlan:
    """A lowered, immutable program: what a backend actually executes.

    Produced by :func:`compile_plan`; executed by
    :meth:`~repro.sim.BaseBackend.execute_plan` (one tight loop shared by
    every backend) or, for parameter sweeps on the statevector engine, by
    :func:`repro.plan.run_batched_sweep` as one batched contraction per op.
    """

    __slots__ = (
        "_mode",
        "_num_qubits",
        "_ops",
        "_parameters",
        "_dtype",
        "_circuit",
        "_backend_name",
        "_pass_stats",
        "_stats",
        "_compile_time_s",
        "_transpile_time_s",
        "_num_clbits",
        "_has_dynamic",
    )

    def __init__(
        self,
        mode: str,
        num_qubits: int,
        ops: Sequence[PlanOp],
        parameters: Tuple[Parameter, ...],
        dtype: np.dtype,
        circuit: Circuit,
        backend_name: str,
        pass_stats: Tuple[dict, ...] = (),
        stats: Optional["CircuitStats"] = None,
        compile_time_s: float = 0.0,
        transpile_time_s: float = 0.0,
        *,
        num_clbits: int = 0,
    ) -> None:
        self._mode = mode
        self._num_qubits = int(num_qubits)
        self._ops = tuple(ops)
        self._parameters = tuple(parameters)
        self._dtype = np.dtype(dtype)
        self._circuit = circuit
        self._backend_name = backend_name
        self._pass_stats = tuple(pass_stats)
        self._stats = stats
        self._compile_time_s = float(compile_time_s)
        self._transpile_time_s = float(transpile_time_s)
        self._num_clbits = int(num_clbits)
        self._has_dynamic = any(op.is_dynamic for op in self._ops)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Lowering mode: ``"statevector"``, ``"density"``, ``"trajectory"``
        or ``"ptm"``."""
        return self._mode

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_clbits(self) -> int:
        """Width of the classical register dynamic ops write into."""
        return self._num_clbits

    @property
    def has_dynamic_ops(self) -> bool:
        """Whether execution needs the RNG/classical-bit threading path."""
        return self._has_dynamic

    @property
    def ops(self) -> Tuple[PlanOp, ...]:
        """The flat precomputed op sequence, in execution order."""
        return self._ops

    @property
    def parameters(self) -> Tuple[Parameter, ...]:
        """Distinct unbound symbols, in first-use order (empty when bound)."""
        return self._parameters

    @property
    def is_parametric(self) -> bool:
        return bool(self._parameters)

    @property
    def dtype(self) -> np.dtype:
        """The dtype every op tensor was cast to at compile time."""
        return self._dtype

    @property
    def circuit(self) -> Circuit:
        """The (transpiled, possibly parametric) circuit this plan lowers."""
        return self._circuit

    @property
    def backend_name(self) -> str:
        """Name of the backend the plan was compiled for."""
        return self._backend_name

    @property
    def pass_stats(self) -> Tuple[dict, ...]:
        """Per-pass transpile statistics captured at compile time."""
        return self._pass_stats

    @property
    def stats(self) -> Optional["CircuitStats"]:
        """:class:`~repro.circuit.CircuitStats` of the lowered circuit."""
        return self._stats

    @property
    def compile_time_s(self) -> float:
        """Wall time of the original compile (transpile + lowering)."""
        return self._compile_time_s

    @property
    def transpile_time_s(self) -> float:
        """Wall time of the transpile portion of the original compile."""
        return self._transpile_time_s

    def __len__(self) -> int:
        return len(self._ops)

    def __repr__(self) -> str:
        parametric = (
            f", {len(self._parameters)} parameter(s)" if self._parameters else ""
        )
        return (
            f"ExecutionPlan({self._mode}, {self._num_qubits} qubits, "
            f"{len(self._ops)} ops{parametric})"
        )

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind(self, binding: Mapping[Union[Parameter, str], float]) -> "ExecutionPlan":
        """Resolve every parametric slot and return the bound plan.

        Static ops are *shared* with this plan, not recomputed — binding
        never re-lowers (the lowering hooks do not fire).  Every plan
        parameter must be bound; stray keys are rejected like
        :meth:`Circuit.bind` rejects them.
        """
        from repro.circuit.parameter import normalize_binding, validate_binding_names

        values = normalize_binding(binding, SimulationError)
        validate_binding_names(
            values,
            (parameter.name for parameter in self._parameters),
            SimulationError,
            subject="plan",
            require_complete=True,
        )
        if not self._parameters:
            return self
        ops: List[PlanOp] = []
        for op in self._ops:
            if not op.is_slot:
                ops.append(op)
                continue
            gate = op.resolve_gate(values)
            ops.append(_gate_op(gate, op.targets, self._mode, self._num_qubits, self._dtype))
        return ExecutionPlan(
            self._mode,
            self._num_qubits,
            ops,
            (),
            self._dtype,
            self._circuit,
            self._backend_name,
            self._pass_stats,
            self._stats,
            self._compile_time_s,
            self._transpile_time_s,
            num_clbits=self._num_clbits,
        )


def _gate_op(
    gate: "Gate", targets: Sequence[int], mode: str, num_qubits: int, dtype: np.dtype
) -> PlanOp:
    """The op applying concrete ``gate`` to ``targets`` in a ``mode`` plan."""
    if mode == PTM:
        ptm = _gate_ptm(gate.name, gate.params, gate.matrix, len(targets))
        return ContractOp(gate.name, ptm, targets, dtype, base=4)
    if mode == DENSITY:
        return DensityUnitaryOp(gate.name, gate.matrix, targets, num_qubits, dtype)
    return ContractOp(gate.name, gate.matrix, targets, dtype)


def _lower_dynamic(
    instruction: "Instruction", mode: str, num_qubits: int, dtype: np.dtype
) -> PlanOp:
    """Lower one dynamic instruction (measure/reset/if_bit) for ``mode``."""
    operation = instruction.operation
    if instruction.is_measure:
        return MeasureOp(instruction.qubits[0], operation.clbit, num_qubits)
    if instruction.is_reset:
        return ResetOp(instruction.qubits[0], num_qubits)
    # Conditional: the wrapped gate is concrete (Conditional rejects
    # parametric operations), so the inner op resolves fully here.
    inner = _gate_op(operation.operation, instruction.qubits, mode, num_qubits, dtype)
    return ConditionalOp(operation.clbit, operation.value, inner)


def _lower(
    circuit: Circuit,
    mode: str,
    dtype: np.dtype,
    noise_model: Optional["NoiseModel"],
) -> List[PlanOp]:
    """Lower a (transpiled) circuit into the plan ops for ``mode``.

    In ``"ptm"`` mode gates and channels alike arrive as real PTMs and go
    through the shared :class:`~repro.transpile.fusion.Fuser` — the
    statevector fusion pass must stop at every channel, but here a noisy
    layer collapses into one op per fused group.  The fuser is flushed
    wherever :func:`~repro.transpile.fusion.is_fusion_barrier` says so for
    ``mode`` (parametric slots in ``"ptm"``); in the other modes it never
    holds a group, so the flush is a no-op.
    """
    n = circuit.num_qubits
    ops: List[PlanOp] = []

    def emit(group: FusionGroup) -> None:
        ops.append(
            ContractOp("+".join(group.members), group.product(), group.qubits, dtype, base=4)
        )

    fuser = Fuser(emit, dim=4)

    def add_channel(channel: Channel, qubits: Sequence[int]) -> None:
        if mode == PTM:
            fuser.feed(qubits, channel.ptm, channel.name)
        elif mode == TRAJECTORY:
            ops.append(TrajectoryKrausOp(channel.name, channel.kraus, qubits, dtype))
        elif mode == DENSITY:
            ops.append(DensityKrausOp(channel.name, channel.kraus, qubits, n, dtype))
        else:
            raise SimulationError(
                "circuit contains channel instructions; the statevector "
                "backend only simulates unitary gates — use "
                "backend='density_matrix', 'ptm' or 'trajectory'"
            )

    for index, instruction in enumerate(circuit):
        operation = instruction.operation
        qubits = instruction.qubits
        if is_fusion_barrier(instruction, mode):
            fuser.flush()
        if instruction.is_dynamic:
            if mode == PTM:
                raise SimulationError(
                    "circuit contains dynamic ops (measure/reset/if_bit); the "
                    "ptm backend evolves Pauli vectors with no classical "
                    "register — use backend='density_matrix' or "
                    "backend='trajectory'"
                )
            ops.append(_lower_dynamic(instruction, mode, n, dtype))
            continue
        if instruction.is_channel:
            add_channel(operation, qubits)
            continue
        if instruction.is_parametric:
            ops.append(ParametricSlotOp(operation.name, operation.params, qubits, index))
        elif mode == PTM:
            matrix = _gate_ptm(operation.name, operation.params, operation.matrix, len(qubits))
            fuser.feed(qubits, matrix, operation.name)
        else:
            ops.append(_gate_op(operation, qubits, mode, n, dtype))
        if noise_model is not None:
            # Rule matching hoisted out of the run loop: the rules
            # fired by an instruction depend only on its name and
            # qubits, both fixed at compile time (parametric or not).
            # Statevector mode never gets here — gate noise is rejected
            # by the backend's _validate_noise before lowering.
            for channel, channel_qubits in noise_model.channels_for(instruction):
                add_channel(channel, channel_qubits)
    fuser.flush()
    return ops


def compile_plan(
    circuit: Circuit,
    backend: Any = None,
    options: Optional["RunOptions"] = None,
    *,
    use_cache: bool = True,
) -> ExecutionPlan:
    """Lower ``circuit`` into an :class:`ExecutionPlan` for ``backend``.

    Runs the pass pipeline first when ``options.optimize`` /
    ``options.passes`` ask for it (that run's statistics land on
    ``plan.pass_stats``, its wall time on ``plan.transpile_time_s``),
    matches any :class:`~repro.noise.NoiseModel` rules per instruction,
    and precomputes every op tensor in the backend's dtype.  Each compile
    constructs exactly one :class:`ExecutionPlan`.

    Parameters
    ----------
    circuit:
        The circuit (possibly parametric) to lower; never mutated.
    backend:
        Registered backend name, live backend instance, or ``None`` for
        the default.  The backend's ``plan_mode`` selects the lowering
        and its ``dtype`` the op-tensor precision.
    options:
        A :class:`~repro.execution.RunOptions` (``None`` for defaults);
        ``optimize`` / ``passes`` / ``noise_model`` participate in the
        lowering, the sampling knobs do not.
    use_cache:
        Consult/populate the process-wide plan cache (see
        :mod:`repro.plan.cache`).  Compilation is skipped entirely on a
        hit — repeated ``execute()`` of the same circuit reuses the plan.
    """
    return _compile_plan(circuit, backend, options, use_cache)[0]


def _compile_plan(
    circuit: Circuit,
    backend: Any,
    options: Optional["RunOptions"],
    use_cache: bool,
) -> Tuple[ExecutionPlan, bool]:
    """:func:`compile_plan`, plus whether *this* call compiled the plan
    (``False`` on a cache hit, whatever other threads compile meanwhile)."""
    from repro.execution.options import RunOptions
    from repro.plan.cache import cache_get, cache_put

    if not isinstance(circuit, Circuit):
        raise SimulationError(
            f"expected a Circuit, got {type(circuit).__name__}"
        )
    if options is None:
        options = RunOptions()
    elif not isinstance(options, RunOptions):
        raise SimulationError(
            f"options must be RunOptions, got {type(options).__name__}"
        )
    if backend is None or isinstance(backend, str):
        from repro.sim.registry import get_backend

        backend = get_backend(backend)
    mode = getattr(backend, "plan_mode", None)
    if mode not in (STATEVECTOR, DENSITY, TRAJECTORY, PTM):
        raise SimulationError(
            f"backend {getattr(backend, 'name', backend)!r} does not "
            "declare a plan_mode; only plan-capable backends can compile "
            "ExecutionPlans"
        )
    validate_noise = getattr(backend, "_validate_noise", None)
    if validate_noise is not None:
        validate_noise(options.noise_model)
    dtype = np.dtype(getattr(backend, "dtype", np.complex128))
    backend_name = getattr(backend, "name", type(backend).__name__)

    if use_cache:
        cached = cache_get(circuit, backend_name, mode, dtype, options)
        if cached is not None:
            return cached, False

    noise_model = options.noise_model
    if not getattr(noise_model, "has_gate_noise", False):
        noise_model = None
    start = time.perf_counter()
    transpiled = circuit
    pass_stats: Tuple[dict, ...] = ()
    transpile_time = 0.0
    if options.optimize or options.passes is not None:
        from repro.transpile.base import as_pass_manager

        # The statistics come from this run's own return value, never from
        # the manager's last_stats: one PassManager may be compiling other
        # circuits on other threads.
        transpiled, stats = as_pass_manager(options.passes)._run_with_stats(
            circuit, options.certify or None
        )
        pass_stats = tuple(entry.as_dict() for entry in stats)
        transpile_time = time.perf_counter() - start
    ops = _lower(transpiled, mode, dtype, noise_model)
    plan = ExecutionPlan(
        mode,
        transpiled.num_qubits,
        ops,
        transpiled.parameters(),
        dtype,
        transpiled,
        backend_name,
        pass_stats,
        transpiled.stats(),
        compile_time_s=time.perf_counter() - start,
        transpile_time_s=transpile_time,
        num_clbits=transpiled.num_clbits,
    )
    for hook in tuple(_LOWER_HOOKS):
        hook(circuit, plan)
    if use_cache:
        cache_put(circuit, backend_name, mode, dtype, options, plan)
    return plan, True
