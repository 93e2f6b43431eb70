"""Gate fusion: one greedy fuser for unitaries and Pauli transfer matrices.

The payoff is in the simulator's cost model: applying a ``k``-qubit gate
to an ``n``-qubit statevector costs O(2**n * 2**k), so collapsing ``m``
small adjacent gates into one fused unitary replaces ``m`` sweeps over
the 2**n amplitude array with a single sweep — the matrix products that
build the fused gate happen in the tiny ``2**k``-dimensional gate space,
off the hot path entirely.

The same :class:`Fuser` serves two algebras.  :class:`FuseAdjacentGates`
feeds it ``2**k x 2**k`` gate unitaries; ``ptm``-mode plan lowering
(:mod:`repro.plan`) feeds it the real ``4**k x 4**k`` Pauli transfer
matrices of gates *and* channels, which compose by the same product.
:class:`Fuser` takes that local dimension as ``dim`` (2 for unitaries,
4 for PTMs), so PTMs stay real ``float64``.
Fused products are built by :func:`contract`, the tensordot kernel that
also applies plan ops to states.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit import Circuit, Instruction
from repro.transpile.base import FUSE_WIDTH, Pass
from repro.utils.exceptions import TranspilerError


def contract(
    state: np.ndarray,
    tensor: np.ndarray,
    targets: Sequence[int],
    in_axes: Sequence[int],
    out_axes: Sequence[int],
) -> np.ndarray:
    """Contract a ``k``-qubit operator ``tensor`` onto ``targets`` of ``state``.

    ``tensor`` is the ``(dim,) * 2k`` operator, output axes first;
    ``in_axes``/``out_axes`` are its trailing/leading ``k`` axes, which
    plan ops precompute.  ``targets[0]`` is its most significant index.
    """
    out = np.tensordot(tensor, state, axes=(in_axes, targets))
    return np.moveaxis(out, out_axes, targets)


def is_fusion_barrier(instruction: Instruction, mode: Optional[str] = None) -> bool:
    """Whether ``instruction`` stops fusion when lowered for plan ``mode``.

    Parametric gates have no matrix to fold until they are bound, and no
    operator may commute across a dynamic op (a collapse or a classical
    branch).  Channels have no single unitary to fold into a product, so
    they are barriers too — except in ``"ptm"`` mode, where a channel's
    Pauli transfer matrix composes with gate PTMs like any other factor.
    """
    if instruction.is_parametric or instruction.is_dynamic:
        return True
    return instruction.is_channel and mode != "ptm"


class FusionGroup:
    """One fused run: its qubits (first-touch order), members and their
    ``(qubits, matrix)`` factors; :meth:`product` multiplies them once."""

    __slots__ = ("qubits", "factors", "members", "_dim")

    def __init__(
        self, qubits: Sequence[int], matrix: np.ndarray, member: Any, dim: int
    ) -> None:
        self.qubits: List[int] = list(qubits)
        self.factors: List[Tuple[Tuple[int, ...], np.ndarray]] = [(tuple(qubits), matrix)]
        self.members: List[Any] = [member]
        self._dim = dim

    def absorb(self, qubits: Sequence[int], matrix: np.ndarray, member: Any) -> None:
        self.qubits.extend(q for q in qubits if q not in self.qubits)
        self.factors.append((tuple(qubits), matrix))
        self.members.append(member)

    def product(self) -> np.ndarray:
        """The run's operator on :attr:`qubits`: the identity with each factor
        contracted onto its row axes in program order.  A singleton group
        returns its member's matrix object unchanged."""
        if len(self.factors) == 1:
            return self.factors[0][1]
        dim, width = self._dim, len(self.qubits)
        # At least float64: PTMs stay real, unitaries are complex.
        dtype = np.result_type(float, *(matrix for _, matrix in self.factors))
        product = np.eye(dim**width, dtype=dtype).reshape((dim,) * (2 * width))
        for qubits, matrix in self.factors:
            k = len(qubits)
            targets = tuple(self.qubits.index(q) for q in qubits)
            tensor = matrix.reshape((dim,) * (2 * k))
            product = contract(
                product, tensor, targets, tuple(range(k, 2 * k)), tuple(range(k))
            )
        return product.reshape(dim**width, dim**width)


class Fuser:
    """Greedy program-order fusion of a stream of operators.

    :meth:`feed` adds an operator to the open group while the union of
    qubits stays within ``max_width``; otherwise the open group goes to
    ``emit`` and a new one starts.  An operator wider than ``max_width``
    is emitted alone.  A width bound on contiguous runs is hereditary, so
    this greedy packing yields the fewest groups any contiguous split can.
    Call :meth:`flush` at every barrier and at the end of the stream.
    ``dim`` is the local dimension of the fed operators (2 for unitaries,
    4 for PTMs).  Inputs are never mutated: a singleton group's
    :meth:`~FusionGroup.product` is its operator's matrix object.
    """

    def __init__(
        self,
        emit: Callable[[FusionGroup], None],
        max_width: int = FUSE_WIDTH,
        dim: int = 2,
    ) -> None:
        self._emit = emit
        self.max_width = max_width
        self.dim = dim
        self._group: Optional[FusionGroup] = None

    def feed(self, qubits: Sequence[int], matrix: np.ndarray, member: Any) -> None:
        group = self._group
        if group is not None and len(set(group.qubits).union(qubits)) <= self.max_width:
            group.absorb(qubits, matrix, member)
            return
        self.flush()
        group = FusionGroup(qubits, matrix, member, self.dim)
        if len(group.qubits) > self.max_width:
            self._emit(group)
        else:
            self._group = group

    def flush(self) -> None:
        if self._group is not None:
            group, self._group = self._group, None
            self._emit(group)


class FuseAdjacentGates(Pass):
    """Greedily merge program-order runs of gates into explicit unitaries.

    Walking the instruction list once, each gate joins the current fusion
    group while the union of the group's qubits and its own stays within
    ``max_width``; otherwise the group is flushed and a new one starts.
    Channels, dynamic ops and unbound parametric gates are barriers (see
    :func:`is_fusion_barrier`).  Groups that captured two or more gates
    are emitted as a single explicit-matrix ``unitary`` instruction over
    the group's qubits (first-touch order); singleton groups pass through
    unchanged so un-fusable circuits come back structurally identical.

    ``max_width`` trades fused-matrix cost (``4**max_width`` entries)
    against amplitude-array sweeps saved; 2 is a good default for the
    tensordot backend.
    """

    def __init__(self, max_width: int = FUSE_WIDTH) -> None:
        if max_width < 1:
            raise TranspilerError(f"max_width must be >= 1, got {max_width}")
        self.max_width = int(max_width)

    def run(self, circuit: Circuit) -> Circuit:
        from repro.gates import unitary_gate

        out = Circuit(circuit.num_qubits, circuit.name, num_clbits=circuit.num_clbits)
        out._clbits_pinned = circuit.clbits_pinned

        def emit(group: FusionGroup) -> None:
            if len(group.members) == 1:
                instruction = group.members[0]
                out.append(instruction.gate, instruction.qubits)
            else:
                out.append(
                    unitary_gate(group.product(), validate=False), tuple(group.qubits)
                )

        fuser = Fuser(emit, self.max_width)
        for instruction in circuit:
            if is_fusion_barrier(instruction):
                fuser.flush()
                out.append(instruction.operation, instruction.qubits)
            else:
                matrix = np.asarray(instruction.gate.matrix, dtype=complex)
                fuser.feed(instruction.qubits, matrix, instruction)
        fuser.flush()
        return out

    def __repr__(self) -> str:
        return f"FuseAdjacentGates(max_width={self.max_width})"
