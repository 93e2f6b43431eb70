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
:class:`Fuser` and :func:`embed_matrix` take that local dimension as
``dim`` (2 for unitaries, 4 for PTMs), so PTMs stay real ``float64``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.circuit import Circuit, Instruction
from repro.transpile.base import FUSE_WIDTH, Pass
from repro.utils.exceptions import TranspilerError


def embed_matrix(
    matrix: np.ndarray, positions: Sequence[int], width: int, dim: int = 2
) -> np.ndarray:
    """Embed a ``k``-qubit operator into a ``width``-qubit register.

    ``matrix`` is a ``(dim**k, dim**k)`` operator with local dimension
    ``dim``: 2 for a gate unitary (embedded as ``complex``), 4 for a Pauli
    transfer matrix (embedded as real ``float64``).  ``positions[i]`` is
    the register slot (0 = most significant, matching the library
    convention) that qubit ``i`` of ``matrix`` occupies; all other slots
    act as identity.
    """
    if dim not in (2, 4):
        raise TranspilerError(f"local dimension must be 2 or 4, got {dim}")
    positions = [int(p) for p in positions]
    k = len(positions)
    if width < k:
        raise TranspilerError(f"cannot embed {k} qubits into width {width}")
    if len(set(positions)) != k or any(p < 0 or p >= width for p in positions):
        raise TranspilerError(
            f"invalid embedding positions {tuple(positions)} for width {width}"
        )
    matrix = np.asarray(matrix)
    if matrix.shape != (dim**k, dim**k):
        raise TranspilerError(
            f"matrix shape {matrix.shape} does not match {k} embedding "
            f"position(s) of local dimension {dim}"
        )
    matrix = matrix.astype(complex if dim == 2 else float, copy=False)
    if positions == list(range(width)):
        return matrix
    # kron puts ``matrix`` on slots 0..k-1 and the identity on the rest;
    # one axis permutation then routes slot i to ``positions[i]`` (and the
    # identity slots to the remaining positions, ascending).  Every entry
    # is a product with an exact 0 or 1, so nothing is rounded.
    full = np.kron(matrix, np.eye(dim ** (width - k), dtype=matrix.dtype))
    order = positions + [p for p in range(width) if p not in positions]
    perm = sorted(range(width), key=order.__getitem__)
    tensor = full.reshape((dim,) * (2 * width)).transpose(perm + [p + width for p in perm])
    return tensor.reshape(dim**width, dim**width)


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
    """One fused run: its qubits (first-touch order), product and members."""

    __slots__ = ("qubits", "matrix", "members", "_dim")

    def __init__(
        self, qubits: Sequence[int], matrix: np.ndarray, member: Any, dim: int
    ) -> None:
        self.qubits: List[int] = list(qubits)
        self.matrix = matrix
        self.members: List[Any] = [member]
        self._dim = dim

    def absorb(self, qubits: Sequence[int], matrix: np.ndarray, member: Any) -> None:
        new = [q for q in qubits if q not in self.qubits]
        if new:
            # Existing qubits keep their slots (a prefix of the widened
            # register), so widening is a plain kron with identity on the
            # new low slots.
            self.matrix = np.kron(
                self.matrix, np.eye(self._dim ** len(new), dtype=self.matrix.dtype)
            )
            self.qubits.extend(new)
        positions = [self.qubits.index(q) for q in qubits]
        incoming = embed_matrix(matrix, positions, len(self.qubits), self._dim)
        # The incoming operator runs after the accumulated run: left-multiply.
        self.matrix = incoming @ self.matrix
        self.members.append(member)


class Fuser:
    """Greedy program-order fusion of a stream of operators.

    :meth:`feed` adds an operator to the open group while the union of
    qubits stays within ``max_width``; otherwise the open group goes to
    ``emit`` and a new one starts.  An operator wider than ``max_width``
    is emitted alone.  A width bound on contiguous runs is hereditary, so
    this greedy packing yields the fewest groups any contiguous split can.
    Call :meth:`flush` at every barrier and at the end of the stream.
    ``dim`` is the local dimension of the fed operators (2 for unitaries,
    4 for PTMs; see :func:`embed_matrix`).  Inputs are never mutated: a
    singleton group carries its operator's matrix object unchanged.
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
                    unitary_gate(group.matrix, validate=False), tuple(group.qubits)
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
