"""Program container: an ordered instruction list plus kernel metadata."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.exceptions import AssemblerError
from repro.isa.encoding import EncodedInstruction, encode
from repro.isa.instruction import Instruction, RZ
from repro.isa.opcodes import Op, OpClass


@dataclass
class Program:
    """A fully assembled kernel.

    Attributes
    ----------
    name:
        Kernel name (used in reports).
    instructions:
        The instruction stream; the PC is an index into this list.
    nregs:
        Architectural registers allocated per thread. Accessing a register
        ``>= nregs`` (other than RZ) raises
        :class:`~repro.common.exceptions.InvalidRegisterError` at runtime —
        the behaviour the IVRA error model exploits.
    labels:
        Resolved label name → instruction index.
    shared_words:
        Shared-memory words required per CTA.
    """

    name: str
    instructions: list[Instruction] = field(default_factory=list)
    nregs: int = 32
    labels: dict[str, int] = field(default_factory=dict)
    shared_words: int = 0

    def __getstate__(self) -> dict:
        # the executor caches its decode table on the program object
        # (repro.gpusim.executor.decode); a derived cache is never pickled
        # or copied, and it is no field, so == and repr ignore it
        state = dict(self.__dict__)
        state.pop("_decoded", None)
        return state

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    def validate(self) -> None:
        """Check structural invariants; raise :class:`AssemblerError` if bad."""
        n = len(self.instructions)
        if n == 0:
            raise AssemblerError(f"{self.name}: empty program")
        if not any(i.op is Op.EXIT for i in self.instructions):
            raise AssemblerError(f"{self.name}: program never EXITs")
        for pc, instr in enumerate(self.instructions):
            for r in (instr.dst, *instr.srcs):
                if r != RZ and r >= self.nregs:
                    raise AssemblerError(
                        f"{self.name}@{pc}: register R{r} exceeds nregs={self.nregs}"
                    )
            if instr.op is Op.BRA:
                if not 0 <= instr.imm < n:
                    raise AssemblerError(
                        f"{self.name}@{pc}: branch target {instr.imm} out of range"
                    )
                if instr.reconv_pc is not None and not 0 <= instr.reconv_pc <= n:
                    raise AssemblerError(
                        f"{self.name}@{pc}: reconvergence pc {instr.reconv_pc} out of range"
                    )

    def encoded(self) -> list[EncodedInstruction]:
        """Binary form of every instruction (for the gate-level units)."""
        return [encode(i) for i in self.instructions]

    def op_class_histogram(self) -> dict[OpClass, int]:
        """Static instruction count per execution-unit class."""
        hist: dict[OpClass, int] = {c: 0 for c in OpClass}
        for instr in self.instructions:
            hist[instr.info.op_class] += 1
        return hist

    def listing(self) -> str:
        """Human-readable disassembly with labels."""
        by_pc: dict[int, list[str]] = {}
        for name, pc in self.labels.items():
            by_pc.setdefault(pc, []).append(name)
        lines = []
        for pc, instr in enumerate(self.instructions):
            for lbl in by_pc.get(pc, []):
                lines.append(f"{lbl}:")
            lines.append(f"  /*{pc:04d}*/ {instr}")
        return "\n".join(lines)
