"""Streaming reader for the binary trace format."""

from __future__ import annotations

from typing import BinaryIO, Callable, Iterator, Optional

from repro.errors import TraceFormatError
from repro.execution.events import Step
from repro.program.cfg import BasicBlock
from repro.program.program import Program
from repro.tracing.records import (
    FLAG_HAS_TARGET,
    FLAG_TAKEN,
    RECORD_HEAD,
    RECORD_TARGET,
    TraceHeader,
)

#: Read granularity; records are parsed out of chunks this large.
_CHUNK_BYTES = 1 << 20


class TraceReader:
    """Reads a binary trace back into Steps against its program.

    The reader checks that the program's name and block count match the
    header — replaying a trace against the wrong program would produce
    silently nonsensical results otherwise.
    """

    def __init__(self, stream: BinaryIO, program: Program) -> None:
        self._stream = stream
        self.header = TraceHeader.decode(stream)
        if self.header.program_name != program.name:
            raise TraceFormatError(
                f"trace was recorded for program {self.header.program_name!r}, "
                f"not {program.name!r}"
            )
        if self.header.block_count != program.block_count:
            raise TraceFormatError(
                f"trace expects {self.header.block_count} blocks but program "
                f"{program.name!r} has {program.block_count}"
            )
        self._program = program

    def steps(self) -> Iterator[Step]:
        """Yield all recorded steps in order."""
        blocks = self._program.blocks
        head_size = RECORD_HEAD.size
        target_size = RECORD_TARGET.size
        unpack_head = RECORD_HEAD.unpack_from
        unpack_target = RECORD_TARGET.unpack_from

        buffer = b""
        offset = 0
        while True:
            if offset + head_size > len(buffer):
                chunk = self._stream.read(_CHUNK_BYTES)
                buffer = buffer[offset:] + chunk
                offset = 0
                if len(buffer) < head_size:
                    if buffer:
                        raise TraceFormatError("trailing bytes in trace stream")
                    return
            block_id, flags = unpack_head(buffer, offset)
            offset += head_size
            target = None
            if flags & FLAG_HAS_TARGET:
                if offset + target_size > len(buffer):
                    chunk = self._stream.read(_CHUNK_BYTES)
                    buffer = buffer[offset:] + chunk
                    offset = 0
                    if len(buffer) < target_size:
                        raise TraceFormatError("truncated target record")
                (target_id,) = unpack_target(buffer, offset)
                offset += target_size
                try:
                    target = blocks[target_id]
                except IndexError:
                    raise TraceFormatError(
                        f"target block id {target_id} out of range"
                    ) from None
            try:
                block = blocks[block_id]
            except IndexError:
                raise TraceFormatError(f"block id {block_id} out of range") from None
            yield Step(block, bool(flags & FLAG_TAKEN), target)

    def steps_into(
        self,
        consumer: Callable[[BasicBlock, bool, Optional[BasicBlock]], object],
    ) -> int:
        """Push-decode: call ``consumer(block, taken, target)`` per record.

        The fast-path twin of :meth:`steps` — identical chunked parse
        and identical error behaviour, but no generator suspension and
        no :class:`Step` allocation, so a replayed run can feed the
        simulator's consume callback directly
        (:meth:`~repro.system.simulator.Simulator.run_push`) at
        near-live speed.  Returns the number of records decoded.
        """
        blocks = self._program.blocks
        read = self._stream.read
        head_size = RECORD_HEAD.size
        target_size = RECORD_TARGET.size
        unpack_head = RECORD_HEAD.unpack_from
        unpack_target = RECORD_TARGET.unpack_from

        count = 0
        buffer = b""
        buffer_len = 0
        offset = 0
        while True:
            if offset + head_size > buffer_len:
                buffer = buffer[offset:] + read(_CHUNK_BYTES)
                buffer_len = len(buffer)
                offset = 0
                if buffer_len < head_size:
                    if buffer:
                        raise TraceFormatError("trailing bytes in trace stream")
                    return count
            block_id, flags = unpack_head(buffer, offset)
            offset += head_size
            if flags & FLAG_HAS_TARGET:
                if offset + target_size > buffer_len:
                    buffer = buffer[offset:] + read(_CHUNK_BYTES)
                    buffer_len = len(buffer)
                    offset = 0
                    if buffer_len < target_size:
                        raise TraceFormatError("truncated target record")
                (target_id,) = unpack_target(buffer, offset)
                offset += target_size
                try:
                    target = blocks[target_id]
                except IndexError:
                    raise TraceFormatError(
                        f"target block id {target_id} out of range"
                    ) from None
            else:
                target = None
            try:
                block = blocks[block_id]
            except IndexError:
                raise TraceFormatError(f"block id {block_id} out of range") from None
            consumer(block, True if flags & FLAG_TAKEN else False, target)
            count += 1
