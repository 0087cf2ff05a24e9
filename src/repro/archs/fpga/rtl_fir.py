"""RTL sequential polyphase FIR (paper Fig. 5).

Section 5.2.1: "It has been decided to implement the filter as a sequential
algorithm. ... The sequential implementation makes the logic cells run at
the full clock speed of 64.512 MHz. ... The filter calculates its result,
once it has received D samples from the CIC5. ... Every cycle a coefficient
and the corresponding input are read from the ROM and the RAM.  These
values are multiplied with each other and the result is added to the
intermediate result.  When all inputs are processed, the result is
delivered on the output and valid becomes active for one clock cycle."

The MAC loop, the 31-bit intermediate result and the truncate+saturate
output quantiser ("the 11 least significant bits ... and a sign bit; in
case of saturation the maximum or the minimum value is returned") are
implemented cycle-by-cycle.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError, SimulationError
from ...fixedpoint import QFormat, fir_accumulator_bits
from ...simkernel import Component, Wire


class RTLPolyphaseFIR(Component):
    """Sequential decimating FIR for one rail, bit-true vs FixedPolyphase.

    Ports
    -----
    in: ``x`` (data_width), ``x_valid`` (1)
    out: ``y`` (data_width), ``y_valid`` (1)
    probe out: ``acc`` (accumulator width), ``mac_addr`` (ceil(log2(taps))+1)
    """

    def __init__(
        self,
        name: str,
        x: Wire,
        x_valid: Wire,
        y: Wire,
        y_valid: Wire,
        acc_probe: Wire,
        addr_probe: Wire,
        taps_raw: np.ndarray,
        decimation: int,
        data_width: int = 12,
        output_shift: int | None = None,
    ) -> None:
        super().__init__(name)
        taps_raw = np.asarray(taps_raw)
        if not np.issubdtype(taps_raw.dtype, np.integer):
            raise ConfigurationError("taps_raw must be integers")
        if decimation < 1:
            raise ConfigurationError("decimation must be >= 1")
        self.add_input("x", x)
        self.add_input("x_valid", x_valid)
        self.add_output("y", y)
        self.add_output("y_valid", y_valid)
        self.add_output("acc", acc_probe)
        self.add_output("mac_addr", addr_probe)
        self.rom = [int(v) for v in taps_raw]
        self._taps_arr = np.asarray(self.rom, dtype=np.int64)
        self.taps = len(self.rom)
        self.decimation = decimation
        self.data_width = data_width
        self.acc_width = fir_accumulator_bits(data_width, data_width, self.taps)
        self.output_shift = (
            data_width - 1 if output_shift is None else output_shift
        )
        self._out_fmt = QFormat(data_width, 0)
        self.reset()

    def reset(self) -> None:
        self.ram = [0] * self.taps
        self._widx = 0          # next write position in the sample ring
        self._count = 0         # inputs since the last triggered output
        self._busy = False
        self._k = 0             # MAC step
        self._acc = 0

    # ---------------------------------------------------------- block mode
    def _ram_chronological(self) -> np.ndarray:
        """Sample ring contents ordered oldest to newest."""
        widx, taps = self._widx, self.taps
        ram = np.asarray(self.ram, dtype=np.int64)
        return np.concatenate([ram[widx:], ram[:widx]])

    def process_block(
        self, x: np.ndarray, internals: dict[str, np.ndarray] | None = None
    ) -> np.ndarray:
        """Vectorised equivalent of ``tick`` over a valid sample burst.

        Delegates to the bit-true numpy model
        (:class:`repro.dsp.fir.FixedPolyphaseDecimator`), syncing the ring
        RAM and decimator phase into it and back, so block and cycle
        processing interleave freely.  Must not be called while the
        sequential MAC loop is mid-flight.  When ``internals`` is a dict,
        the driven streams of the ``acc`` and ``mac_addr`` probes are
        stored in it.
        """
        if self._busy:
            raise SimulationError(
                f"{self.name}: process_block while the MAC loop is busy"
            )
        x = np.asarray(x)
        if not np.issubdtype(x.dtype, np.integer):
            raise ConfigurationError("FIR block input must be integers")
        x = x.astype(np.int64, copy=False)
        if x.size == 0:
            if internals is not None:
                empty = np.empty(0, dtype=np.int64)
                internals.update(acc=empty, mac_addr=empty)
            return np.empty(0, dtype=np.int64)

        ordered = self._ram_chronological()
        if internals is not None:
            self._block_internals(x, ordered, internals)

        blk = self._block_model()
        blk._hist = ordered[1:].copy() if self.taps > 1 else ordered[:0]
        blk._offset = self._count
        y = blk.process(x)

        full = np.concatenate([ordered, x])
        self.ram = [int(v) for v in full[-self.taps :]]
        self._widx = 0
        self._count = blk._offset
        return y

    def _block_model(self):
        """Lazily built FixedPolyphaseDecimator mirror (state-synced)."""
        blk = getattr(self, "_block", None)
        if blk is None:
            from ...dsp.fir import FixedPolyphaseDecimator

            blk = FixedPolyphaseDecimator(
                self._taps_arr,
                self.decimation,
                data_width=self.data_width,
                coeff_width=self.data_width,
                output_shift=self.output_shift,
            )
            self._block = blk
        return blk

    def _block_internals(
        self, x: np.ndarray, ordered: np.ndarray, internals: dict
    ) -> None:
        """Driven-value streams of the MAC probes for this input burst."""
        hist = ordered[1:] if self.taps > 1 else ordered[:0]
        buf = np.concatenate([hist, x])
        first = (-self._count) % self.decimation
        pos = np.arange(first, x.size, self.decimation)
        if pos.size == 0:
            empty = np.empty(0, dtype=np.int64)
            internals.update(acc=empty, mac_addr=empty)
            return
        idx = pos[:, None] + hist.size - np.arange(self.taps)[None, :]
        prod = buf[idx] * self._taps_arr[None, :]
        internals["acc"] = np.cumsum(prod, axis=1).ravel()
        internals["mac_addr"] = np.tile(
            np.arange(self.taps, dtype=np.int64), pos.size
        )

    def tick(self, cycle: int) -> None:
        out_valid = 0

        if self.read("x_valid"):
            # Store the incoming sample at the ring position.
            self.ram[self._widx] = self.read("x")
            self._widx = (self._widx + 1) % self.taps
            trigger = self._count == 0
            self._count = (self._count + 1) % self.decimation
            if trigger:
                if self._busy:
                    raise SimulationError(
                        f"{self.name}: new FIR trigger while MAC loop busy"
                    )
                self._busy = True
                self._k = 0
                self._acc = 0

        if self._busy:
            # One MAC per cycle: coefficient k against sample x[i - k].
            ridx = (self._widx - 1 - self._k) % self.taps
            self._acc += self.rom[self._k] * self.ram[ridx]
            self.write("acc", self._acc)
            self.write("mac_addr", self._k)
            self._k += 1
            if self._k == self.taps:
                self._busy = False
                val = self._acc >> self.output_shift
                val = max(self._out_fmt.min_raw,
                          min(self._out_fmt.max_raw, val))
                self.write("y", val)
                out_valid = 1

        self.write("y_valid", out_valid)
