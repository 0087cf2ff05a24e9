"""FPGA resource estimation — the synthesis-results model behind Table 4.

Quartus maps the VHDL DDC onto logic elements (LEs), M4K memory bits,
embedded multipliers and pins.  This module estimates the same quantities
from the DDC configuration with an explicit per-block cost model:

- registered adders/subtractors cost ``width`` LEs (one LE = 4-LUT + FF);
- a ``w x w`` soft multiplier costs ``alpha * w**2`` LEs on devices without
  embedded multipliers (Cyclone I) and 2 embedded 9-bit multipliers per
  12x12 product on devices that have them (Cyclone II: 4 products -> the
  published 8/26);
- control (counters, valid pipelining, FSMs) is charged per component;
- the FIR sample RAM, coefficient ROM and NCO sine ROM go to M4K bits.

The constant ``alpha`` and the control overheads are calibrated so the
reference design reproduces the published utilisation (1656 LE on the
Cyclone I, 906 LE on the Cyclone II, ~6.8-7.7 kbit of memory, 41 pins);
the *model structure* — which blocks dominate, how costs scale with widths
and decimations — is what the ablation benches exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...config import DDCConfig, REFERENCE_DDC
from ...errors import MappingError
from ...fixedpoint import cic_bit_growth, fir_accumulator_bits
from .devices import FPGADevice

#: LEs per product bit for an LE-based multiplier (calibrated).
_ALPHA_MULT = 0.85
#: Control overhead per CIC (counter + valid logic), LEs.
_CTRL_CIC = 18
#: Control overhead of the sequential FIR FSM (address counters,
#: trigger logic, quantiser), LEs.
_CTRL_FIR = 35
#: NCO control: phase accumulator + ROM addressing, LEs.
_CTRL_NCO = 30
#: Top-level glue (I/O registers, reset tree), LEs.
_CTRL_TOP = 40
#: Cyclone II LEs pack arithmetic chains more densely (dedicated
#: add/carry mode); calibrated against the published 906-LE figure.
_CYCLONE_II_PACKING = 0.75


@dataclass(frozen=True)
class ResourceUsage:
    """Estimated device utilisation of one DDC implementation."""

    logic_elements: int
    memory_bits: int
    multipliers_9bit: int
    pins: int

    def fits(self, device: FPGADevice) -> bool:
        """True if the design fits the device."""
        return (
            self.logic_elements <= device.logic_elements
            and self.memory_bits <= device.memory_bits
            and self.multipliers_9bit <= device.multipliers_9bit
            and self.pins <= device.user_pins
        )

    def utilisation(self, device: FPGADevice) -> dict[str, float]:
        """Fractions used per resource class (Table 4's percentages)."""
        return {
            "logic_elements": self.logic_elements / device.logic_elements,
            "memory_bits": self.memory_bits / device.memory_bits,
            "multipliers_9bit": (
                self.multipliers_9bit / device.multipliers_9bit
                if device.multipliers_9bit
                else 0.0
            ),
            "pins": self.pins / device.user_pins,
        }


def _soft_multiplier_les(w1: int, w2: int) -> int:
    """LE cost of a soft multiplier."""
    return math.ceil(_ALPHA_MULT * w1 * w2)


def _embedded_mults_for(w1: int, w2: int) -> int:
    """9-bit embedded multiplier blocks for a w1 x w2 product.

    Cyclone II embedded multipliers are 18x18 blocks that can split into
    two independent 9x9s; Quartus reports them in 9-bit units.  Any product
    up to 18x18 therefore occupies one 18x18 block = *2* reported 9-bit
    multipliers — which is how the paper's four 12x12 products (two mixer,
    two FIR) show up as "8 / 26" in Table 4.
    """
    return 2 * math.ceil(w1 / 18) * math.ceil(w2 / 18)


def estimate_ddc_resources(
    device: FPGADevice,
    config: DDCConfig = REFERENCE_DDC,
    fir_taps_impl: int | None = None,
    lut_bits: int = 6,
) -> ResourceUsage:
    """Estimate the Table 4 row for ``config`` on ``device``.

    ``fir_taps_impl`` defaults to ``config.fir_taps - 1`` (the paper's 124-
    tap trick); ``lut_bits`` is the sine ROM depth (the paper's memory
    budget implies a small table, 64 entries by default).
    """
    w = config.data_width
    if fir_taps_impl is None:
        fir_taps_impl = config.fir_taps - 1

    use_embedded = device.multipliers_9bit > 0
    les = _CTRL_TOP
    mults = 0

    # ---------------------------------------------------------- NCO + mixer
    les += 32 + _CTRL_NCO  # 32-bit phase accumulator
    for _ in range(2):  # two mixer products (I and Q)
        if use_embedded:
            mults += _embedded_mults_for(w, w)
            les += 2 * w  # product register + rounding
        else:
            les += _soft_multiplier_les(w, w) + w

    # ----------------------------------------------------------- CIC stages
    for order, decimation in (
        (config.cic2_order, config.cic2_decimation),
        (config.cic5_order, config.cic5_decimation),
    ):
        if order == 0 or decimation == 1:
            continue
        internal = w + cic_bit_growth(order, decimation)
        per_rail = 2 * order * internal  # integrators + combs (adder+reg)
        les += 2 * per_rail + 2 * _CTRL_CIC  # both rails

    # ------------------------------------------------------------------ FIR
    acc_w = fir_accumulator_bits(w, w, fir_taps_impl)
    for _ in range(2):  # two rails
        if use_embedded:
            mults += _embedded_mults_for(w, w)
            les += acc_w + _CTRL_FIR  # accumulator + FSM
        else:
            les += _soft_multiplier_les(w, w) + acc_w + _CTRL_FIR

    # --------------------------------------------------------------- memory
    fir_ram_bits = 2 * fir_taps_impl * w          # sample rings, I and Q
    fir_rom_bits = 2 * (fir_taps_impl + 1) * w    # coefficient ROMs
    nco_rom_bits = (1 << lut_bits) * w            # shared sine table
    memory_bits = fir_ram_bits + fir_rom_bits + nco_rom_bits
    if device.family == "Cyclone II":
        # Quartus pads M4K contents to 9-bit lanes on Cyclone II (parity
        # bits are usable there), inflating the reported bit count.
        memory_bits = math.ceil(memory_bits * 1.13)

    # ----------------------------------------------------------------- pins
    pins = w + 2 * w + 5  # ADC in, I/Q out, clk/rst/valids

    if device.family == "Cyclone II":
        les = math.ceil(les * _CYCLONE_II_PACKING)

    usage = ResourceUsage(
        logic_elements=les,
        memory_bits=memory_bits,
        multipliers_9bit=mults,
        pins=pins,
    )
    return usage


def require_fit(usage: ResourceUsage, device: FPGADevice) -> None:
    """Raise :class:`MappingError` when the design does not fit."""
    if not usage.fits(device):
        util = usage.utilisation(device)
        over = {k: f"{v:.0%}" for k, v in util.items() if v > 1.0}
        raise MappingError(
            f"design does not fit {device.name}: over budget on {over}"
        )
