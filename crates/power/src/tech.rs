//! Technology parameters (0.18 µm, the process the paper scales Wattch to)
//! and basic switching-energy helpers.

/// Process/technology parameters.
///
/// The defaults model the 0.18 µm generation used by the paper (§4.1):
/// 1.8 V supply, aggressive clock. Only *relative* energies matter for the
/// paper's percentage results, but the absolute scale is kept physically
/// plausible so reports read sensibly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechParams {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Gate capacitance of a minimum-size transistor gate, fF.
    pub gate_cap_ff: f64,
    /// Drain/diffusion capacitance of a minimum-size transistor, fF.
    pub drain_cap_ff: f64,
    /// Wire capacitance per µm of metal, fF.
    pub wire_cap_ff_per_um: f64,
    /// SRAM cell width/height in µm (array wire-length estimates).
    pub cell_pitch_um: f64,
}

impl TechParams {
    /// The 0.18 µm generation (paper §4.1).
    pub fn micron180() -> TechParams {
        TechParams {
            vdd: 1.8,
            gate_cap_ff: 0.84,
            drain_cap_ff: 0.62,
            wire_cap_ff_per_um: 0.27,
            cell_pitch_um: 1.84,
        }
    }

    /// Energy (pJ) to switch `cap_ff` femtofarads through a full rail
    /// transition: `E = C · V²` (charge from the supply; the ½CV² stored
    /// and ½CV² dissipated both come out of the rail over a full cycle).
    pub fn switch_energy_pj(&self, cap_ff: f64) -> f64 {
        cap_ff * self.vdd * self.vdd / 1000.0
    }
}

impl Default for TechParams {
    fn default() -> Self {
        Self::micron180()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_energy_scales_with_cap_and_vdd() {
        let t = TechParams::micron180();
        let e1 = t.switch_energy_pj(100.0);
        let e2 = t.switch_energy_pj(200.0);
        assert!((e2 / e1 - 2.0).abs() < 1e-12);

        let mut hot = t;
        hot.vdd = 3.6;
        assert!((hot.switch_energy_pj(100.0) / e1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn vdd_180nm_is_1v8() {
        assert!((TechParams::micron180().vdd - 1.8).abs() < 1e-12);
    }
}
