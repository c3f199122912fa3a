//! Fault injection for sweep-robustness testing.
//!
//! A Monte-Carlo study that survives its own trials has to be *testable*
//! against trials that genuinely cannot converge — not just against clean
//! samples. This module provides a deterministic way to manufacture such
//! trials: [`SabotagedDesign`] wraps any [`TcamDesign`] and plants a
//! [`ChaosProbe`] in every experiment circuit. A benign probe is an inert
//! one-node conductance; a hostile probe flips its injected current with
//! the Newton iterate during *transient* analysis, defeating the solver at
//! any gmin and any step — the unrescuable trial a variation sweep can
//! draw. Both modes produce the identical stamp structure, so
//! sabotaged and clean trials share one circuit topology.
//!
//! The operating point stays convergent in both modes: the failure is
//! engineered to happen *mid-sweep*, where the per-trial containment of
//! [`crate::variation::search_margin_study`] must absorb it.

use crate::bit::TernaryBit;
use crate::designs::{ArraySpec, SearchCell, SearchExperiment, TcamDesign, WriteExperiment};
use crate::parasitics::CellGeometry;
use tcam_spice::device::{AnalysisKind, Device, EvalCtx, Stamps};
use tcam_spice::error::Result;
use tcam_spice::netlist::Circuit;
use tcam_spice::node::NodeId;

/// A one-node device whose injected current flips sign with the iterate
/// once hostile (transient analysis only), defeating Newton at any gmin
/// and any step. Benign mode is a plain 1 mS conductance with the
/// identical stamp structure. The probe sits on its own floating node, so
/// it never perturbs the host circuit's electrical behavior — a benign
/// probe's node just settles to 0 V.
#[derive(Debug)]
pub struct ChaosProbe {
    name: String,
    node: NodeId,
    hostile: bool,
}

impl ChaosProbe {
    /// Creates a probe on `node`; `hostile` arms the transient divergence.
    #[must_use]
    pub fn new(name: impl Into<String>, node: NodeId, hostile: bool) -> Self {
        Self {
            name: name.into(),
            node,
            hostile,
        }
    }

    /// Plants a probe on a fresh private node in `ckt`.
    ///
    /// # Errors
    ///
    /// Propagates netlist failures (duplicate device name).
    fn plant(ckt: &mut Circuit, name: &str, hostile: bool) -> Result<()> {
        let node = ckt.node(&format!("{name}_node"));
        ckt.add(Self::new(name, node, hostile))
    }
}

impl Device for ChaosProbe {
    fn name(&self) -> &str {
        &self.name
    }
    fn nodes(&self) -> Vec<NodeId> {
        vec![self.node]
    }
    fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
        let v = ctx.v(self.node);
        let hostile = self.hostile && matches!(ctx.analysis, AnalysisKind::Transient);
        if hostile {
            // Sign-flipping injection around an unreachable fixed point:
            // every Newton step overshoots the 0.25 V pivot and the next
            // linearization sends it back — no damping or gmin rescues it.
            let i0 = if v > 0.25 { 1e-3 } else { -1e-3 };
            stamps.nonlinear_current(self.node, NodeId::GROUND, i0, 1e-9, v);
        } else {
            stamps.nonlinear_current(self.node, NodeId::GROUND, 1e-3 * v, 1e-3, v);
        }
    }
}

/// A [`TcamDesign`] wrapper that plants a [`ChaosProbe`] in every built
/// experiment. With `hostile = false` the probe is inert ballast keeping
/// the circuit topology identical to a hostile trial's; with
/// `hostile = true` every transient the design builds is guaranteed to be
/// non-convergent.
pub struct SabotagedDesign {
    inner: Box<dyn TcamDesign>,
    hostile: bool,
}

impl SabotagedDesign {
    /// Wraps `inner`; `hostile` selects divergence vs. inert ballast.
    #[must_use]
    pub fn new(inner: Box<dyn TcamDesign>, hostile: bool) -> Self {
        Self { inner, hostile }
    }
}

impl TcamDesign for SabotagedDesign {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn geometry(&self) -> CellGeometry {
        self.inner.geometry()
    }

    fn build_write(&self, spec: &ArraySpec, data: &[TernaryBit]) -> Result<WriteExperiment> {
        let mut exp = self.inner.build_write(spec, data)?;
        ChaosProbe::plant(&mut exp.circuit, "chaos", self.hostile)?;
        Ok(exp)
    }

    fn search_cell(&self) -> SearchCell {
        self.inner.search_cell()
    }

    fn place_search_cell(
        &self,
        ckt: &mut Circuit,
        prefix: &str,
        stored: TernaryBit,
        vdd: f64,
        ml: NodeId,
        sl: NodeId,
        slb: NodeId,
        rail: NodeId,
    ) -> Result<()> {
        self.inner
            .place_search_cell(ckt, prefix, stored, vdd, ml, sl, slb, rail)
    }

    fn build_search(
        &self,
        spec: &ArraySpec,
        stored: &[TernaryBit],
        key: &[TernaryBit],
    ) -> Result<SearchExperiment> {
        let mut exp = self.inner.build_search(spec, stored, key)?;
        ChaosProbe::plant(&mut exp.circuit, "chaos", self.hostile)?;
        Ok(exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::Nem3t2n;
    use crate::experiments::{mismatch_key, pattern_word};
    use crate::ops::run_search;
    use tcam_spice::error::SpiceError;

    #[test]
    fn benign_probe_does_not_change_search_outcome() {
        let spec = ArraySpec::small();
        let stored = pattern_word(spec.cols);
        let key = mismatch_key(spec.cols);
        let clean = run_search(
            Nem3t2n::default()
                .build_search(&spec, &stored, &key)
                .unwrap(),
        )
        .unwrap();
        let ballast = SabotagedDesign::new(Box::new(Nem3t2n::default()), false);
        let probed = run_search(ballast.build_search(&spec, &stored, &key).unwrap()).unwrap();
        assert!(probed.functional_ok);
        // The probe floats on its own node: the matchline physics are
        // untouched (solver step schedules may differ slightly).
        assert!(
            (probed.ml_at_sense - clean.ml_at_sense).abs() < 1e-6,
            "ml {} vs {}",
            probed.ml_at_sense,
            clean.ml_at_sense
        );
    }

    #[test]
    fn hostile_probe_forces_nonconvergence() {
        let spec = ArraySpec::small();
        let stored = pattern_word(spec.cols);
        let key = mismatch_key(spec.cols);
        let bomb = SabotagedDesign::new(Box::new(Nem3t2n::default()), true);
        let err = run_search(bomb.build_search(&spec, &stored, &key).unwrap()).unwrap_err();
        assert!(
            matches!(
                err,
                SpiceError::TimestepUnderflow { .. } | SpiceError::NonConvergence { .. }
            ),
            "unexpected failure mode: {err:?}"
        );
    }
}
