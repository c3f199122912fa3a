//! Modified-nodal-analysis system assembly.
//!
//! The sparsity pattern of a circuit is fixed across Newton iterations and
//! time steps, so [`MnaSystem::build`] runs one *pattern pass* (recording
//! every stamp a device makes into a triplet matrix) and compresses it once;
//! every subsequent [`MnaSystem::refill`] writes stamp values into a flat
//! array and scatters them into the compressed matrix in O(nnz).
//!
//! Devices must therefore make an identical sequence of matrix-stamp calls
//! on every [`crate::device::Device::load`] — the refill pass asserts this.

use crate::device::{AnalysisKind, EvalCtx, Sink, Stamps, UnknownIndex};
use crate::error::{Result, SpiceError};
use crate::netlist::Circuit;
use crate::options::{Integrator, SimOptions};
use tcam_numeric::sparse::{CscMatrix, StampMap, TripletMatrix};
use tcam_numeric::sparse_lu::SparseLu;
use tcam_numeric::NumericError;

/// Cumulative linear/nonlinear solver counters of one [`MnaSystem`],
/// surfaced on transient waveforms through the run's
/// [`crate::trace::SolverTrace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Full factorizations (fresh symbolic + numeric with full pivoting).
    pub fresh_factorizations: usize,
    /// Value-only refactorizations reusing the cached symbolic phase.
    pub refactorizations: usize,
    /// Newton–Raphson iterations performed.
    pub nr_iterations: usize,
    /// Transient steps accepted.
    pub steps_accepted: usize,
    /// Transient steps rejected (Newton failure or LTE).
    pub steps_rejected: usize,
    /// System dimension (node voltages + branch currents).
    pub unknowns: usize,
    /// Structural nonzeros of the MNA matrix.
    pub matrix_nnz: usize,
    /// Stored entries of L + U at the last fresh factorization; over
    /// `matrix_nnz` it is the fill the column order left.
    pub factor_nnz: usize,
}

/// An assembled MNA system ready for repeated refill/solve cycles.
#[derive(Debug)]
pub struct MnaSystem {
    index: UnknownIndex,
    analysis: AnalysisKind,
    csc: CscMatrix,
    map: StampMap,
    stamp_vals: Vec<f64>,
    rhs: Vec<f64>,
    /// Stamp indices of the per-node gmin diagonal entries (refreshed with
    /// the active gmin each refill).
    gmin_first_stamp: usize,
    reuse_factorization: bool,
    /// Cached factorization (symbolic pattern + numeric values),
    /// refactorized in place on subsequent solves.
    lu: Option<SparseLu>,
    /// Scale applied to independent sources during refill (1.0 outside the
    /// recovery ladder's source-stepping rung).
    source_scale: f64,
    stats: SolveStats,
}

impl MnaSystem {
    /// Builds the system for `analysis` by running the pattern pass over the
    /// circuit's devices.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] for a circuit with no unknowns.
    pub fn build(circuit: &Circuit, analysis: AnalysisKind, opts: &SimOptions) -> Result<Self> {
        let index = circuit.unknown_index();
        let n = index.n_unknowns();
        if n == 0 {
            return Err(SpiceError::InvalidCircuit(
                "circuit has no unknowns (only ground?)".into(),
            ));
        }
        let zeros = vec![0.0; n];
        let ctx = EvalCtx {
            analysis,
            time: 0.0,
            // A placeholder positive dt so transient companions stamp their
            // full pattern.
            dt: 1e-12,
            integrator: opts.integrator,
            x: &zeros,
            x_prev: &zeros,
            index,
            source_scale: 1.0,
        };
        let mut triplets = Self::record_stamps(circuit, &ctx);
        let gmin_first_stamp = triplets.len();
        // Unconditional gmin diagonal on every node unknown.
        for i in 0..index.n_node_unknowns() {
            triplets.add(i, i, opts.gmin);
        }
        // Guard the branch diagonal too (some patterns leave it structurally
        // empty, e.g. an ideal source short); a true zero there is fine for
        // LU with pivoting, but a structurally *missing* column is not.
        for b in 0..index.n_unknowns() - index.n_node_unknowns() {
            let k = index.n_node_unknowns() + b;
            triplets.add(k, k, 0.0);
        }
        let n_stamps = triplets.len();
        let (csc, map) = triplets.to_csc()?;
        Ok(Self {
            index,
            analysis,
            csc,
            map,
            stamp_vals: vec![0.0; n_stamps],
            rhs: vec![0.0; n],
            gmin_first_stamp,
            reuse_factorization: opts.reuse_factorization,
            lu: None,
            source_scale: 1.0,
            stats: SolveStats::default(),
        })
    }

    /// The pattern pass: every matrix stamp the devices make at `ctx`, in
    /// emission order. Summed per position the values are what a
    /// [`MnaSystem::refill`] at that iterate assembles, less its gmin.
    #[must_use]
    pub fn record_stamps(circuit: &Circuit, ctx: &EvalCtx<'_>) -> TripletMatrix {
        let n = ctx.index.n_unknowns();
        let mut triplets = TripletMatrix::new(n, n);
        let mut stamps = Stamps::new(Sink::Pattern(&mut triplets), ctx.index);
        for dev in circuit.devices() {
            dev.load(ctx, &mut stamps);
        }
        triplets
    }

    /// The unknown layout.
    #[must_use]
    pub fn index(&self) -> UnknownIndex {
        self.index
    }

    /// Stored structural nonzeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.csc.nnz()
    }

    /// Refills matrix and RHS values from the devices at iterate `x`.
    ///
    /// # Panics
    ///
    /// Panics if a device emits a different number of stamps than during the
    /// pattern pass (a violation of the [`crate::device::Device`] contract).
    #[allow(clippy::too_many_arguments)]
    pub fn refill(
        &mut self,
        circuit: &Circuit,
        time: f64,
        dt: f64,
        integrator: Integrator,
        x: &[f64],
        x_prev: &[f64],
        gmin: f64,
    ) {
        self.rhs.fill(0.0);
        let ctx = EvalCtx {
            analysis: self.analysis,
            time,
            dt,
            integrator,
            x,
            x_prev,
            index: self.index,
            source_scale: self.source_scale,
        };
        // The devices' share of the stamp slots only, so that one stamp too
        // many trips the sink's own assert instead of landing on a gmin slot.
        let vals = self.stamp_vals[..self.gmin_first_stamp].iter_mut();
        let rhs = &mut self.rhs[..];
        let mut stamps = Stamps::new(Sink::Values { vals, rhs }, self.index);
        {
            let _obs = tcam_obs::span!("device_eval");
            for dev in circuit.devices() {
                dev.load(&ctx, &mut stamps);
            }
        }
        stamps.finish();
        let _obs = tcam_obs::span!("mna_stamp");
        // gmin diagonals.
        for i in 0..self.index.n_node_unknowns() {
            self.stamp_vals[self.gmin_first_stamp + i] = gmin;
        }
        // Branch diagonal guards stay zero (indices after the gmin block).
        for s in self.gmin_first_stamp + self.index.n_node_unknowns()..self.stamp_vals.len() {
            self.stamp_vals[s] = 0.0;
        }
        self.map
            .scatter(&self.stamp_vals, self.csc.values_mut())
            .expect("stamp count fixed at build time");
    }

    /// Solves the assembled linear system `A x = z`.
    ///
    /// Allocating convenience wrapper around [`MnaSystem::solve_into`];
    /// hot loops should hold a reusable output buffer and call that instead.
    ///
    /// # Errors
    ///
    /// Propagates singular-matrix failures from the factorization.
    pub fn solve(&mut self) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.solve_into(&mut out)?;
        Ok(out)
    }

    /// Solves the assembled linear system `A x = z` into `out`.
    ///
    /// The first solve factorizes from scratch and caches the factorization;
    /// later solves refactorize the cached symbolic pattern in place (zero
    /// heap traffic), falling back to a fresh factorization when a reused
    /// pivot degrades. The steady state performs no allocation.
    ///
    /// # Errors
    ///
    /// Propagates singular-matrix failures from the factorization.
    pub fn solve_into(&mut self, out: &mut Vec<f64>) -> Result<()> {
        let need_fresh = match self.lu.as_mut() {
            Some(lu) if self.reuse_factorization => {
                let _obs = tcam_obs::span!("lu_refactorize");
                match lu.refactorize(&self.csc) {
                    Ok(()) => {
                        self.stats.refactorizations += 1;
                        false
                    }
                    // The reused pivot order went bad numerically — fall back
                    // to a fresh factorization, which re-pivots every column.
                    Err(NumericError::PivotDegraded { .. }) => true,
                    Err(e) => return Err(e.into()),
                }
            }
            _ => true,
        };
        if need_fresh {
            let _obs = tcam_obs::span!("lu_factorize");
            self.stats.fresh_factorizations += 1;
            let lu = SparseLu::factorize(&self.csc)?;
            self.stats.unknowns = lu.n();
            self.stats.matrix_nnz = self.csc.nnz();
            self.stats.factor_nnz = lu.factor_nnz();
            self.lu = Some(lu);
        }
        let _obs = tcam_obs::span!("back_solve");
        out.resize(self.rhs.len(), 0.0);
        out.copy_from_slice(&self.rhs);
        self.lu
            .as_mut()
            .expect("factorization set above")
            .solve_in_place(out)?;
        Ok(())
    }

    /// Sets the independent-source scale applied on every subsequent
    /// [`MnaSystem::refill`]. The source-stepping rung ramps this 0 → 1;
    /// it must be restored to 1.0 before normal solves resume.
    pub fn set_source_scale(&mut self, scale: f64) {
        self.source_scale = scale;
    }

    /// Cumulative solver statistics since construction.
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Mutable access for the stepping layers to record Newton/step counts.
    pub fn stats_mut(&mut self) -> &mut SolveStats {
        &mut self.stats
    }

    /// The current right-hand side (test/debug aid).
    #[must_use]
    pub fn rhs(&self) -> &[f64] {
        &self.rhs
    }

    /// The matrix as last refilled (test/debug aid).
    #[must_use]
    pub fn matrix(&self) -> &CscMatrix {
        &self.csc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::element::{Resistor, VoltageSource};
    use crate::netlist::Circuit;
    use crate::node::NodeId;

    fn divider() -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add(VoltageSource::dc("v1", vdd, gnd, 2.0)).unwrap();
        ckt.add(Resistor::new("r1", vdd, out, 1e3).unwrap())
            .unwrap();
        ckt.add(Resistor::new("r2", out, gnd, 3e3).unwrap())
            .unwrap();
        ckt
    }

    #[test]
    fn divider_op_solution() {
        let ckt = divider();
        let opts = SimOptions::default();
        let mut sys = MnaSystem::build(&ckt, AnalysisKind::Op, &opts).unwrap();
        let n = sys.index().n_unknowns();
        let zeros = vec![0.0; n];
        sys.refill(
            &ckt,
            0.0,
            0.0,
            Integrator::BackwardEuler,
            &zeros,
            &zeros,
            opts.gmin,
        );
        let x = sys.solve().unwrap();
        // vdd = 2.0, out = 2.0 * 3k/4k = 1.5, i(v1) = -2/4k = -0.5 mA.
        assert!((ckt.voltage_of(&x, "vdd").unwrap() - 2.0).abs() < 1e-9);
        assert!((ckt.voltage_of(&x, "out").unwrap() - 1.5).abs() < 1e-6);
        let i = x[sys.index().n_node_unknowns()];
        assert!((i + 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn refill_is_idempotent() {
        let ckt = divider();
        let opts = SimOptions::default();
        let mut sys = MnaSystem::build(&ckt, AnalysisKind::Op, &opts).unwrap();
        let n = sys.index().n_unknowns();
        let zeros = vec![0.0; n];
        sys.refill(
            &ckt,
            0.0,
            0.0,
            Integrator::BackwardEuler,
            &zeros,
            &zeros,
            opts.gmin,
        );
        let x1 = sys.solve().unwrap();
        sys.refill(
            &ckt,
            0.0,
            0.0,
            Integrator::BackwardEuler,
            &x1,
            &zeros,
            opts.gmin,
        );
        let x2 = sys.solve().unwrap();
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// Two conductances to ground in the pattern pass (and while the iterate
    /// is zero); once `x[0]` moves, `then` of them — a broken stamp contract.
    #[derive(Debug)]
    struct Unfaithful {
        node: NodeId,
        then: usize,
    }

    impl Device for Unfaithful {
        fn name(&self) -> &str {
            "unfaithful"
        }
        fn nodes(&self) -> Vec<NodeId> {
            vec![self.node]
        }
        fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>) {
            let count = if ctx.x[0] != 0.0 { self.then } else { 2 };
            for _ in 0..count {
                stamps.conductance(self.node, NodeId::GROUND, 1e-3);
            }
        }
    }

    /// Refills the divider plus an [`Unfaithful`] on `out` at a zero and then
    /// at a non-zero iterate.
    fn refill_unfaithful(then: usize) {
        let mut ckt = divider();
        let node = ckt.node("out");
        ckt.add(Unfaithful { node, then }).unwrap();
        let opts = SimOptions::default();
        let mut sys = MnaSystem::build(&ckt, AnalysisKind::Op, &opts).unwrap();
        let zeros = vec![0.0; sys.index().n_unknowns()];
        let be = Integrator::BackwardEuler;
        sys.refill(&ckt, 0.0, 0.0, be, &zeros, &zeros, opts.gmin);
        let moved = vec![1.0; zeros.len()];
        sys.refill(&ckt, 0.0, 0.0, be, &moved, &zeros, opts.gmin);
    }

    #[test]
    #[should_panic(expected = "device emitted more stamps than its pattern pass")]
    fn an_extra_stamp_panics_at_the_stamp() {
        refill_unfaithful(3);
    }

    #[test]
    #[should_panic(expected = "a device emitted a different stamp count than its pattern pass")]
    fn a_missing_stamp_panics_at_the_end_of_the_refill() {
        refill_unfaithful(1);
    }

    #[test]
    fn empty_circuit_rejected() {
        let ckt = Circuit::new();
        assert!(MnaSystem::build(&ckt, AnalysisKind::Op, &SimOptions::default()).is_err());
    }
}
