//! The [`Device`] trait — the extension point every circuit element
//! implements — plus the evaluation/commit contexts and the [`Stamps`]
//! facade through which devices contribute to the MNA system.
//!
//! # Contract
//!
//! * [`Device::load`] must emit the **same sequence of matrix stamps** on
//!   every call (values may change, structure may not). This lets the engine
//!   compress the sparsity pattern once and refill values in O(nnz).
//! * [`Device::load`] must be pure with respect to internal state: state
//!   advances only in [`Device::commit`], which the engine calls exactly once
//!   per *accepted* solution (rejected Newton iterations and rejected time
//!   steps never commit). This is what makes hysteretic devices (NEM relays,
//!   RRAM, FeFET) well-defined under adaptive time stepping.
//!
//! # The two passes
//!
//! A [`Stamps`] wraps one of two concrete sinks, and the engine builds one
//! per pass, not one per device. The *pattern pass* (once, at
//! [`crate::mna::MnaSystem::build`]) records every matrix position as a
//! triplet; the *value pass* (every [`crate::mna::MnaSystem::refill`])
//! writes the n-th matrix value emitted into the n-th slot the pattern pass
//! numbered and accumulates the RHS. Two asserts hold devices to the first
//! rule above: a value pass panics at a matrix stamp beyond the pattern
//! pass's count, and at the end of the refill when fewer arrived.

use crate::node::NodeId;
use crate::options::Integrator;
use std::any::Any;
use std::fmt;
use tcam_numeric::sparse::TripletMatrix;

/// Opaque handle to an MNA branch-current unknown (allocated for voltage
/// sources, inductors, and any device that needs a current equation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchId(pub(crate) usize);

/// Resolves [`NodeId`]/[`BranchId`] handles to positions in the MNA unknown
/// vector. Node voltages come first (ground excluded), branch currents after.
#[derive(Debug, Clone, Copy)]
pub struct UnknownIndex {
    pub(crate) n_node_unknowns: usize,
    pub(crate) n_branches: usize,
}

impl UnknownIndex {
    /// Unknown position of a node voltage; `None` for ground.
    #[must_use]
    pub fn node(&self, n: NodeId) -> Option<usize> {
        n.unknown()
    }

    /// Unknown position of a branch current.
    #[must_use]
    pub fn branch(&self, b: BranchId) -> usize {
        self.n_node_unknowns + b.0
    }

    /// Total unknown count.
    #[must_use]
    pub fn n_unknowns(&self) -> usize {
        self.n_node_unknowns + self.n_branches
    }

    /// Number of node-voltage unknowns.
    #[must_use]
    pub fn n_node_unknowns(&self) -> usize {
        self.n_node_unknowns
    }
}

/// Which analysis is asking the device to load itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisKind {
    /// DC operating point: capacitors open, inductors short, quasi-static
    /// device states.
    Op,
    /// Quasi-static DC sweep (hysteretic state carried between points).
    DcSweep,
    /// Time-domain transient.
    Transient,
}

/// Read-only view of the solver state handed to [`Device::load`].
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// Analysis in progress.
    pub analysis: AnalysisKind,
    /// Absolute time at the *end* of the step being solved (0 for OP; the
    /// sweep value for DC sweeps).
    pub time: f64,
    /// Step size (0 for OP / DC sweep).
    pub dt: f64,
    /// Integration method in force.
    pub integrator: Integrator,
    /// Current Newton iterate.
    pub x: &'a [f64],
    /// Accepted solution at the start of the step (equals a zero vector
    /// during the first OP solve).
    pub x_prev: &'a [f64],
    /// Handle resolver.
    pub index: UnknownIndex,
    /// Scale factor on independent sources, normally 1.0. The recovery
    /// ladder's source-stepping rung ramps this 0 → 1 to walk a hard
    /// operating point in from the trivial all-sources-off solution.
    pub source_scale: f64,
}

impl EvalCtx<'_> {
    /// Voltage of `n` in the current iterate.
    #[must_use]
    pub fn v(&self, n: NodeId) -> f64 {
        match self.index.node(n) {
            Some(i) => self.x[i],
            None => 0.0,
        }
    }

    /// Voltage of `n` at the start of the step.
    #[must_use]
    pub fn v_prev(&self, n: NodeId) -> f64 {
        match self.index.node(n) {
            Some(i) => self.x_prev[i],
            None => 0.0,
        }
    }

    /// Branch current in the current iterate.
    #[must_use]
    pub fn i(&self, b: BranchId) -> f64 {
        self.x[self.index.branch(b)]
    }

    /// Branch current at the start of the step.
    #[must_use]
    pub fn i_prev(&self, b: BranchId) -> f64 {
        self.x_prev[self.index.branch(b)]
    }
}

/// View of an *accepted* solution handed to [`Device::commit`].
#[derive(Debug, Clone, Copy)]
pub struct CommitCtx<'a> {
    /// Analysis in progress.
    pub analysis: AnalysisKind,
    /// Absolute time of the accepted solution.
    pub time: f64,
    /// Step that produced it (0 for OP / DC sweep points).
    pub dt: f64,
    /// Integration method in force.
    pub integrator: Integrator,
    /// The accepted solution.
    pub x: &'a [f64],
    /// Solution at the start of the step.
    pub x_prev: &'a [f64],
    /// Handle resolver.
    pub index: UnknownIndex,
}

impl CommitCtx<'_> {
    /// Voltage of `n` in the accepted solution.
    #[must_use]
    pub fn v(&self, n: NodeId) -> f64 {
        match self.index.node(n) {
            Some(i) => self.x[i],
            None => 0.0,
        }
    }

    /// Voltage of `n` at the start of the step.
    #[must_use]
    pub fn v_prev(&self, n: NodeId) -> f64 {
        match self.index.node(n) {
            Some(i) => self.x_prev[i],
            None => 0.0,
        }
    }

    /// Branch current in the accepted solution.
    #[must_use]
    pub fn i(&self, b: BranchId) -> f64 {
        self.x[self.index.branch(b)]
    }
}

/// Where raw matrix/RHS contributions go: the engine's two passes (see the
/// module docs). An enum, not a trait object — a `match` inlines where the
/// ~48 indirect calls of a transistor's load could not.
pub(crate) enum Sink<'a> {
    /// Matrix positions (and values) are recorded; RHS rows range-checked.
    Pattern(&'a mut TripletMatrix),
    /// Matrix values fill `vals` — one slot per pattern-pass stamp — in
    /// emission order; the RHS accumulates.
    Values {
        vals: std::slice::IterMut<'a, f64>,
        rhs: &'a mut [f64],
    },
}

/// Device-facing stamping facade: resolves handles, skips ground rows and
/// columns, and provides the common composite stamps.
pub struct Stamps<'a> {
    sink: Sink<'a>,
    index: UnknownIndex,
}

impl<'a> Stamps<'a> {
    /// Wraps a sink (engine-internal).
    pub(crate) fn new(sink: Sink<'a>, index: UnknownIndex) -> Self {
        Self { sink, index }
    }

    /// Ends a value pass, which must have filled every slot it was given.
    pub(crate) fn finish(self) {
        if let Sink::Values { vals, .. } = self.sink {
            let unwritten = vals.len();
            assert_eq!(
                unwritten, 0,
                "a device emitted a different stamp count than its pattern pass"
            );
        }
    }

    /// Adds `val` at matrix position `(row, col)`.
    fn mat(&mut self, row: usize, col: usize, val: f64) {
        match &mut self.sink {
            Sink::Pattern(triplets) => _ = triplets.add(row, col, val),
            Sink::Values { vals, .. } => {
                *vals
                    .next()
                    .expect("device emitted more stamps than its pattern pass") = val;
            }
        }
    }

    /// Adds `val` to the right-hand side at `row`.
    fn rhs(&mut self, row: usize, val: f64) {
        match &mut self.sink {
            Sink::Pattern(t) => debug_assert!(row < t.n_rows(), "rhs row out of range"),
            Sink::Values { rhs, .. } => rhs[row] += val,
        }
    }

    /// Stamps a conductance `g` between nodes `a` and `b`.
    pub fn conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        let ia = self.index.node(a);
        let ib = self.index.node(b);
        if let Some(i) = ia {
            self.mat(i, i, g);
        }
        if let Some(j) = ib {
            self.mat(j, j, g);
        }
        if let (Some(i), Some(j)) = (ia, ib) {
            self.mat(i, j, -g);
            self.mat(j, i, -g);
        }
    }

    /// Stamps an independent current `i` flowing *from* `a` *to* `b`
    /// through the device (i.e. leaving node `a`, entering node `b`).
    pub fn current(&mut self, a: NodeId, b: NodeId, i: f64) {
        if let Some(ia) = self.index.node(a) {
            self.rhs(ia, -i);
        }
        if let Some(ib) = self.index.node(b) {
            self.rhs(ib, i);
        }
    }

    /// Stamps the Norton linearization of a nonlinear branch current
    /// `i_ab(v_ab)`: conductance `g = di/dv` evaluated at `v0` plus the
    /// equivalent source `i0 − g·v0`, with current flowing `a → b`.
    pub fn nonlinear_current(&mut self, a: NodeId, b: NodeId, i0: f64, g: f64, v0: f64) {
        self.conductance(a, b, g);
        self.current(a, b, i0 - g * v0);
    }

    /// Stamps a transconductance: current `gm·v(c, d)` flowing from `a` to
    /// `b` (entry pattern of a VCCS).
    pub fn transconductance(&mut self, a: NodeId, b: NodeId, c: NodeId, d: NodeId, gm: f64) {
        let ia = self.index.node(a);
        let ib = self.index.node(b);
        let ic = self.index.node(c);
        let id = self.index.node(d);
        for (row, sign_row) in [(ia, 1.0), (ib, -1.0)] {
            let Some(r) = row else { continue };
            for (col, sign_col) in [(ic, 1.0), (id, -1.0)] {
                let Some(cidx) = col else { continue };
                self.mat(r, cidx, gm * sign_row * sign_col);
            }
        }
    }

    /// Stamps the incidence of a branch current into the KCL rows of `a`
    /// (current leaves `a`) and `b` (current enters `b`), plus the transposed
    /// entries in the branch row — the standard voltage-source pattern. The
    /// caller supplies the branch-row RHS separately via [`Stamps::rhs_branch`]
    /// and any extra branch-row entries via the raw methods.
    pub fn branch_incidence(&mut self, a: NodeId, b: NodeId, br: BranchId) {
        let k = self.index.branch(br);
        if let Some(i) = self.index.node(a) {
            self.mat(i, k, 1.0);
            self.mat(k, i, 1.0);
        }
        if let Some(j) = self.index.node(b) {
            self.mat(j, k, -1.0);
            self.mat(k, j, -1.0);
        }
    }

    /// Adds `val` at the branch-row diagonal (used by inductor companions
    /// and source internal resistance).
    pub fn mat_branch_branch(&mut self, br: BranchId, val: f64) {
        let k = self.index.branch(br);
        self.mat(k, k, val);
    }

    /// Adds `val` to the RHS of a branch row.
    pub fn rhs_branch(&mut self, br: BranchId, val: f64) {
        let k = self.index.branch(br);
        self.rhs(k, val);
    }
}

/// A circuit element. See the module docs for the load/commit contract.
///
/// The `Any` supertrait enables typed access to concrete devices through
/// [`crate::netlist::Circuit::device_as`], which experiments use to read
/// source energy meters and adjust waveforms between phases. The `Send`
/// supertrait lets whole circuits move across the scoped worker threads the
/// Monte-Carlo sweeps use; device state must therefore be plain owned data
/// (no `Rc`/`RefCell`), which every in-tree model already satisfies.
pub trait Device: fmt::Debug + Any + Send {
    /// Instance name (unique within a circuit).
    fn name(&self) -> &str;

    /// The nodes this device connects to (used for connectivity checks).
    fn nodes(&self) -> Vec<NodeId>;

    /// Number of branch-current unknowns this device needs.
    fn n_branches(&self) -> usize {
        0
    }

    /// Receives the branch handles allocated by the circuit, in order.
    /// Called once before the first `load`.
    fn assign_branches(&mut self, branches: &[BranchId]) {
        debug_assert!(branches.is_empty(), "device ignored its branches");
    }

    /// Contributes the device's linearized stamps at the given iterate.
    fn load(&self, ctx: &EvalCtx<'_>, stamps: &mut Stamps<'_>);

    /// Advances internal state after an accepted solution.
    fn commit(&mut self, _ctx: &CommitCtx<'_>) {}

    /// Largest time step the device can tolerate for the step beginning at
    /// `t` (state- and time-dependent; queried before every step).
    fn dt_hint(&self, _t: f64) -> f64 {
        f64::INFINITY
    }

    /// Instants within `[0, t_stop]` the transient must land on exactly.
    fn breakpoints(&self, _t_stop: f64) -> Vec<f64> {
        Vec::new()
    }

    /// Names of internal probe signals this device exposes (e.g. a relay's
    /// beam position). Fully qualified as `"<name>.<probe>"` by the engine.
    fn probe_names(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// Current value of an internal probe; `None` for unknown names.
    fn probe(&self, _name: &str) -> Option<f64> {
        None
    }

    /// Cumulative energy this device has *delivered* to the circuit
    /// (sources only; `None` for passives).
    fn delivered_energy(&self) -> Option<f64> {
        None
    }

    /// Cumulative energy this device has *sourced* (positive power
    /// excursions only — a CMOS supply cannot recover energy). `None` for
    /// passives.
    fn sourced_energy(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcam_numeric::sparse::CscMatrix;

    fn idx(nodes: usize, branches: usize) -> UnknownIndex {
        UnknownIndex {
            n_node_unknowns: nodes,
            n_branches: branches,
        }
    }

    /// What `stamp` assembles — the pattern pass's triplets summed per
    /// position and the value pass's RHS — after checking that the value
    /// pass wrote the same values into the slots the pattern pass numbered.
    fn assemble(index: UnknownIndex, stamp: impl Fn(&mut Stamps<'_>)) -> (CscMatrix, Vec<f64>) {
        let n = index.n_unknowns();
        let mut triplets = TripletMatrix::new(n, n);
        stamp(&mut Stamps::new(Sink::Pattern(&mut triplets), index));
        let (mut vals, mut rhs) = (vec![0.0; triplets.len()], vec![0.0; n]);
        let sink = Sink::Values {
            vals: vals.iter_mut(),
            rhs: &mut rhs,
        };
        let mut st = Stamps::new(sink, index);
        stamp(&mut st);
        st.finish();
        let (mut csc, map) = triplets.to_csc().unwrap();
        let summed = csc.values().to_vec();
        map.scatter(&vals, csc.values_mut()).unwrap();
        assert_eq!(csc.values(), summed);
        (csc, rhs)
    }

    #[test]
    fn conductance_stamp_pattern() {
        let (mat, _) = assemble(idx(2, 0), |st| st.conductance(NodeId(1), NodeId(2), 0.5));
        assert_eq!(mat.get(0, 0), 0.5);
        assert_eq!(mat.get(1, 1), 0.5);
        assert_eq!(mat.get(0, 1), -0.5);
        assert_eq!(mat.get(1, 0), -0.5);
    }

    #[test]
    fn conductance_to_ground_skips_ground_entries() {
        let (mat, _) = assemble(idx(1, 0), |st| {
            st.conductance(NodeId(1), NodeId::GROUND, 2.0);
        });
        assert_eq!(mat.nnz(), 1);
        assert_eq!(mat.get(0, 0), 2.0);
    }

    #[test]
    fn current_stamp_signs() {
        // 1 A flows from node a into node b. (A matrix entry rides along:
        // an all-RHS pattern has nothing to compress.)
        let (_, rhs) = assemble(idx(2, 0), |st| {
            st.current(NodeId(1), NodeId(2), 1.0);
            st.conductance(NodeId(1), NodeId::GROUND, 1.0);
        });
        assert_eq!(rhs, [-1.0, 1.0]);
    }

    #[test]
    fn branch_incidence_pattern() {
        let (mat, _) = assemble(idx(2, 1), |st| {
            st.branch_incidence(NodeId(1), NodeId(2), BranchId(0));
        });
        // Branch unknown is index 2.
        assert_eq!(mat.get(0, 2), 1.0);
        assert_eq!(mat.get(2, 0), 1.0);
        assert_eq!(mat.get(1, 2), -1.0);
        assert_eq!(mat.get(2, 1), -1.0);
    }

    #[test]
    fn transconductance_pattern() {
        let (mat, _) = assemble(idx(4, 0), |st| {
            st.transconductance(NodeId(1), NodeId(2), NodeId(3), NodeId(4), 2.0);
        });
        assert_eq!(mat.get(0, 2), 2.0);
        assert_eq!(mat.get(0, 3), -2.0);
        assert_eq!(mat.get(1, 2), -2.0);
        assert_eq!(mat.get(1, 3), 2.0);
    }

    #[test]
    fn nonlinear_current_is_norton() {
        // i(v) = v^2 at v0 = 2: i0 = 4, g = 4 → source = 4 - 8 = -4 (a→gnd).
        let (mat, rhs) = assemble(idx(1, 0), |st| {
            st.nonlinear_current(NodeId(1), NodeId::GROUND, 4.0, 4.0, 2.0);
        });
        assert_eq!(mat.get(0, 0), 4.0);
        assert_eq!(rhs, [4.0]); // -(-4)
    }

    #[test]
    fn ctx_accessors() {
        let index = idx(2, 1);
        let x = [1.0, 2.0, 0.5];
        let xp = [0.0, 0.0, 0.0];
        let ctx = EvalCtx {
            analysis: AnalysisKind::Transient,
            time: 1e-9,
            dt: 1e-12,
            integrator: Integrator::BackwardEuler,
            x: &x,
            x_prev: &xp,
            index,
            source_scale: 1.0,
        };
        assert_eq!(ctx.v(NodeId::GROUND), 0.0);
        assert_eq!(ctx.v(NodeId(1)), 1.0);
        assert_eq!(ctx.v(NodeId(2)), 2.0);
        assert_eq!(ctx.i(BranchId(0)), 0.5);
        assert_eq!(ctx.v_prev(NodeId(1)), 0.0);
        assert_eq!(index.n_unknowns(), 3);
    }
}
