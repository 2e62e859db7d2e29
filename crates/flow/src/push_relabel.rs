//! FIFO push-relabel maximum flow (Goldberg-Tarjan) with the
//! Cherkassky-Goldberg heuristics, plus a flow-conserving [`PushRelabel::resume`]
//! entry point used by the paper's integrated algorithms.
//!
//! The implementation follows the paper's Algorithm 4:
//!
//! * vertices are selected in **FIFO** order,
//! * the **exact height** (global relabeling) heuristic of Cherkassky and
//!   Goldberg recomputes distance labels by reverse BFS periodically,
//! * a **gap** heuristic lifts stranded vertices above the source height.
//!
//! The algorithm is run in a single combined phase: excess that cannot reach
//! the sink is returned to the source, so on termination every vertex except
//! the source and sink has zero excess — exactly the invariant the paper's
//! Algorithm 5 relies on when it conserves flows between runs.

use crate::graph::{ArenaIndex, FlowGraph, VertexId};
use std::collections::VecDeque;

/// Operation counters, exposed for benchmarks and ablation studies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrStats {
    /// Number of push operations performed.
    pub pushes: u64,
    /// Number of (local) relabel operations performed.
    pub relabels: u64,
    /// Number of global relabeling passes.
    pub global_relabels: u64,
    /// Number of gap-heuristic activations.
    pub gaps: u64,
}

/// Reusable FIFO push-relabel solver.
///
/// The solver owns all per-vertex state (heights, excesses, queue) so that
/// the integrated retrieval algorithms can call [`PushRelabel::resume`]
/// repeatedly without reallocating, conserving both the graph's flow values
/// and the sink's accumulated excess between runs.
#[derive(Clone, Debug)]
pub struct PushRelabel {
    height: Vec<u32>,
    excess: Vec<i64>,
    cur_arc: Vec<u32>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    /// `height_count[h]` = number of vertices at height `h` (gap heuristic).
    height_count: Vec<u32>,
    /// BFS scratch for global relabeling.
    bfs_queue: Vec<u32>,
    work: u64,
    /// Enable periodic global relabeling (the paper's "exact height
    /// calculation heuristics suggested by \[19\]"). On by default.
    pub enable_global_relabel: bool,
    /// Enable the gap heuristic. On by default.
    pub enable_gap: bool,
    /// Operation counters for the most recent run(s); reset manually.
    pub stats: PrStats,
}

impl Default for PushRelabel {
    fn default() -> Self {
        Self::new()
    }
}

/// Copies `excess[..n]` into `buf`, reading vertices the engine has not
/// sized yet as 0 (the value [`PushRelabel::excess`] reports for them).
pub(crate) fn snapshot_into(excess: &[i64], n: usize, buf: &mut Vec<i64>) {
    buf.clear();
    buf.extend_from_slice(&excess[..n.min(excess.len())]);
    buf.resize(n, 0);
}

/// Amount of edge-scan work between global relabeling passes, as a multiple
/// of the edge count (Cherkassky-Goldberg recommend a small constant).
const GLOBAL_RELABEL_WORK_FACTOR: u64 = 6;

impl PushRelabel {
    /// Creates a solver with both heuristics enabled.
    pub fn new() -> Self {
        PushRelabel {
            height: Vec::new(),
            excess: Vec::new(),
            cur_arc: Vec::new(),
            queue: VecDeque::new(),
            in_queue: Vec::new(),
            height_count: Vec::new(),
            bfs_queue: Vec::new(),
            work: 0,
            enable_global_relabel: true,
            enable_gap: true,
            stats: PrStats::default(),
        }
    }

    /// Creates a solver with all heuristics disabled (the textbook FIFO
    /// algorithm). Useful for ablation benchmarks.
    pub fn plain() -> Self {
        PushRelabel {
            enable_global_relabel: false,
            enable_gap: false,
            ..Self::new()
        }
    }

    /// Current excess of vertex `v` (0 if the solver has not run yet).
    pub fn excess(&self, v: VertexId) -> i64 {
        self.excess.get(v).copied().unwrap_or(0)
    }

    /// Overrides the excess of vertex `v`.
    ///
    /// The binary capacity-scaling driver (Algorithm 6) restores the sink
    /// excess together with a flow snapshot after a failed probe.
    pub fn set_excess(&mut self, v: VertexId, x: i64) {
        self.ensure(v + 1);
        self.excess[v] = x;
    }

    /// Current height of vertex `v`.
    pub fn height(&self, v: VertexId) -> u32 {
        self.height.get(v).copied().unwrap_or(0)
    }

    /// Cumulative `(pushes, relabels)` since construction. Inherent (not
    /// just on [`crate::incremental::IncrementalMaxFlow`]) so graph-less
    /// call sites need no width annotation.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.stats.pushes, self.stats.relabels)
    }

    /// Zeroes the excesses of vertices `0..n` (see
    /// [`crate::incremental::IncrementalMaxFlow::reset_excess`]).
    pub fn reset_excess(&mut self, n: usize) {
        self.ensure(n);
        for e in self.excess.iter_mut().take(n) {
            *e = 0;
        }
    }

    /// Writes the excesses of vertices `0..n` into `buf` with one slice
    /// copy (see
    /// [`crate::incremental::IncrementalMaxFlow::excess_snapshot_into`]).
    pub fn excess_snapshot_into(&self, n: usize, buf: &mut Vec<i64>) {
        snapshot_into(&self.excess, n, buf);
    }

    /// Restores a snapshot of the excesses of vertices
    /// `0..snap.len()` with one slice copy (see
    /// [`crate::incremental::IncrementalMaxFlow::restore_excess`]).
    pub fn restore_excess(&mut self, snap: &[i64]) {
        self.ensure(snap.len());
        self.excess[..snap.len()].copy_from_slice(snap);
    }

    fn ensure(&mut self, n: usize) {
        if self.height.len() < n {
            self.height.resize(n, 0);
            self.excess.resize(n, 0);
            self.cur_arc.resize(n, 0);
            self.in_queue.resize(n, false);
            self.height_count.resize(2 * n + 1, 0);
        }
        if self.height_count.len() < 2 * n + 1 {
            self.height_count.resize(2 * n + 1, 0);
        }
    }

    /// Computes a maximum flow from scratch: zeroes the graph's flows and
    /// the solver's excesses, then runs FIFO push-relabel. Returns the flow
    /// value (`excess[t]`).
    pub fn max_flow<W: ArenaIndex>(
        &mut self,
        g: &mut FlowGraph<W>,
        s: VertexId,
        t: VertexId,
    ) -> i64 {
        assert_ne!(s, t, "source and sink must differ");
        g.zero_flows();
        self.ensure(g.num_vertices());
        self.excess.iter_mut().for_each(|e| *e = 0);
        self.resume(g, s, t)
    }

    /// Runs push-relabel **conserving** the flow currently stored in `g` and
    /// the excesses accumulated in the solver (in particular `excess[t]`).
    ///
    /// This is the integrated entry point (paper Algorithm 5, lines 3-16):
    ///
    /// 1. the FIFO queue is cleared;
    /// 2. every source out-edge with positive residual `δ = cap - flow` is
    ///    saturated, adding `δ` to the target's excess and queueing it;
    /// 3. all heights are reset to zero except `height[s] = |V|`;
    /// 4. `excess[s]` is reset to zero;
    /// 5. push/relabel operations run until no active vertex remains.
    ///
    /// Returns `excess[t]`, the total flow value.
    pub fn resume<W: ArenaIndex>(&mut self, g: &mut FlowGraph<W>, s: VertexId, t: VertexId) -> i64 {
        assert_ne!(s, t, "source and sink must differ");
        g.finalize();
        let n = g.num_vertices();
        assert!(s < n, "source {s} out of range");
        self.ensure(n);
        self.queue.clear();
        self.in_queue.iter_mut().for_each(|b| *b = false);

        // Saturate source edges that gained residual capacity (Alg. 5
        // l.4-10) and cancel any flow *into* the source. Inflow at s can
        // only be circulation through s (t-to-s components would need
        // outflow at t, which push-relabel never creates); cancelling it
        // keeps the zero-height relabeling valid and frees capacity that
        // a resume after capacity increases may need. Both are one rule:
        // a reverse slot's residual is the flow its pair (v -> s) carries,
        // so pushing it moves those units back onto v.
        let (lo, hi) = g.adj_bounds(s);
        for pos in lo..hi {
            let e = g.adj_slot(pos);
            let delta = g.residual_fast(e);
            if delta > 0 {
                let v = g.target_fast(e);
                g.push_fast(e, delta);
                self.excess[v] += delta;
            }
        }
        // Heights reset (Alg. 5 l.11-13); excess[s] cleared (l.14).
        self.height.iter_mut().for_each(|h| *h = 0);
        self.height[s] = n as u32;
        self.excess[s] = 0;
        self.cur_arc.iter_mut().for_each(|a| *a = 0);
        self.height_count.iter_mut().for_each(|c| *c = 0);
        self.height_count[0] = (n - 1) as u32;
        self.height_count[n] += 1;

        // Queue every active vertex (not only the freshly saturated ones:
        // restored flow snapshots may leave other vertices with excess).
        for v in 0..n {
            if v != s && v != t && self.excess[v] > 0 {
                self.queue.push_back(v as u32);
                self.in_queue[v] = true;
            }
        }

        if self.enable_global_relabel && !self.queue.is_empty() {
            self.global_relabel(g, s, t);
        }
        self.work = 0;

        let m = g.num_edge_slots() as u64;
        let relabel_threshold = GLOBAL_RELABEL_WORK_FACTOR * m.max(n as u64);
        while let Some(v) = self.queue.pop_front() {
            let v = v as usize;
            self.in_queue[v] = false;
            self.discharge(g, v, s, t);
            if self.enable_global_relabel && self.work >= relabel_threshold {
                self.work = 0;
                self.global_relabel(g, s, t);
            }
        }
        self.excess[t]
    }

    /// Fully discharges vertex `v`: pushes its excess to admissible
    /// neighbours, relabeling when the current-arc list is exhausted.
    fn discharge<W: ArenaIndex>(
        &mut self,
        g: &mut FlowGraph<W>,
        v: VertexId,
        s: VertexId,
        t: VertexId,
    ) {
        let n = g.num_vertices() as u32;
        // Topology is frozen during a solve, so the CSR bounds of `v` are
        // loaded once; the loop then walks `adj_list` by absolute position
        // (`cur_arc` stays a relative offset so relabels still reset it
        // to 0). `v`'s own excess, height, and arc cursor live in locals
        // across the loop: a push never targets `v` itself (admissibility
        // requires `height[v] == height[w] + 1`), and `relabel` — the one
        // call that can move them (`apply_gap` may lift `v` again) — is
        // followed by a reload.
        let (lo, hi) = g.adj_bounds(v);
        let mut ev = self.excess[v];
        let mut hv = self.height[v];
        let mut cur = self.cur_arc[v];
        while ev > 0 {
            let pos = lo + cur;
            if pos >= hi {
                // Arc list exhausted: relabel.
                if !self.relabel(g, v, n) {
                    break; // no residual edges at all: stranded (cannot happen
                           // for vertices with excess, but stay safe)
                }
                hv = self.height[v];
                cur = self.cur_arc[v];
                if hv > 2 * n {
                    break;
                }
                continue;
            }
            g.prefetch_adj(pos, hi);
            let e = g.adj_slot(pos);
            self.work += 1;
            let w = g.target_fast(e);
            if g.residual_fast(e) > 0 && hv == self.height[w] + 1 {
                let delta = ev.min(g.residual_fast(e));
                g.push_fast(e, delta);
                ev -= delta;
                self.excess[w] += delta;
                self.stats.pushes += 1;
                if w != s && w != t && !self.in_queue[w] {
                    self.queue.push_back(w as u32);
                    self.in_queue[w] = true;
                }
            } else {
                cur += 1;
            }
        }
        self.excess[v] = ev;
        self.cur_arc[v] = cur;
    }

    /// Relabels `v` to one more than the minimum height of its residual
    /// neighbours. Returns false if `v` has no residual out-edges.
    fn relabel<W: ArenaIndex>(&mut self, g: &FlowGraph<W>, v: VertexId, n: u32) -> bool {
        let mut min_h = u32::MAX;
        let (lo, hi) = g.adj_bounds(v);
        // The whole arc list is scanned unconditionally, so the work
        // counter can be bulk-charged up front (only the total is ever
        // compared against the relabel threshold).
        self.work += (hi - lo) as u64;
        for pos in lo..hi {
            g.prefetch_adj(pos, hi);
            let e = g.adj_slot(pos);
            if g.residual_fast(e) > 0 {
                min_h = min_h.min(self.height[g.target_fast(e)]);
            }
        }
        if min_h == u32::MAX {
            return false;
        }
        let old = self.height[v];
        let new = min_h + 1;
        self.stats.relabels += 1;
        self.height[v] = new;
        self.cur_arc[v] = 0;
        // Gap heuristic bookkeeping.
        self.height_count[old as usize] -= 1;
        if (new as usize) < self.height_count.len() {
            self.height_count[new as usize] += 1;
        }
        if self.enable_gap && self.height_count[old as usize] == 0 && old < n {
            self.apply_gap(old, n);
        }
        true
    }

    /// Gap heuristic: no vertex remains at height `gap` (< n), so every
    /// vertex with height in `(gap, n)` can never reach the sink again and
    /// is lifted to `n + 1` so its excess drains back to the source.
    fn apply_gap(&mut self, gap: u32, n: u32) {
        self.stats.gaps += 1;
        for v in 0..self.height.len() {
            let h = self.height[v];
            if h > gap && h < n {
                self.height_count[h as usize] -= 1;
                self.height[v] = n + 1;
                self.height_count[(n + 1) as usize] += 1;
                self.cur_arc[v] = 0;
            }
        }
    }

    /// Global relabeling ("exact height") heuristic: reverse BFS from the
    /// sink assigns each vertex its exact residual distance to `t`; vertices
    /// that cannot reach `t` get `n +` their residual distance to `s`
    /// (so their excess flows back to the source). Unreachable-from-both
    /// vertices get height `2n` (they carry no excess by flow conservation).
    fn global_relabel<W: ArenaIndex>(&mut self, g: &FlowGraph<W>, s: VertexId, t: VertexId) {
        self.stats.global_relabels += 1;
        let n = g.num_vertices();
        const UNSEEN: u32 = u32::MAX;
        self.height.iter_mut().for_each(|h| *h = UNSEEN);

        // Reverse BFS from t: vertex u is at distance d+1 from t if some
        // residual edge (u, w) exists with w at distance d. Out-slot `e` of
        // w pointing at u corresponds to edge `e ^ 1` from u to w.
        self.bfs_queue.clear();
        self.height[t] = 0;
        self.bfs_queue.push(t as u32);
        let mut head = 0;
        while head < self.bfs_queue.len() {
            let w = self.bfs_queue[head] as usize;
            head += 1;
            let dw = self.height[w];
            let (lo, hi) = g.adj_bounds(w);
            for pos in lo..hi {
                g.prefetch_adj(pos, hi);
                let e = g.adj_slot(pos);
                let u = g.target_fast(e);
                if self.height[u] == UNSEEN && g.residual_fast(e ^ 1) > 0 && u != s {
                    self.height[u] = dw + 1;
                    self.bfs_queue.push(u as u32);
                }
            }
        }
        // Reverse BFS from s for the rest.
        let base = n as u32;
        self.bfs_queue.clear();
        let s_seen = self.height[s] != UNSEEN; // s is excluded above, so no
        debug_assert!(!s_seen);
        self.height[s] = base;
        self.bfs_queue.push(s as u32);
        head = 0;
        while head < self.bfs_queue.len() {
            let w = self.bfs_queue[head] as usize;
            head += 1;
            let dw = self.height[w];
            let (lo, hi) = g.adj_bounds(w);
            for pos in lo..hi {
                g.prefetch_adj(pos, hi);
                let e = g.adj_slot(pos);
                let u = g.target_fast(e);
                if self.height[u] == UNSEEN && g.residual_fast(e ^ 1) > 0 {
                    self.height[u] = dw + 1;
                    self.bfs_queue.push(u as u32);
                }
            }
        }
        for h in self.height.iter_mut() {
            if *h == UNSEEN {
                *h = 2 * base;
            }
        }
        // Rebuild gap counters and reset current arcs.
        self.height_count.iter_mut().for_each(|c| *c = 0);
        for v in 0..n {
            let h = self.height[v] as usize;
            if h < self.height_count.len() {
                self.height_count[h] += 1;
            }
        }
        self.cur_arc.iter_mut().for_each(|a| *a = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic;

    fn clrs() -> (FlowGraph, VertexId, VertexId) {
        let mut g: FlowGraph = FlowGraph::new(6);
        g.add_edge(0, 1, 16);
        g.add_edge(0, 2, 13);
        g.add_edge(1, 3, 12);
        g.add_edge(2, 1, 4);
        g.add_edge(2, 4, 14);
        g.add_edge(3, 2, 9);
        g.add_edge(3, 5, 20);
        g.add_edge(4, 3, 7);
        g.add_edge(4, 5, 4);
        (g, 0, 5)
    }

    #[test]
    fn clrs_max_flow() {
        let (mut g, s, t) = clrs();
        assert_eq!(PushRelabel::new().max_flow(&mut g, s, t), 23);
    }

    #[test]
    fn clrs_max_flow_plain() {
        let (mut g, s, t) = clrs();
        assert_eq!(PushRelabel::plain().max_flow(&mut g, s, t), 23);
    }

    #[test]
    fn excess_zero_everywhere_but_endpoints() {
        let (mut g, s, t) = clrs();
        let mut pr = PushRelabel::new();
        pr.max_flow(&mut g, s, t);
        for v in 0..g.num_vertices() {
            if v != s && v != t {
                assert_eq!(pr.excess(v), 0, "vertex {v} retained excess");
            }
        }
        assert_eq!(pr.excess(t), 23);
    }

    #[test]
    fn final_flow_is_valid() {
        let (mut g, s, t) = clrs();
        PushRelabel::new().max_flow(&mut g, s, t);
        crate::validate::assert_valid_flow(&g, s, t);
    }

    #[test]
    fn resume_after_capacity_increase_conserves_flow() {
        // Bottleneck network: raising the bottleneck lets resume() extend
        // the previous flow without recomputing it from zero.
        let mut g: FlowGraph = FlowGraph::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        g.add_edge(s, a, 10);
        let bottleneck = g.add_edge(a, b, 3);
        g.add_edge(b, t, 10);
        let _ = a;
        let mut pr = PushRelabel::new();
        assert_eq!(pr.max_flow(&mut g, s, t), 3);
        g.set_cap(bottleneck, 7);
        assert_eq!(pr.resume(&mut g, s, t), 7);
        crate::validate::assert_valid_flow(&g, s, t);
    }

    #[test]
    fn resume_accumulates_sink_excess() {
        let mut g: FlowGraph = FlowGraph::new(3);
        let e0 = g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 100);
        let mut pr = PushRelabel::new();
        assert_eq!(pr.max_flow(&mut g, 0, 2), 1);
        for want in 2..20 {
            g.set_cap(e0, want);
            assert_eq!(pr.resume(&mut g, 0, 2), want);
        }
    }

    #[test]
    fn agrees_with_dinic_on_random_graphs() {
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(42);
        for case in 0..80 {
            let n = rng.gen_range(4..24);
            let m = rng.gen_range(n..5 * n);
            let mut g: FlowGraph = FlowGraph::new(n);
            for _ in 0..m {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(u, v, rng.gen_range(0..25));
                }
            }
            let mut g2 = g.clone();
            let want = dinic::max_flow(&mut g2, 0, n - 1);
            let got = PushRelabel::new().max_flow(&mut g, 0, n - 1);
            assert_eq!(got, want, "case {case}");
            crate::validate::assert_valid_flow(&g, 0, n - 1);
        }
    }

    #[test]
    fn plain_agrees_with_heuristic_version() {
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(13);
        for _ in 0..30 {
            let n = rng.gen_range(4..16);
            let m = rng.gen_range(n..4 * n);
            let mut g: FlowGraph = FlowGraph::new(n);
            for _ in 0..m {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(u, v, rng.gen_range(0..10));
                }
            }
            let mut g2 = g.clone();
            let a = PushRelabel::new().max_flow(&mut g, 0, n - 1);
            let b = PushRelabel::plain().max_flow(&mut g2, 0, n - 1);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn incremental_capacity_ramp_matches_from_scratch() {
        // Simulates the integrated usage: capacities on sink edges grow one
        // by one and resume() must always match a from-scratch solve.
        use rds_util::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(99);
        let n = 12;
        let mut g: FlowGraph = FlowGraph::new(n);
        let mut sink_edges = Vec::new();
        for v in 1..n - 1 {
            g.add_edge(0, v, rng.gen_range(1..4));
            sink_edges.push(g.add_edge(v, n - 1, 0));
        }
        for _ in 0..20 {
            let u = rng.gen_range(1..n - 1);
            let v = rng.gen_range(1..n - 1);
            if u != v {
                g.add_edge(u, v, rng.gen_range(0..3));
            }
        }
        let mut pr = PushRelabel::new();
        pr.max_flow(&mut g, 0, n - 1);
        for round in 0..15 {
            let e = sink_edges[rng.gen_range(0..sink_edges.len())];
            g.set_cap(e, g.cap(e) + 1);
            let got = pr.resume(&mut g, 0, n - 1);
            let mut fresh = g.clone();
            let want = dinic::max_flow(&mut fresh, 0, n - 1);
            assert_eq!(got, want, "round {round}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let (mut g, s, t) = clrs();
        let mut pr = PushRelabel::new();
        pr.max_flow(&mut g, s, t);
        assert!(pr.stats.pushes > 0);
    }

    #[test]
    fn single_edge_graph() {
        let mut g: FlowGraph = FlowGraph::new(2);
        g.add_edge(0, 1, 5);
        assert_eq!(PushRelabel::new().max_flow(&mut g, 0, 1), 5);
    }

    #[test]
    fn no_path_to_sink() {
        let mut g: FlowGraph = FlowGraph::new(4);
        g.add_edge(0, 1, 5);
        g.add_edge(2, 3, 5);
        assert_eq!(PushRelabel::new().max_flow(&mut g, 0, 3), 0);
    }
}
