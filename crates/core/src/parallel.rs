//! Parallel integrated retrieval (paper Section V).
//!
//! The paper parallelizes the push/relabel operations inside Algorithm 6
//! using the lock-free asynchronous method of Hong & He (TPDS 2011); the
//! driver — binary capacity scaling, flow conservation, final incremental
//! phase — is unchanged. Accordingly, this solver runs `crate::pr`'s
//! Algorithm 6 front-end; only the engine it resumes differs: the
//! multithreaded [`rds_flow::parallel::ParallelPushRelabel`].

use crate::error::SolveError;
use crate::network::RetrievalInstance;
use crate::pr::{solve_integrated, Integrated};
use crate::schedule::RetrievalOutcome;
use crate::solver::RetrievalSolver;
use crate::workspace::Workspace;

/// Multithreaded Algorithm 6 (the paper evaluates 2 threads).
#[derive(Clone, Copy, Debug)]
pub struct ParallelPushRelabelBinary {
    /// Number of worker threads for the push/relabel phase.
    pub threads: usize,
}

impl Default for ParallelPushRelabelBinary {
    fn default() -> Self {
        ParallelPushRelabelBinary { threads: 2 }
    }
}

impl ParallelPushRelabelBinary {
    /// Creates a solver using `threads` workers (minimum 1).
    pub fn new(threads: usize) -> Self {
        ParallelPushRelabelBinary {
            threads: threads.max(1),
        }
    }
}

impl RetrievalSolver for ParallelPushRelabelBinary {
    fn name(&self) -> &'static str {
        "PR-binary-parallel"
    }

    fn solve_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        solve_integrated(
            self.name(),
            Integrated::Binary,
            false,
            inst,
            ws,
            Some(self.threads),
        )
    }

    fn supports_delta(&self) -> bool {
        true
    }

    fn resume_in(
        &self,
        inst: &RetrievalInstance,
        ws: &mut Workspace,
    ) -> Result<RetrievalOutcome, SolveError> {
        solve_integrated(
            self.name(),
            Integrated::Binary,
            true,
            inst,
            ws,
            Some(self.threads),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pr::PushRelabelBinary;
    use crate::verify::{assert_outcome_valid, oracle_optimal_response};
    use rds_decluster::allocation::Placement;
    use rds_decluster::orthogonal::OrthogonalAllocation;
    use rds_decluster::query::{Query, RangeQuery};
    use rds_decluster::rda::RandomDuplicateAllocation;
    use rds_storage::experiments::{experiment, paper_example, ExperimentId};

    #[test]
    fn parallel_matches_sequential_on_paper_example() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        for (r, c) in [(3usize, 2usize), (7, 7), (5, 2)] {
            let q = RangeQuery::new(0, 0, r, c);
            let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(7));
            let par = ParallelPushRelabelBinary::new(2).solve(&inst).unwrap();
            let seq = PushRelabelBinary.solve(&inst).unwrap();
            assert_eq!(par.response_time, seq.response_time, "query {r}x{c}");
            assert_outcome_valid(&inst, &par);
        }
    }

    #[test]
    fn thread_counts_agree() {
        let system = experiment(ExperimentId::Exp5, 6, 9);
        let alloc = RandomDuplicateAllocation::two_site(6, 9);
        let q = RangeQuery::new(1, 1, 5, 4);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(6));
        let want = oracle_optimal_response(&inst);
        for threads in [1usize, 2, 4] {
            let outcome = ParallelPushRelabelBinary::new(threads)
                .solve(&inst)
                .unwrap();
            assert_eq!(outcome.response_time, want, "{threads} threads");
            assert_outcome_valid(&inst, &outcome);
        }
    }

    #[test]
    fn repeated_runs_are_deterministic_in_value() {
        // The schedule may differ between runs (races change which replica
        // serves a bucket) but the optimal response time never does.
        let system = experiment(ExperimentId::Exp5, 8, 21);
        let alloc = OrthogonalAllocation::new(8, Placement::PerSite);
        let q = RangeQuery::new(2, 3, 6, 6);
        let inst = RetrievalInstance::build(&system, &alloc, &q.buckets(8));
        let want = PushRelabelBinary.solve(&inst).unwrap().response_time;
        for _ in 0..5 {
            let got = ParallelPushRelabelBinary::new(2).solve(&inst).unwrap();
            assert_eq!(got.response_time, want);
            assert_outcome_valid(&inst, &got);
        }
    }

    #[test]
    fn empty_query() {
        let system = paper_example();
        let alloc = OrthogonalAllocation::paper_7x7();
        let inst = RetrievalInstance::build(&system, &alloc, &[]);
        let outcome = ParallelPushRelabelBinary::default().solve(&inst).unwrap();
        assert_eq!(outcome.flow_value, 0);
    }
}
