//! Compressive-sensing substrate for Buzz's identification protocol.
//!
//! §5 of the paper reduces node identification to recovering a K-sparse
//! complex vector `z = H·x` from `y = A·z`, where `A` is a random binary
//! matrix whose columns the tags generate from their ids.  The paper makes
//! the problem tractable on the reader with a three-stage pipeline; this crate
//! implements the reusable pieces of that pipeline:
//!
//! * [`kest`] — the streaming estimator of `K` (stage 1, §5.1-A, Lemma 5.1),
//! * [`buckets`] — hashing the temporary-id space into `c·K` buckets and
//!   pruning ids that hash to empty buckets (stage 2, §5.1-B),
//! * [`sensing`] — the stage-3 sensing matrix `A′` as column bitmaps,
//!   built from the candidate ids' seeds,
//! * [`omp`] — Orthogonal Matching Pursuit, the sparse solver used for the
//!   final small compressive-sensing decode (stage 3, §5.1-C), and the
//!   noise-aware prune of its support,
//! * [`linalg`] — the small dense kernels behind OMP's refits.
//!
//! The paper's implementation used a Matlab interior-point L1 solver (CVX);
//! OMP recovers the same K-sparse vectors in this measurement regime
//! (`M ≈ K·log a` random binary measurements) and runs in milliseconds in
//! pure Rust, which is why it is substituted here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buckets;
pub mod kest;
pub mod linalg;
pub mod omp;
pub mod sensing;

pub use buckets::BucketHasher;
pub use kest::{KEstimate, KEstimator};
pub use linalg::ComplexMatrix;
pub use omp::SparseSolution;
pub use sensing::SensingMatrix;

/// Errors produced by sparse-recovery operations.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// A parameter was outside its valid domain.
    InvalidParameter(&'static str),
    /// Dimensions of the measurement vector and sensing matrix disagree.
    DimensionMismatch {
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// A linear system was singular (or too ill-conditioned to solve).
    SingularSystem,
    /// The estimator has not yet observed enough data to produce an estimate.
    NotReady,
}

impl core::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecoveryError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            RecoveryError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            RecoveryError::SingularSystem => write!(f, "singular linear system"),
            RecoveryError::NotReady => write!(f, "estimator is not ready"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Result alias for sparse-recovery operations.
pub type RecoveryResult<T> = Result<T, RecoveryError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(RecoveryError::SingularSystem
            .to_string()
            .contains("singular"));
        assert!(RecoveryError::NotReady.to_string().contains("not ready"));
        assert!(RecoveryError::InvalidParameter("k")
            .to_string()
            .contains("k"));
        assert!(RecoveryError::DimensionMismatch {
            expected: 3,
            actual: 4
        }
        .to_string()
        .contains("expected 3"));
    }
}
