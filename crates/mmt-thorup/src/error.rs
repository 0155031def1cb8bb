//! Typed errors for the solver and serving layer.
//!
//! The seed's public surface panicked on user input — a mismatched
//! hierarchy, an out-of-range source, a submit after shutdown. Those are
//! caller errors, not bugs, so the v2 API reports them as values:
//! [`InputError`] for malformed queries, [`ServiceError`] for everything
//! the serving layer can do with a well-formed one (reject it, time it
//! out, cancel it, or refuse because it is shutting down).

use crate::registry::GraphId;
use mmt_graph::types::VertexId;
use std::fmt;

/// A query (or solver construction) that cannot be meaningfully run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputError {
    /// The Component Hierarchy was built for a different graph: vertex
    /// counts disagree.
    GraphMismatch {
        /// Vertices in the graph.
        graph_n: usize,
        /// Vertices the hierarchy was built over.
        ch_n: usize,
    },
    /// The query source is not a vertex of the graph.
    SourceOutOfRange {
        /// The offending source.
        source: VertexId,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// The query target is not a vertex of the graph.
    TargetOutOfRange {
        /// The offending target.
        target: VertexId,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// The request names a [`GraphId`] the registry has never issued.
    UnknownGraph {
        /// The offending id.
        graph: GraphId,
    },
    /// A full-SSSP submit carried a target; use the point-to-point entry
    /// point for targeted queries.
    UnexpectedTarget {
        /// The target that was set.
        target: VertexId,
    },
    /// A point-to-point submit carried no target; use the full-SSSP entry
    /// point for untargeted queries.
    MissingTarget,
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::GraphMismatch { graph_n, ch_n } => write!(
                f,
                "hierarchy was built for a different graph ({ch_n} vertices, graph has {graph_n})"
            ),
            Self::SourceOutOfRange { source, n } => {
                write!(f, "source {source} out of range for a {n}-vertex graph")
            }
            Self::TargetOutOfRange { target, n } => {
                write!(f, "target {target} out of range for a {n}-vertex graph")
            }
            Self::UnknownGraph { graph } => {
                write!(f, "graph {graph} is not registered")
            }
            Self::UnexpectedTarget { target } => {
                write!(
                    f,
                    "full-SSSP submit carried target {target}; use submit_p2p"
                )
            }
            Self::MissingTarget => {
                f.write_str("point-to-point submit carried no target; use submit")
            }
        }
    }
}

impl std::error::Error for InputError {}

/// Why the query service did not (or will not) answer a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded request queue is full; the request was not enqueued.
    /// Back off and retry, or treat as load shedding.
    Overloaded {
        /// The queue capacity that was exceeded.
        capacity: usize,
    },
    /// The service has shut down (or is shutting down in abort mode);
    /// the request was not, or will not be, answered.
    ShutDown,
    /// The request's deadline passed before an answer was produced. The
    /// deadline is enforced both at dequeue and cooperatively inside the
    /// solver, so an expired query stops mid-solve.
    DeadlineExceeded,
    /// The request was cancelled — typically by dropping its handle.
    Cancelled,
    /// The worker solving this request panicked. The request is *not*
    /// retried (the failure may be input-dependent); the worker is
    /// restarted and the pool returns to full strength. Resubmit if the
    /// query is idempotent from the caller's point of view.
    WorkerLost,
    /// The request was evicted from the queue by the service's
    /// load-shedding policy to keep the queue bounded under overload.
    Shed,
    /// The request's graph was evicted from the registry — either before
    /// the request was admitted, or while it sat queued. In-flight solves
    /// finish normally (their graph and hierarchy `Arc`s keep the data
    /// alive); only queued and future requests see this error.
    GraphEvicted,
    /// The registry's resident bytes exceed the service's configured
    /// memory limit; the request was refused at admission.
    MemoryPressure {
        /// Resident bytes at the admission check.
        resident: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The request itself was malformed.
    Input(InputError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            Self::ShutDown => f.write_str("service has shut down"),
            Self::DeadlineExceeded => f.write_str("deadline exceeded"),
            Self::Cancelled => f.write_str("query cancelled"),
            Self::WorkerLost => f.write_str("worker lost while solving this request"),
            Self::Shed => f.write_str("request shed under overload"),
            Self::GraphEvicted => f.write_str("graph evicted from the registry"),
            Self::MemoryPressure { resident, limit } => write!(
                f,
                "registry resident bytes ({resident}) exceed the memory limit ({limit})"
            ),
            Self::Input(e) => write!(f, "invalid request: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Input(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InputError> for ServiceError {
    fn from(e: InputError) -> Self {
        Self::Input(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = InputError::SourceOutOfRange { source: 9, n: 4 };
        assert_eq!(e.to_string(), "source 9 out of range for a 4-vertex graph");
        let s: ServiceError = e.into();
        assert!(s.to_string().contains("invalid request"));
        assert_eq!(
            ServiceError::Overloaded { capacity: 8 }.to_string(),
            "request queue full (capacity 8)"
        );
        assert_eq!(
            ServiceError::WorkerLost.to_string(),
            "worker lost while solving this request"
        );
        assert_eq!(
            ServiceError::Shed.to_string(),
            "request shed under overload"
        );
        assert_eq!(
            InputError::GraphMismatch {
                graph_n: 5,
                ch_n: 7
            }
            .to_string(),
            "hierarchy was built for a different graph (7 vertices, graph has 5)"
        );
    }

    #[test]
    fn error_source_chains() {
        use std::error::Error;
        let s = ServiceError::Input(InputError::TargetOutOfRange { target: 3, n: 2 });
        assert!(s.source().is_some());
        assert!(ServiceError::ShutDown.source().is_none());
    }
}
