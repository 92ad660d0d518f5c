//! Typed errors for the exhaustive explorer.
//!
//! Every fallible step of an exploration — interning a state into the
//! packed arena, resolving a route id, a panic on an expanding worker —
//! reports an [`ExploreError`] carrying the gadget × model cell being
//! checked, in the same spirit as the experiment pool's per-job panic
//! attribution, so a failure never surfaces as an anonymous "thread
//! panicked".

use std::fmt;

/// What went wrong inside the explorer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreErrorKind {
    /// The instance's permitted-path universe exceeds the packed route-id
    /// width (u16); such an instance cannot be interned.
    RouteTableOverflow {
        /// Number of distinct routes the instance admits.
        routes: usize,
    },
    /// A state to be interned mentions a route outside the instance's
    /// permitted-path universe — the engine produced an impossible route,
    /// or the instance was mutated mid-exploration.
    UnknownRoute {
        /// The offending route, rendered.
        route: String,
    },
    /// A queue grew past the packed length-field width (u16); the state
    /// cannot be encoded without silently truncating it.
    PathTooLong {
        /// The dense channel id whose queue overflowed.
        channel: usize,
        /// The offending queue length.
        len: usize,
    },
    /// A packed state failed to decode (corrupt arena entry).
    CorruptState {
        /// Human-readable description of the corruption.
        detail: String,
    },
    /// A worker thread panicked while expanding a state; the panic payload
    /// is preserved.
    WorkerPanic {
        /// The rendered panic payload.
        message: String,
    },
}

/// An explorer failure attributed to its gadget × model cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreError {
    /// The cell being explored (instance descriptor × model).
    pub cell: String,
    /// The failure itself.
    pub kind: ExploreErrorKind,
}

impl ExploreError {
    /// A worker-panic error for `cell`.
    pub fn worker_panic(cell: impl Into<String>, message: impl Into<String>) -> Self {
        ExploreError {
            cell: cell.into(),
            kind: ExploreErrorKind::WorkerPanic { message: message.into() },
        }
    }

    /// An unknown-route error for `cell`.
    pub fn unknown_route(cell: impl Into<String>, route: impl Into<String>) -> Self {
        ExploreError {
            cell: cell.into(),
            kind: ExploreErrorKind::UnknownRoute { route: route.into() },
        }
    }

    /// A queue-length overflow error for `cell`.
    pub fn path_too_long(cell: impl Into<String>, channel: usize, len: usize) -> Self {
        ExploreError { cell: cell.into(), kind: ExploreErrorKind::PathTooLong { channel, len } }
    }

    /// A corrupt-state error for `cell`.
    pub fn corrupt(cell: impl Into<String>, detail: impl Into<String>) -> Self {
        ExploreError {
            cell: cell.into(),
            kind: ExploreErrorKind::CorruptState { detail: detail.into() },
        }
    }
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "explore[{}]: ", self.cell)?;
        match &self.kind {
            ExploreErrorKind::RouteTableOverflow { routes } => {
                write!(f, "route table overflow ({routes} routes exceed the u16 id space)")
            }
            ExploreErrorKind::UnknownRoute { route } => {
                write!(f, "route {route} is outside the instance's permitted-path universe")
            }
            ExploreErrorKind::PathTooLong { channel, len } => {
                write!(f, "queue on channel {channel} holds {len} routes, exceeding the packed u16 length field")
            }
            ExploreErrorKind::CorruptState { detail } => {
                write!(f, "corrupt packed state: {detail}")
            }
            ExploreErrorKind::WorkerPanic { message } => {
                write!(f, "worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cell() {
        let e = ExploreError::worker_panic("DISAGREE × R1O", "queue empty");
        let s = e.to_string();
        assert!(s.contains("DISAGREE × R1O"), "{s}");
        assert!(s.contains("queue empty"), "{s}");
        let e = ExploreError {
            cell: "FIG6 × RMA".into(),
            kind: ExploreErrorKind::RouteTableOverflow { routes: 70_000 },
        };
        assert!(e.to_string().contains("70000"), "{e}");
        let e = ExploreError::unknown_route("c", "xyd");
        assert!(e.to_string().contains("xyd"), "{e}");
        let e = ExploreError::corrupt("c", "short buffer");
        assert!(e.to_string().contains("short buffer"), "{e}");
        let e = ExploreError::path_too_long("c", 3, 70_000);
        assert!(e.to_string().contains("70000"), "{e}");
        assert!(e.to_string().contains("channel 3"), "{e}");
    }
}
