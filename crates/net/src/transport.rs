//! The transport error vocabulary shared by every link flavour.
//!
//! The transports themselves live in the `neptune-link` crate (in-process
//! queue handover, TCP, chaos-injected), composed
//! under optional reliability and flush-policy layers. What stays here is
//! the error space they all map into — in particular the closed-vs-gated
//! distinction [`TransportError::from_push`] preserves, which containment
//! depends on: `Closed` means the destination is gone for good,
//! `Backpressure` means the watermark gate is shut and the send should
//! park (§III-B4), never abort.

/// Errors from handing a batch to a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The destination (queue or connection) has been closed.
    Closed,
    /// The destination refused the batch because its watermark gate is
    /// closed (backpressure) — retry later; this is not a shutdown.
    Backpressure,
    /// The batch could not be encoded/decoded.
    Malformed(String),
    /// Socket-level failure.
    Io(String),
}

impl TransportError {
    /// Map a watermark-queue push failure onto the transport error space,
    /// preserving the closed-vs-gated distinction.
    pub fn from_push<T>(err: crate::watermark::PushError<T>) -> Self {
        match err {
            crate::watermark::PushError::Closed(_) => TransportError::Closed,
            crate::watermark::PushError::Gated(_) => TransportError::Backpressure,
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::Backpressure => write!(f, "transport gated (backpressure)"),
            TransportError::Malformed(m) => write!(f, "malformed batch: {m}"),
            TransportError::Io(m) => write!(f, "transport io error: {m}"),
        }
    }
}

impl std::error::Error for TransportError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watermark::PushError;

    #[test]
    fn push_errors_keep_the_closed_vs_gated_distinction() {
        assert_eq!(TransportError::from_push(PushError::Closed(7u8)), TransportError::Closed);
        assert_eq!(TransportError::from_push(PushError::Gated(7u8)), TransportError::Backpressure);
    }
}
