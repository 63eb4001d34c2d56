//! Labelling of protocol messages for the traffic metrics.
//!
//! The paper's efficiency claims are stated as *message complexity* (number
//! of messages transferred) and *communication complexity* (bit length of
//! messages transferred). Byte counts are taken where the bytes exist — the
//! network driver records the length of every encoded datagram it carries —
//! so a message type only has to say which row of the per-kind breakdown
//! (`send`, `echo`, `ready`, …) it belongs to.

/// The label under which [`crate::Metrics`] tallies a protocol message.
pub trait MessageKind {
    /// A short static label identifying the message kind, used to break down
    /// metrics per message type (e.g. `"echo"`, `"ready"`, `"lead-ch"`).
    fn kind(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;
    impl MessageKind for Fake {
        fn kind(&self) -> &'static str {
            "fake"
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let boxed: Box<dyn MessageKind> = Box::new(Fake);
        assert_eq!(boxed.kind(), "fake");
    }
}
