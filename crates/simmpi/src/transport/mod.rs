//! Pluggable channel layer: how a [`crate::envelope::WireEnvelope`] gets
//! from the sending rank to the destination mailbox.
//!
//! Everything *above* this trait is backend-independent: fault-injection
//! decisions ([`crate::FaultPlan`]) are taken in `Comm::send_internal`
//! before the envelope reaches the transport, receives match against the
//! per-rank [`Mailbox`] regardless of how envelopes arrived, and liveness
//! is a world-level flag the transport merely wakes receivers for. A
//! backend therefore only owns *delivery*:
//!
//! * [`TransportKind::InProc`] — the original path: the sender pushes
//!   straight into the destination mailbox. Unbounded, no threads, no
//!   copies (multi-part payloads travel as the sender's refcounted
//!   allocations).
//! * [`TransportKind::Socket`] — envelopes are framed
//!   ([`frame::FrameHeader`]) and cross a real Unix-domain socket: one
//!   bounded writer queue + writer thread per
//!   destination, one reader thread per destination demuxing frames into
//!   that rank's mailbox. Multi-part payloads flatten on the wire, in the
//!   kernel's copy out of the sender's parts (one `writev`). The receiver
//!   sees a single part — or, for a frame it posted a sink for
//!   (`crate::sink`), no body at all: the reader has the kernel write the
//!   bytes straight into the receiver's memory and delivers a completion.
//!
//! ## What the trait guarantees (and what it does not)
//!
//! * **Per-(src, dest) FIFO** — two envelopes from the same source to the
//!   same destination arrive in send order (unless the fault injector
//!   explicitly reorders with `front`). In-proc: one mailbox queue.
//!   Socket: one FIFO link per destination plus per-source sequence
//!   numbers verified by the reader.
//! * **Liveness wakeups** — [`Transport::wake_all`] wakes every blocked
//!   receiver so death flags and deadlines get re-checked.
//! * **No cross-peer ordering** — envelopes from different sources may
//!   interleave arbitrarily, exactly like MPI.
//! * **Pre-death receivability** — envelopes a rank sent before dying
//!   stay receivable: the death-abort predicate consults
//!   [`Transport::in_flight`] and only fires once the dead peer's frames
//!   have drained into the mailbox (trivially immediate in-proc).
//! * **No delivery-on-death guarantee at tear-down** — envelopes in
//!   flight when the world tears down may be dropped.

pub(crate) mod frame;
mod inproc;
mod socket;

pub(crate) use inproc::InProcTransport;
pub(crate) use socket::SocketTransport;

use crate::envelope::WireEnvelope;
use crate::mailbox::Mailbox;

/// Which backend carries messages between ranks of a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Direct mailbox delivery inside one address space (the default):
    /// unbounded, zero-copy, no extra threads.
    #[default]
    InProc,
    /// Length-prefixed frames over per-rank Unix-domain sockets; bounded
    /// writer queues give sends real backpressure.
    Socket,
}

impl TransportKind {
    /// Parse a backend name: empty or `inproc` is [`TransportKind::InProc`];
    /// `socket`, `uds` or `unix` is [`TransportKind::Socket`] (any case).
    /// Anything else is `None`.
    pub fn parse(name: &str) -> Option<TransportKind> {
        match name.to_ascii_lowercase().as_str() {
            "" | "inproc" => Some(TransportKind::InProc),
            "socket" | "uds" | "unix" => Some(TransportKind::Socket),
            _ => None,
        }
    }

    /// Backend selected by the `SIMMPI_TRANSPORT` environment variable
    /// ([`TransportKind::parse`]; unset is [`TransportKind::InProc`]). This
    /// is how the CI transport matrix flips whole test binaries onto the
    /// wire without touching call sites.
    ///
    /// # Panics
    /// On a value [`TransportKind::parse`] rejects: a typo must not
    /// quietly run in-proc.
    pub fn from_env() -> TransportKind {
        let name = std::env::var("SIMMPI_TRANSPORT").unwrap_or_default();
        TransportKind::parse(&name).unwrap_or_else(|| {
            panic!("SIMMPI_TRANSPORT={name:?} names no transport (inproc|socket|uds|unix)")
        })
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::InProc => write!(f, "inproc"),
            TransportKind::Socket => write!(f, "socket"),
        }
    }
}

/// Tuning for the socket backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketConfig {
    /// Frames a destination's writer queue holds before [`Comm::send`]
    /// blocks (and [`Comm::try_send`] reports
    /// [`crate::SendError::WouldBlock`]).
    ///
    /// [`Comm::send`]: crate::Comm::send
    /// [`Comm::try_send`]: crate::Comm::try_send
    pub queue_cap: usize,
    /// Envelopes a destination mailbox may hold before the reader stops
    /// draining the wire — the receive window that turns a slow receiver
    /// into sender-visible backpressure. The default is effectively
    /// unbounded, preserving in-proc's buffered-send semantics.
    pub recv_window: usize,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig { queue_cap: 4096, recv_window: usize::MAX }
    }
}

/// A delivery backend. See the module docs for the contract.
pub(crate) trait Transport: Send + Sync {
    /// The mailbox receives for `world_rank` match against.
    fn mailbox(&self, world_rank: usize) -> &Mailbox;

    /// Deliver `env` to `world_dest`'s mailbox, blocking while the send
    /// path is full. `front` requests front-of-queue insertion (the fault
    /// injector's reorder). In-proc never blocks.
    fn deliver(&self, world_dest: usize, env: WireEnvelope, front: bool);

    /// Nonblocking [`Transport::deliver`]: hands the envelope back when
    /// the send path is full so the caller can surface
    /// [`crate::SendError::WouldBlock`] without losing the message.
    fn try_deliver(
        &self,
        world_dest: usize,
        env: WireEnvelope,
        front: bool,
    ) -> Result<(), WireEnvelope>;

    /// Wake every blocked receiver so external conditions (a peer death, a
    /// deadline) get re-checked.
    fn wake_all(&self);

    /// Are envelopes from `world_src` to `world_dest` still somewhere in
    /// the delivery path (queued, on the wire, or held at the receive
    /// window)? Receives abort on a dead peer only once this turns false,
    /// so messages sent before a kill stay receivable on every backend.
    /// In-proc delivery is synchronous — nothing is ever in flight.
    fn in_flight(&self, _world_src: usize, _world_dest: usize) -> bool {
        false
    }

    /// Tear down backend threads and sockets. Idempotent; called once the
    /// last rank has returned, so undelivered envelopes may be dropped.
    fn shutdown(&self);

    /// Which backend this is (reported by [`crate::Comm::transport_kind`]).
    fn kind(&self) -> TransportKind;
}

/// Construct the backend a [`crate::WorldBuilder`] asked for.
pub(crate) fn make_transport(
    kind: TransportKind,
    size: usize,
    cfg: SocketConfig,
) -> Box<dyn Transport> {
    match kind {
        TransportKind::InProc => Box::new(InProcTransport::new(size)),
        TransportKind::Socket => Box::new(SocketTransport::new(size, cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_each_name_and_rejects_the_rest() {
        let cases = [
            ("", Some(TransportKind::InProc)),
            ("inproc", Some(TransportKind::InProc)),
            ("InProc", Some(TransportKind::InProc)),
            ("socket", Some(TransportKind::Socket)),
            ("SOCKET", Some(TransportKind::Socket)),
            ("uds", Some(TransportKind::Socket)),
            ("Unix", Some(TransportKind::Socket)),
            ("tcp", None),
            ("sockets", None),
            (" socket", None),
            ("in-proc", None),
        ];
        for (name, want) in cases {
            assert_eq!(TransportKind::parse(name), want, "{name:?}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(TransportKind::InProc.to_string(), "inproc");
        assert_eq!(TransportKind::Socket.to_string(), "socket");
    }
}
