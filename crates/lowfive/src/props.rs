//! LowFive configuration properties.
//!
//! Real LowFive is configured per (file pattern, dataset pattern):
//! `set_memory`, `set_passthru`, and `set_zerocopy` select, at per-dataset
//! granularity, whether data flow in memory, to physical storage, or both,
//! and whether the in-memory copy is deep or shallow. This module
//! reproduces that surface with simple `*`/`?` glob patterns; the last
//! matching rule wins.

use std::time::Duration;

use diyblk::RetryPolicy;
use minih5::Ownership;

/// What a producer's `publish` does when a stream series' bounded step
/// queue is full (see `crate::stream` and `docs/STREAMING.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackPressure {
    /// `publish` blocks until the slowest subscribed consumer retires a
    /// step. Lossless: every consumer sees every step.
    #[default]
    Block,
    /// `publish` evicts the oldest retained step and proceeds at full
    /// rate. Slow consumers observe gaps (counted as `steps_dropped`).
    DropOldest,
}

#[derive(Debug, Clone)]
enum Action {
    Memory(bool),
    Passthrough(bool),
    Zerocopy(bool),
    RpcTimeout(Option<Duration>),
    RpcRetries(u32),
    StreamQueueDepth(usize),
    StreamBackpressure(BackPressure),
    Keep(bool),
}

#[derive(Debug, Clone)]
struct Rule {
    file_pat: String,
    dset_pat: String,
    action: Action,
}

/// Per-file / per-dataset transport configuration.
///
/// Defaults: memory mode **on**, passthrough (file I/O) **off**, deep
/// copies.
#[derive(Debug, Clone, Default)]
pub struct LowFiveProps {
    rules: Vec<Rule>,
}

impl LowFiveProps {
    /// Empty property list: every knob at its documented default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable/disable in-memory transport for files matching `file_pat`.
    pub fn set_memory(&mut self, file_pat: &str, on: bool) -> &mut Self {
        self.rules.push(Rule {
            file_pat: file_pat.to_string(),
            dset_pat: "*".to_string(),
            action: Action::Memory(on),
        });
        self
    }

    /// Enable/disable passthrough to physical storage for files matching
    /// `file_pat`.
    pub fn set_passthrough(&mut self, file_pat: &str, on: bool) -> &mut Self {
        self.rules.push(Rule {
            file_pat: file_pat.to_string(),
            dset_pat: "*".to_string(),
            action: Action::Passthrough(on),
        });
        self
    }

    /// Enable/disable zero-copy (shallow) in-memory regions for datasets
    /// matching `(file_pat, dset_pat)`.
    pub fn set_zerocopy(&mut self, file_pat: &str, dset_pat: &str, on: bool) -> &mut Self {
        self.rules.push(Rule {
            file_pat: file_pat.to_string(),
            dset_pat: dset_pat.to_string(),
            action: Action::Zerocopy(on),
        });
        self
    }

    /// Bound every consumer-side RPC against producers of files matching
    /// `file_pat` to `timeout` per attempt (`None` restores the default:
    /// block forever, like MPI). When a bound is set, a producer that dies
    /// or stalls surfaces as [`minih5::H5Error::PeerUnavailable`] instead
    /// of hanging the consumer.
    pub fn set_rpc_timeout(&mut self, file_pat: &str, timeout: Option<Duration>) -> &mut Self {
        self.rules.push(Rule {
            file_pat: file_pat.to_string(),
            dset_pat: "*".to_string(),
            action: Action::RpcTimeout(timeout),
        });
        self
    }

    /// Number of *extra* attempts (beyond the first) for idempotent
    /// consumer RPCs — metadata, intersect, and data queries — against
    /// producers of files matching `file_pat`. Only meaningful together
    /// with [`LowFiveProps::set_rpc_timeout`]; retries of a call that
    /// never times out never happen.
    pub fn set_rpc_retries(&mut self, file_pat: &str, retries: u32) -> &mut Self {
        self.rules.push(Rule {
            file_pat: file_pat.to_string(),
            dset_pat: "*".to_string(),
            action: Action::RpcRetries(retries),
        });
        self
    }

    /// Bound the number of unretired steps a stream series matching
    /// `file_pat` retains (default **4**, minimum 1). Match against the
    /// *series* name, not the per-step slot filenames derived from it.
    pub fn set_stream_queue_depth(&mut self, file_pat: &str, depth: usize) -> &mut Self {
        self.rules.push(Rule {
            file_pat: file_pat.to_string(),
            dset_pat: "*".to_string(),
            action: Action::StreamQueueDepth(depth.max(1)),
        });
        self
    }

    /// Select what `publish` does when the step queue of a series
    /// matching `file_pat` is full (default [`BackPressure::Block`]).
    pub fn set_stream_backpressure(&mut self, file_pat: &str, mode: BackPressure) -> &mut Self {
        self.rules.push(Rule {
            file_pat: file_pat.to_string(),
            dset_pat: "*".to_string(),
            action: Action::StreamBackpressure(mode),
        });
        self
    }

    /// Keep files matching `file_pat` resident after their consumers are
    /// done with them (default **off**, as in upstream LowFive).
    ///
    /// A served file has an end of life: when the last expected consumer
    /// rank has closed it, the producer *retires* it — the in-memory
    /// tree and its region bytes, its index entry and its generation tag
    /// are all dropped, so a long-running producer holds O(files being
    /// served) state, not O(files ever served). With `keep` on the file stays instead: the producer can
    /// re-open its own output, and a consumer that re-opens the name
    /// re-reads the same snapshot, exactly as before retirement existed.
    ///
    /// Two interactions:
    ///
    /// * **Name re-use.** With `keep` off a consumer's close ends its
    ///   view of the snapshot, so when it opens the same name again it
    ///   waits for the producer's *next* close of that name — one file
    ///   name can carry a whole time series on either serve path. With
    ///   `keep` on, that open is answered from the retained snapshot;
    ///   give each step its own name (or use [`crate::stream`]) when
    ///   keeping.
    /// * **Stream slots** ignore this setting: a slot lives until its
    ///   series' window recycles it
    ///   ([`LowFiveProps::set_stream_queue_depth`]).
    pub fn set_keep(&mut self, file_pat: &str, on: bool) -> &mut Self {
        self.rules.push(Rule {
            file_pat: file_pat.to_string(),
            dset_pat: "*".to_string(),
            action: Action::Keep(on),
        });
        self
    }

    /// Should `file` stay resident after its last consumer is done?
    pub fn keep_for(&self, file: &str) -> bool {
        let mut on = false;
        for r in &self.rules {
            if let Action::Keep(v) = r.action {
                if glob_match(&r.file_pat, file) {
                    on = v;
                }
            }
        }
        on
    }

    /// Effective step-queue depth for stream series `file`.
    pub fn stream_queue_depth_for(&self, file: &str) -> usize {
        let mut depth = 4;
        for r in &self.rules {
            if let Action::StreamQueueDepth(v) = r.action {
                if glob_match(&r.file_pat, file) {
                    depth = v;
                }
            }
        }
        depth
    }

    /// Effective back-pressure mode for stream series `file`.
    pub fn stream_backpressure_for(&self, file: &str) -> BackPressure {
        let mut mode = BackPressure::Block;
        for r in &self.rules {
            if let Action::StreamBackpressure(v) = r.action {
                if glob_match(&r.file_pat, file) {
                    mode = v;
                }
            }
        }
        mode
    }

    /// Effective retry policy for consumer RPCs on `file`: `None` means
    /// no timeout configured — block forever (the default).
    pub fn rpc_policy_for(&self, file: &str) -> Option<RetryPolicy> {
        let mut timeout = None;
        let mut retries = 0u32;
        for r in &self.rules {
            match r.action {
                Action::RpcTimeout(v) if glob_match(&r.file_pat, file) => timeout = v,
                Action::RpcRetries(v) if glob_match(&r.file_pat, file) => retries = v,
                _ => {}
            }
        }
        timeout.map(|t| RetryPolicy::new(retries + 1, t))
    }

    /// Should `file` use in-memory transport?
    pub fn memory_for(&self, file: &str) -> bool {
        let mut on = true;
        for r in &self.rules {
            if let Action::Memory(v) = r.action {
                if glob_match(&r.file_pat, file) {
                    on = v;
                }
            }
        }
        on
    }

    /// Should `file` also (or instead) go to physical storage?
    pub fn passthrough_for(&self, file: &str) -> bool {
        let mut on = false;
        for r in &self.rules {
            if let Action::Passthrough(v) = r.action {
                if glob_match(&r.file_pat, file) {
                    on = v;
                }
            }
        }
        on
    }

    /// Ownership for a write into `(file, dset)`; `requested` is what the
    /// caller passed through the API and is used when no rule matches.
    pub fn ownership_for(&self, file: &str, dset: &str, requested: Ownership) -> Ownership {
        let mut own = requested;
        for r in &self.rules {
            if let Action::Zerocopy(v) = r.action {
                if glob_match(&r.file_pat, file) && glob_match(&r.dset_pat, dset) {
                    own = if v { Ownership::Shallow } else { Ownership::Deep };
                }
            }
        }
        own
    }
}

/// Glob match supporting `*` (any sequence) and `?` (any one char).
pub fn glob_match(pattern: &str, s: &str) -> bool {
    fn inner(p: &[u8], s: &[u8]) -> bool {
        match (p.first(), s.first()) {
            (None, None) => true,
            (Some(b'*'), _) => inner(&p[1..], s) || (!s.is_empty() && inner(p, &s[1..])),
            (Some(b'?'), Some(_)) => inner(&p[1..], &s[1..]),
            (Some(a), Some(b)) if a == b => inner(&p[1..], &s[1..]),
            _ => false,
        }
    }
    inner(pattern.as_bytes(), s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_basics() {
        assert!(glob_match("*", "anything"));
        assert!(glob_match("*.h5", "step1.h5"));
        assert!(!glob_match("*.h5", "step1.nh5x"));
        assert!(glob_match("step?.h5", "step3.h5"));
        assert!(!glob_match("step?.h5", "step12.h5"));
        assert!(glob_match("a*b*c", "aXXbYYc"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
    }

    #[test]
    fn defaults() {
        let p = LowFiveProps::new();
        assert!(p.memory_for("f.h5"));
        assert!(!p.passthrough_for("f.h5"));
        assert_eq!(p.ownership_for("f.h5", "d", Ownership::Deep), Ownership::Deep);
        assert_eq!(p.ownership_for("f.h5", "d", Ownership::Shallow), Ownership::Shallow);
    }

    #[test]
    fn last_matching_rule_wins() {
        let mut p = LowFiveProps::new();
        p.set_memory("*", false).set_memory("outputs/*", true);
        assert!(!p.memory_for("scratch.h5"));
        assert!(p.memory_for("outputs/step1.h5"));
    }

    #[test]
    fn file_mode_configuration() {
        // The paper's "file mode": memory off, passthrough on.
        let mut p = LowFiveProps::new();
        p.set_memory("*", false).set_passthrough("*", true);
        assert!(!p.memory_for("x.h5"));
        assert!(p.passthrough_for("x.h5"));
    }

    #[test]
    fn rpc_policy_defaults_to_blocking() {
        let p = LowFiveProps::new();
        assert!(p.rpc_policy_for("f.h5").is_none());
    }

    #[test]
    fn rpc_policy_composes_timeout_and_retries() {
        let mut p = LowFiveProps::new();
        p.set_rpc_timeout("*.h5", Some(Duration::from_millis(250)));
        p.set_rpc_retries("*.h5", 3);
        let pol = p.rpc_policy_for("a.h5").expect("timeout set");
        assert_eq!(pol.attempts, 4); // first try + 3 retries
        assert_eq!(pol.timeout, Duration::from_millis(250));
        assert!(p.rpc_policy_for("other.bin").is_none(), "pattern-scoped");
        // A later rule can turn the bound back off.
        p.set_rpc_timeout("a.h5", None);
        assert!(p.rpc_policy_for("a.h5").is_none());
    }

    #[test]
    fn stream_knobs_default_and_pattern_scope() {
        let p = LowFiveProps::new();
        assert_eq!(p.stream_queue_depth_for("sim.h5"), 4);
        assert_eq!(p.stream_backpressure_for("sim.h5"), BackPressure::Block);

        let mut p = LowFiveProps::new();
        p.set_stream_queue_depth("sim*", 2);
        p.set_stream_backpressure("sim*", BackPressure::DropOldest);
        assert_eq!(p.stream_queue_depth_for("sim.h5"), 2);
        assert_eq!(p.stream_backpressure_for("sim.h5"), BackPressure::DropOldest);
        assert_eq!(p.stream_queue_depth_for("other.h5"), 4);
        assert_eq!(p.stream_backpressure_for("other.h5"), BackPressure::Block);
        // Last matching rule wins; depth is clamped to at least one slot.
        p.set_stream_queue_depth("*", 0);
        assert_eq!(p.stream_queue_depth_for("sim.h5"), 1);
    }

    #[test]
    fn keep_defaults_off_and_is_pattern_scoped() {
        let p = LowFiveProps::new();
        assert!(!p.keep_for("f.h5"));
        let mut p = LowFiveProps::new();
        p.set_keep("ckpt/*", true);
        assert!(p.keep_for("ckpt/step1.h5"));
        assert!(!p.keep_for("viz/step1.h5"));
        // Last matching rule wins.
        p.set_keep("*", false);
        assert!(!p.keep_for("ckpt/step1.h5"));
    }

    #[test]
    fn zerocopy_per_dataset() {
        let mut p = LowFiveProps::new();
        p.set_zerocopy("*", "group2/particles", true);
        assert_eq!(
            p.ownership_for("a.h5", "group2/particles", Ownership::Deep),
            Ownership::Shallow
        );
        assert_eq!(p.ownership_for("a.h5", "group1/grid", Ownership::Deep), Ownership::Deep);
        // Later rule can turn it back off.
        p.set_zerocopy("*", "*", false);
        assert_eq!(
            p.ownership_for("a.h5", "group2/particles", Ownership::Shallow),
            Ownership::Deep
        );
    }
}
