//! The five workloads and the closed-loop trial that runs one of them.
//!
//! A trial is a fresh `TaskWorld` of `simmpi` rank threads exchanging a
//! fixed number of steps. Load is a closed loop: a producer's
//! `file_close` (or, streaming, its `publish` against a full window)
//! returns only once the consumers have taken the step, so a slow system
//! receives less load. Nothing here sleeps and no cost model is attached;
//! every nanosecond measured is the product's own work. Rank threads are
//! bound to CPUs round-robin by world rank, as an MPI launcher would; a
//! thread a rank spawns (the async serve loop) inherits its CPU, the
//! socket backend's threads float.
//!
//! Only default-configuration public API is used — `DistVolBuilder::
//! {produce, consume, async_serve, props}`, `LowFiveProps::set_zerocopy`,
//! `H5`/`Dataset` reads and writes, `StepPublisher`/`StepSubscription`,
//! `vol.profile()` — and none of the A/B knobs, so that a later default
//! flip or knob deletion shows up as a number, not as a compile error.

use std::sync::Arc;

use bytes::Bytes;
use lowfive::{
    DistVolBuilder, LowFiveProps, StepPolicy, StepPublisher, StepSubscription, TransportProfile,
};
use minih5::{BBox, Dataspace, Datatype, H5Result, Ownership, Selection, Vol, H5};
use obsv::clock::now_ns;
use simmpi::{TaskComm, TaskSpec, TaskWorld, TransportKind};

use crate::gen::Grid;
use crate::sysres::{bind_to_cpu, MachineTime, Usage};

/// One benchmark workload: a geometry, a transport, and a step count.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Which layers it stresses and which it bypasses.
    pub why: &'static str,
    pub grid: Grid,
    /// Steps per trial — fixed, never derived from a time budget.
    pub steps: usize,
    pub transport: TransportKind,
    /// `set_zerocopy("*", "*", false)`: the producer copies on write and
    /// gathers on serve.
    pub deep: bool,
    /// Each consumer reads its y-slab as this many seeded x-chunks; more
    /// than one goes through `read_bytes_multi`.
    pub chunks: usize,
    /// `lowfive::stream` over an async-serve producer instead of one
    /// synchronously served file per step.
    pub stream: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "bulk_shallow",
        why: "2->2, 13.5 MiB/step lent zero-copy in-proc: data plane only (zero-filled read buffer, scatter memcpy, run/overlap arithmetic); control plane is a small share",
        grid: Grid { producers: 2, consumers: 2, slab: [96, 96, 96] },
        steps: 600,
        transport: TransportKind::InProc,
        deep: false,
        chunks: 1,
        stream: false,
    },
    Workload {
        name: "bulk_socket",
        why: "bulk_shallow's geometry over Unix sockets: payload flatten, per-part write_all, reader-thread hand-off; an in-proc-only gain must not move it and a socket gain must not move bulk_shallow",
        grid: Grid { producers: 2, consumers: 2, slab: [96, 96, 96] },
        steps: 200,
        transport: TransportKind::Socket,
        deep: false,
        chunks: 1,
        stream: false,
    },
    Workload {
        name: "serve_fanout_deep",
        why: "1->3 deep copies, each consumer fetching 4 seeded chunks per read: one serve loop pays write-copy, gather-copy and per-request allocation for three consumers; retained copies make peak RSS meaningful",
        grid: Grid { producers: 1, consumers: 3, slab: [64, 64, 64] },
        steps: 400,
        transport: TransportKind::InProc,
        deep: true,
        chunks: 4,
        stream: false,
    },
    Workload {
        name: "small_steps",
        why: "2->2, 512 B per producer: bytes are negligible, so only the control plane works (metadata RPC, index alltoall and barrier, redirect, batch frame, DONE acks, mailbox wake-ups)",
        grid: Grid { producers: 2, consumers: 2, slab: [4, 4, 4] },
        steps: 2000,
        transport: TransportKind::InProc,
        deep: false,
        chunks: 1,
        stream: false,
    },
    Workload {
        name: "stream_steps",
        why: "lowfive::stream, 1 async-serve producer -> 2 EveryStep consumers, 1 MiB/step: background serve thread, rotating slots, publish beside serve, drain poll; a sync-path gain that costs overlap mode shows",
        grid: Grid { producers: 1, consumers: 2, slab: [32, 64, 64] },
        steps: 3000,
        transport: TransportKind::InProc,
        deep: false,
        chunks: 1,
        stream: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed-derived inputs of one process: generated once, shared by all
/// of its trials.
pub struct Inputs {
    pub seed: u64,
    /// Per producer: its packed slab at step 0.
    pub bases: Vec<Bytes>,
    /// Per consumer: the boxes it reads each step.
    pub reads: Vec<Vec<BBox>>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64) -> Inputs {
        let g = &w.grid;
        Inputs {
            seed,
            bases: (0..g.producers).map(|p| g.base_slab(seed, p)).collect(),
            reads: (0..g.consumers).map(|c| g.consumer_chunks(seed, c, w.chunks)).collect(),
        }
    }
}

/// How much of each delivered buffer a trial compares with the
/// expectation inside its step loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verify {
    /// Every byte of every step (warm-up trials).
    Full,
    /// Length, step stamps and a strided sample per step, then every byte
    /// of the last step once the loop has ended — nothing that could
    /// skew a measured step.
    Sample,
}

/// Timestamps a producer takes per step; span `i` runs from mark `i` to
/// mark `i + 1` and carries `PRODUCER_SPANS[i]`.
pub const P_BEGIN: usize = 0;
/// The producer enters `file_close`: the step's exchange starts.
pub const P_WRITTEN: usize = 2;
/// `publish` returned (streaming; `file_close` returned otherwise).
pub const P_PUBLISHED: usize = 4;
pub const PRODUCER_SPANS: [&str; 4] =
    ["harness.prepare", "lowfive.create_write", "lowfive.close", "lowfive.stream.publish"];

/// Timestamps a consumer takes per step, as above.
pub const C_BEGIN: usize = 0;
/// The consumer's last `dataset_read` of the step returned.
pub const C_READ: usize = 3;
pub const CONSUMER_SPANS: [&str; 5] = [
    "lowfive.stream.next_step",
    "lowfive.open",
    "lowfive.read",
    "lowfive.consumer_close",
    "harness.verify",
];

/// What one rank thread brings back from a trial.
pub struct RankLog {
    pub world_rank: usize,
    pub producer: bool,
    /// Leaving the start barrier / leaving the step loop.
    pub start_ns: u64,
    pub end_ns: u64,
    /// `steps × width` timestamps, step-major.
    pub marks: Vec<u64>,
    pub width: usize,
    pub reads: u64,
    pub failed: u64,
    pub bytes_read: u64,
    pub profile: TransportProfile,
}

impl RankLog {
    fn new(tc: &TaskComm, steps: usize) -> RankLog {
        let producer = tc.task_id == 0;
        let width = if producer { PRODUCER_SPANS.len() } else { CONSUMER_SPANS.len() } + 1;
        RankLog {
            world_rank: tc.world.rank(),
            producer,
            start_ns: 0,
            end_ns: 0,
            marks: Vec::with_capacity(steps * width),
            width,
            reads: 0,
            failed: 0,
            bytes_read: 0,
            profile: TransportProfile::default(),
        }
    }

    pub fn steps(&self) -> usize {
        self.marks.len() / self.width
    }

    pub fn mark(&self, step: usize, i: usize) -> u64 {
        self.marks[step * self.width + i]
    }

    pub fn span_names(&self) -> &'static [&'static str] {
        if self.producer {
            &PRODUCER_SPANS
        } else {
            &CONSUMER_SPANS
        }
    }

    /// Compare the step's delivered buffers with the expectation and
    /// count them as reads.
    fn check(&mut self, w: &Workload, inputs: &Inputs, step: u64, full: bool, bufs: &[Bytes]) {
        let boxes = &inputs.reads[self.world_rank - w.grid.producers];
        self.reads += boxes.len() as u64;
        if bufs.len() != boxes.len() {
            self.failed += boxes.len() as u64;
            return;
        }
        for (bb, buf) in boxes.iter().zip(bufs) {
            self.bytes_read += buf.len() as u64;
            let ok = if full {
                w.grid.verify_full(inputs.seed, step, bb, buf)
            } else {
                w.grid.verify_sample(inputs.seed, step, bb, buf)
            };
            self.failed += u64::from(!ok);
        }
    }
}

/// One completed trial.
pub struct Trial {
    pub steps: usize,
    /// One log per rank, in world-rank order (producers first).
    pub logs: Vec<RankLog>,
    /// Point-to-point messages and payload bytes `simmpi` delivered.
    pub messages: u64,
    pub wire_bytes: u64,
    /// Process usage right before the world spawned and right after it
    /// joined.
    pub before: Usage,
    pub after: Usage,
    /// Share of the machine's CPU time the hypervisor gave to someone
    /// else while the trial ran.
    pub stolen_share: f64,
}

impl Trial {
    pub fn reads(&self) -> u64 {
        self.logs.iter().map(|l| l.reads).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    pub fn delivered_bytes(&self) -> u64 {
        self.logs.iter().map(|l| l.bytes_read).sum()
    }
}

/// Run `steps` steps of `w` in a fresh world.
pub fn run_trial(
    w: &Workload,
    inputs: &Inputs,
    steps: usize,
    verify: Verify,
    observe: Option<&obsv::Registry>,
) -> Trial {
    let g = &w.grid;
    let specs = [TaskSpec::new("producer", g.producers), TaskSpec::new("consumer", g.consumers)];
    let (before, machine_before) = (Usage::now(), MachineTime::now());
    let out = TaskWorld::run_observed_on(&specs, None, observe, w.transport, |tc| {
        bind_to_cpu(tc.world.rank());
        if tc.task_id == 0 {
            produce(w, inputs, steps, &tc)
        } else {
            consume(w, inputs, steps, verify, &tc)
        }
    });
    let after = Usage::now();
    Trial {
        steps,
        logs: out.results,
        messages: out.stats.messages,
        wire_bytes: out.stats.bytes,
        before,
        after,
        stolen_share: MachineTime::now().stolen_share_since(&machine_before),
    }
}

fn peer_ranks(tc: &TaskComm) -> Vec<usize> {
    let peer = 1 - tc.task_id;
    (0..tc.task_size(peer)).map(|r| tc.world_rank_of(peer, r)).collect()
}

fn producer_vol(w: &Workload, tc: &TaskComm) -> Arc<lowfive::DistMetadataVol> {
    let mut props = LowFiveProps::new();
    if w.deep {
        props.set_zerocopy("*", "*", false);
    }
    DistVolBuilder::new(tc.world.clone(), tc.local.clone())
        .props(props)
        .produce(file_pattern(w), peer_ranks(tc))
        .async_serve(w.stream)
        .build()
}

fn consumer_vol(w: &Workload, tc: &TaskComm) -> Arc<lowfive::DistMetadataVol> {
    DistVolBuilder::new(tc.world.clone(), tc.local.clone())
        .consume(file_pattern(w), peer_ranks(tc))
        .build()
}

const SERIES: &str = "stream.h5";

fn file_pattern(w: &Workload) -> &'static str {
    if w.stream {
        "stream.h5@s*"
    } else {
        "*"
    }
}

/// A file name no earlier step of the trial used: re-using one name on
/// the synchronous serve path wedges (a consumer's next metadata request
/// is answered from the previous snapshot by a producer still in the
/// earlier serve session).
fn step_file(w: &Workload, step: usize) -> String {
    format!("{}.{step}.h5", w.name)
}

/// Create `file`, write this producer's slab into it, and return the
/// still-open file with the time the last write returned.
fn write_step(
    w: &Workload,
    h5: &H5,
    file: &str,
    writes: Vec<(Selection, Bytes)>,
) -> H5Result<(minih5::H5File, u64)> {
    let f = h5.create_file(file)?;
    let d = f.create_dataset("grid", Datatype::UInt64, Dataspace::simple(&w.grid.dims()))?;
    for (sel, data) in writes {
        d.write_bytes(&sel, data, Ownership::Shallow)?;
    }
    drop(d);
    Ok((f, now_ns()))
}

/// A producer rank: per step one file — a slot of the series when
/// streaming — written, closed, and (streaming) published.
fn produce(w: &Workload, inputs: &Inputs, steps: usize, tc: &TaskComm) -> RankLog {
    let vol = producer_vol(w, tc);
    let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
    let p = tc.local.rank();
    let mut log = RankLog::new(tc, steps);
    tc.world.barrier();
    log.start_ns = now_ns();
    let publisher = w.stream.then(|| StepPublisher::new(vol.clone(), SERIES).expect("publisher"));
    for step in 0..steps {
        let begin = now_ns();
        let file = publisher.as_ref().map_or_else(|| step_file(w, step), StepPublisher::step_file);
        let writes = w.grid.step_writes(&inputs.bases[p], p, step as u64);
        let prepared = now_ns();
        let (f, written) = write_step(w, &h5, &file, writes).expect("producer write");
        f.close().expect("producer close (index, then serve or register)");
        let closed = now_ns();
        let published = publisher.as_ref().map_or(closed, |publisher| {
            publisher.publish().expect("publish");
            now_ns()
        });
        log.marks.extend([begin, prepared, written, closed, published]);
    }
    if let Some(publisher) = &publisher {
        assert!(publisher.finish(None), "every consumer acknowledged every step");
    }
    log.end_ns = now_ns();
    // Joins the async serve thread; nothing to do after synchronous serves.
    vol.drain();
    log.profile = vol.profile();
    log
}

/// Open `file`, read `sels` from its grid, close it. Returns the times
/// the open, the read and the close returned beside the outcome; after
/// an error the remaining times repeat the moment it surfaced.
fn read_step(h5: &H5, file: &str, sels: &[Selection]) -> ([u64; 3], H5Result<Vec<Bytes>>) {
    let mut at = [0; 3];
    let mut attempt = || {
        let f = h5.open_file(file)?;
        let d = f.open_dataset("grid")?;
        at[0] = now_ns();
        let bufs = match sels {
            [one] => vec![d.read_bytes(one)?],
            many => d.read_bytes_multi(many)?,
        };
        at[1] = now_ns();
        drop(d);
        f.close()?;
        at[2] = now_ns();
        Ok(bufs)
    };
    let out = attempt();
    if out.is_err() {
        let failed_at = now_ns();
        at.iter_mut().filter(|t| **t == 0).for_each(|t| *t = failed_at);
    }
    (at, out)
}

/// A consumer rank: per step open, read, close and check the file of
/// that step — streaming, the slot `next_step` announces.
fn consume(w: &Workload, inputs: &Inputs, steps: usize, verify: Verify, tc: &TaskComm) -> RankLog {
    let vol = consumer_vol(w, tc);
    let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
    let boxes = &inputs.reads[tc.world.rank() - w.grid.producers];
    let sels: Vec<Selection> = boxes.iter().map(BBox::to_selection).collect();
    let full = verify == Verify::Full;
    let mut log = RankLog::new(tc, steps);
    let mut last = Vec::new();
    tc.world.barrier();
    log.start_ns = now_ns();
    let mut subscription = w.stream.then(|| {
        StepSubscription::new(vol.clone(), SERIES, StepPolicy::EveryStep).expect("subscription")
    });
    loop {
        let step = log.steps();
        let begin = now_ns();
        // `stamp` is the step the file must hold. EveryStep + Block is
        // lossless and in order, so it is `step` unless an announce was
        // skipped or repeated — which then fails the step's reads.
        let (file, stamp, next) = match &mut subscription {
            Some(subscription) => match subscription.next_step().expect("next_step") {
                Some(announced) => (announced.file, announced.seq as usize, now_ns()),
                None => break,
            },
            None if step == steps => break,
            None => (step_file(w, step), step, begin),
        };
        let (at, out) = read_step(&h5, &file, &sels);
        last = out.unwrap_or_else(|e| {
            eprintln!("lfbench: {} rank {} step {step}: {e}", w.name, log.world_rank);
            Vec::new()
        });
        log.check(w, inputs, stamp as u64, full, &last);
        if stamp != step {
            log.failed += sels.len() as u64;
        }
        log.marks.extend([begin, next].into_iter().chain(at).chain([now_ns()]));
    }
    log.end_ns = now_ns();
    if log.steps() != steps {
        log.failed += (steps.abs_diff(log.steps()) * sels.len()) as u64;
    } else if !full && steps > 0 {
        // Every byte of the last step, outside any timed span.
        let (reads, bytes) = (log.reads, log.bytes_read);
        log.check(w, inputs, steps as u64 - 1, true, &last);
        (log.reads, log.bytes_read) = (reads, bytes);
    }
    log.profile = vol.profile();
    log
}
