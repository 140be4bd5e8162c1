//! Step-based streaming on top of the VOL: ADIOS-SST-style
//! publish/subscribe of timestep sequences.
//!
//! The base transport exchanges whole files — a producer closes a file,
//! consumers read it, everyone moves on. Iterative workflows want the
//! *series* shape instead: the producer emits snapshot after snapshot of
//! the same logical output, and consumers follow along at their own pace.
//! This module adds that shape without changing the data path at all:
//!
//! * A **series** is a logical name (say `"sim.h5"`). Each published step
//!   is an ordinary HDF5 file written through the VOL into a rotating
//!   *slot* (`sim.h5@s0`, `sim.h5@s1`, …, wrapping after
//!   `queue depth + 2` slots), so indexing, serving, zero-copy reads,
//!   and generation tags all apply to steps unmodified.
//! * A [`StepPublisher`] appends step announces to a bounded in-memory
//!   queue on every producer rank; [`StepPublisher::publish`] applies the
//!   series' back-pressure mode ([`BackPressure::Block`] waits for the
//!   slowest consumer, [`BackPressure::DropOldest`] evicts the oldest
//!   unconsumed step and keeps going).
//! * A [`StepSubscription`] polls its home producer with a
//!   [`StepPolicy`] — every step in order, always the latest, or in-order
//!   with a bounded skip — and acknowledges consumption cumulatively to
//!   *all* producer ranks (piggybacked on the poll for the home rank). A
//!   poll with nothing to deliver is *parked* at the producer and answered
//!   by the `publish` that makes a step selectable (or by `finish`), so a
//!   consumer never sleeps between polls. A late joiner starts from the
//!   oldest step the window still retains (`M_STEP_SUB` returns the window
//!   bounds).
//!
//! The control plane is three RPC methods of the serve loop
//! (`M_STEP_SUB`, `M_STEP_NEXT`, `M_STEP_ACK` — byte formats in
//! [`crate::protocol`] and `docs/PROTOCOL.md`; lifecycle diagrams in
//! `docs/STREAMING.md`). Streaming **requires** overlap mode
//! ([`crate::DistVolBuilder::async_serve`]): a producer that runs the
//! loop on its own rank thread, inside `file_close`, could never publish
//! the next step. There is one serve loop for both modes; a guard on
//! these three arms answers a sync-mode producer's subscriber with a
//! typed [`H5Error::Vol`], and [`StepPublisher::new`] refuses a sync-mode
//! VOL up front.
//!
//! ## Ordering contract
//!
//! On a multi-rank producer task, every rank must create the publisher,
//! write/close the slot files, and call [`StepPublisher::publish`] /
//! [`StepPublisher::finish`] in lockstep (the same sequence on every
//! rank), exactly like any other collective. Slot-file closes already
//! synchronize the ranks (the index exchange is an all-to-all), so by the
//! time any rank announces step *n*, every producer rank serves it.
//!
//! ## Back-pressure and slot reuse
//!
//! With `queue depth = c`, slots rotate through `c + 2` filenames, and a
//! step's slot is recreated (truncated, bumping the file generation) only
//! once the step `c + 2` sequence numbers ahead is being written. Under
//! [`BackPressure::Block`] a step leaves the window only after every
//! consumer acknowledged it, so the slot a producer truncates is always
//! fully consumed — the mode is lossless. Under
//! [`BackPressure::DropOldest`] an evicted step's slot can be truncated
//! while a straggling consumer still holds its announce; the read stays
//! memory-safe (it observes the recycled file), and the consumer can
//! *detect* the tear by comparing the generation its home producer
//! reported during the read against the announced one — see
//! [`StepSubscription::is_torn`].
//!
//! ## Example
//!
//! One producer rank streams three steps to one consumer:
//!
//! ```
//! use std::sync::Arc;
//! use lowfive::{DistVolBuilder, StepPolicy, StepPublisher, StepSubscription};
//! use minih5::{Dataspace, Datatype, Selection, Vol, H5};
//! use simmpi::{TaskSpec, TaskWorld};
//!
//! let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 1)];
//! TaskWorld::run(&specs, |tc| {
//!     if tc.task_id == 0 {
//!         let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
//!             .produce("sim.h5@s*", vec![1])
//!             .async_serve(true) // streaming requires overlap mode
//!             .build();
//!         let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
//!         let publisher = StepPublisher::new(vol.clone(), "sim.h5").unwrap();
//!         for t in 0..3u64 {
//!             let f = h5.create_file(&publisher.step_file()).unwrap();
//!             let d = f
//!                 .create_dataset("x", Datatype::UInt64, Dataspace::simple(&[4]))
//!                 .unwrap();
//!             d.write_selection(&Selection::block(&[0], &[4]), &[t, t, t, t]).unwrap();
//!             f.close().unwrap();
//!             publisher.publish().unwrap();
//!         }
//!         assert!(publisher.finish(None), "all steps consumed");
//!         vol.drain();
//!     } else {
//!         let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
//!             .consume("sim.h5@s*", vec![0])
//!             .build();
//!         let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
//!         let mut sub = StepSubscription::new(vol, "sim.h5", StepPolicy::EveryStep).unwrap();
//!         let mut seen = Vec::new();
//!         while let Some(step) = sub.next_step().unwrap() {
//!             let f = h5.open_file(&step.file).unwrap();
//!             let d = f.open_dataset("x").unwrap();
//!             seen.push(d.read_all::<u64>().unwrap()[0]);
//!             f.close().unwrap();
//!         }
//!         assert_eq!(seen, vec![0, 1, 2]);
//!     }
//! });
//! ```

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use diyblk::rpc::Caller;
use minih5::codec::Writer;
use minih5::{H5Error, H5Result};

use crate::dist::DistMetadataVol;
use crate::props::BackPressure;
pub use crate::protocol::StepPolicy;
use crate::protocol::*;

/// One delivered step, as returned by [`StepSubscription::next_step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Sequence number within the series (0-based, strictly increasing;
    /// gaps mean the policy or back-pressure skipped steps).
    pub seq: u64,
    /// Slot filename holding the step's datasets; open it through the
    /// same consume link as any other file.
    pub file: String,
    /// The slot file's generation at publish time (see
    /// [`StepSubscription::is_torn`]).
    pub gen: u64,
}

/// The slot filename of sequence number `seq` in a ring of `ring` slots.
fn slot_name(series: &str, slot: u64) -> String {
    format!("{series}@s{slot}")
}

/// One retained (published, not yet retired) step.
pub(crate) struct StepRecord {
    seq: u64,
    gen: u64,
    pub_ns: u64,
    file: String,
}

impl StepRecord {
    fn announce(&self) -> StepNextReply {
        StepNextReply::Step {
            seq: self.seq,
            file: self.file.clone(),
            gen: self.gen,
            pub_ns: self.pub_ns,
        }
    }
}

/// An `M_STEP_NEXT` that found nothing to deliver, held unanswered until
/// a `publish` makes a step selectable for it, `finish` ends the series,
/// or the serve thread exits.
struct ParkedPoll {
    caller: Caller,
    cursor: u64,
    policy: StepPolicy,
}

/// Per-series producer-side state: the bounded announce window, the
/// per-consumer cumulative cursors and the parked polls.
pub(crate) struct SeriesState {
    capacity: usize,
    mode: BackPressure,
    next_seq: u64,
    /// Retained steps, ascending by `seq`.
    window: VecDeque<StepRecord>,
    /// consumer world rank → cumulative cursor (every step below it is
    /// consumed by that rank). Initialized to 0 for every expected
    /// consumer, max-merged by idempotent `M_STEP_ACK`s.
    cursors: HashMap<usize, u64>,
    ended: bool,
    /// Polls waiting for the next publish, at most one per consumer rank.
    parked: Vec<ParkedPoll>,
}

impl SeriesState {
    fn new(capacity: usize, mode: BackPressure, consumers: &[usize]) -> Self {
        SeriesState {
            capacity,
            mode,
            next_seq: 0,
            window: VecDeque::new(),
            cursors: consumers.iter().map(|&r| (r, 0)).collect(),
            ended: false,
            parked: Vec::new(),
        }
    }

    fn min_cursor(&self) -> u64 {
        self.cursors.values().copied().min().unwrap_or(u64::MAX)
    }

    fn window_start(&self) -> u64 {
        self.window.front().map(|r| r.seq).unwrap_or(self.next_seq)
    }

    /// Max-merge consumer `rank`'s cumulative cursor (acks are idempotent).
    /// Returns whether the *slowest* cursor moved — the only move a
    /// blocked `publish` or a draining `finish` can act on; the caller
    /// then wakes them once it has released the stream lock.
    fn advance_cursor(&mut self, rank: usize, cursor: u64) -> bool {
        let slowest = self.min_cursor();
        let c = self.cursors.entry(rank).or_insert(0);
        *c = (*c).max(cursor);
        self.min_cursor() > slowest
    }

    /// Drop fully-consumed steps off the front of the window.
    fn retire(&mut self) {
        let min = self.min_cursor();
        while self.window.front().is_some_and(|r| r.seq < min) {
            self.window.pop_front();
        }
    }

    /// Drop consumer `rank`'s parked poll, if any; returns whether there
    /// was one.
    fn unpark(&mut self, rank: usize) -> bool {
        let before = self.parked.len();
        self.parked.retain(|p| p.caller.rank != rank);
        self.parked.len() != before
    }

    /// Take every parked poll that now selects a step, paired with the
    /// step its policy picks.
    fn wake(&mut self) -> Vec<(Caller, StepNextReply)> {
        let mut woken = Vec::new();
        self.parked.retain(|p| match select_step(&self.window, p.cursor, p.policy) {
            Some(r) => {
                woken.push((p.caller, r.announce()));
                false
            }
            None => true,
        });
        woken
    }
}

/// All streaming state held by one [`DistMetadataVol`].
#[derive(Default)]
pub(crate) struct StreamState {
    pub(crate) series: HashMap<String, SeriesState>,
    /// Slot files published at least once and not since recreated: the
    /// serve loop answers `M_METADATA` for these without a session
    /// (step files never enter the DONE-counted session map).
    pub(crate) serveable: HashSet<String>,
    /// Consumer side: series this rank has subscribed to.
    subscribed: HashSet<String>,
    /// `M_STEP_SUB`s for series not registered yet, as `(caller, series)`,
    /// at most one per consumer rank and series: answered by the
    /// [`StepPublisher::new`] that registers the series.
    parked_subs: Vec<(Caller, String)>,
}

impl StreamState {
    /// Is `name` a slot file of a series this rank publishes or
    /// subscribes to? (`<series>@s<digits>` with `<series>` registered.)
    pub(crate) fn is_step_file(&self, name: &str) -> bool {
        match name.rsplit_once("@s") {
            Some((series, digits)) => {
                !digits.is_empty()
                    && digits.bytes().all(|b| b.is_ascii_digit())
                    && (self.series.contains_key(series) || self.subscribed.contains(series))
            }
            None => false,
        }
    }
}

/// Producer half of a step series.
///
/// Create one per series (collectively, on every producer rank) after
/// building an overlap-mode VOL; then, per step: write the slot file named
/// by [`Self::step_file`] through the ordinary HDF5 API, close it, and
/// call [`Self::publish`]. Call [`Self::finish`] before
/// [`DistMetadataVol::drain`].
pub struct StepPublisher {
    vol: Arc<DistMetadataVol>,
    series: String,
    ring: u64,
}

impl StepPublisher {
    /// Register `series` on this producer rank and make sure the serve
    /// thread is answering subscribe requests.
    ///
    /// The queue depth and back-pressure mode come from the VOL's
    /// properties, matched against the *series* name
    /// ([`crate::LowFiveProps::set_stream_queue_depth`] /
    /// [`crate::LowFiveProps::set_stream_backpressure`]). Expected
    /// consumers are the ranks of the produce links matching the series'
    /// slot files.
    ///
    /// Errors if the VOL is not in overlap mode, if no produce link
    /// matches the slot files, or if the series already has a publisher.
    pub fn new(vol: Arc<DistMetadataVol>, series: &str) -> H5Result<Self> {
        if !vol.is_async_serve() {
            return Err(H5Error::Vol(
                "step streaming requires overlap mode (DistVolBuilder::async_serve)".into(),
            ));
        }
        let capacity = vol.props().stream_queue_depth_for(series);
        let mode = vol.props().stream_backpressure_for(series);
        let slot0 = slot_name(series, 0);
        let consumers = vol.consumers_for(&slot0);
        if consumers.is_empty() {
            return Err(H5Error::Vol(format!(
                "no produce link matches the step files of series {series:?} \
                 (declare e.g. .produce(\"{series}@s*\", …))"
            )));
        }
        let subscribers = {
            let mut st = vol.stream_state().lock();
            if st.series.contains_key(series) {
                return Err(H5Error::Vol(format!("series {series:?} already has a publisher")));
            }
            let s = SeriesState::new(capacity, mode, &consumers);
            let subscribers: Vec<(Caller, Writer)> = st
                .parked_subs
                .extract_if(.., |(_, name)| name == series)
                .map(|(c, _)| (c, result_frame(Ok(sub_reply(&s)))))
                .collect();
            st.series.insert(series.to_string(), s);
            subscribers
        };
        // Subscribes that arrived before the series was registered.
        for (caller, reply) in subscribers {
            diyblk::rpc::send_reply_frame(vol.world(), caller, reply);
        }
        // Subscribes may arrive before the first slot file closes; the
        // serve thread must be up to answer them.
        vol.ensure_serve_thread();
        Ok(StepPublisher { vol, series: series.to_string(), ring: capacity as u64 + 2 })
    }

    /// The slot filename the *next* step must be written to.
    ///
    /// Slots rotate through `queue depth + 2` names, so under
    /// [`BackPressure::Block`] a name is only ever recreated after the
    /// step previously in it was retired (acknowledged by every
    /// consumer) — see the module docs for the safety argument.
    pub fn step_file(&self) -> String {
        let st = self.vol.stream_state().lock();
        let seq = st.series[&self.series].next_seq;
        slot_name(&self.series, seq % self.ring)
    }

    /// Publish the step currently sitting in [`Self::step_file`] (which
    /// must have been written and closed): append it to the announce
    /// window and return its sequence number.
    ///
    /// When the window is full, [`BackPressure::Block`] waits here until
    /// the slowest consumer retires a step; [`BackPressure::DropOldest`]
    /// evicts the oldest retained step (counted under `steps_dropped`)
    /// and returns immediately. `steps_published` / `steps_dropped` are
    /// bumped on producer-local rank 0 only, so summed metrics stay exact
    /// for multi-rank producer tasks.
    ///
    /// Every parked poll the new step answers is answered from here,
    /// on this thread, after the stream lock is released.
    pub fn publish(&self) -> H5Result<u64> {
        let file = self.step_file();
        // The slot must hold a closed snapshot; its generation is what
        // consumers use to detect recycled slots.
        self.vol.metadata().file_meta(&file)?;
        let gen = self.vol.metadata().generation(&file);
        let pub_ns = obsv::clock::now_ns();
        let count_here = self.vol.local_comm().rank() == 0;
        let mut st = self.vol.stream_state().lock();
        loop {
            let s = st.series.get_mut(&self.series).expect("registered in new()");
            s.retire();
            if s.window.len() < s.capacity {
                break;
            }
            match s.mode {
                // Woken by the serve thread the moment the slowest
                // consumer's cursor moves (`advance_cursor`). Not a
                // sleep-and-poll: that makes the time spent here a whole
                // number of sleeps, which jumps between counts as the
                // consumers' step period drifts.
                BackPressure::Block => self.vol.stream_acked().wait(&mut st),
                BackPressure::DropOldest => {
                    s.window.pop_front();
                    if count_here {
                        obsv::counter_add(obsv::Ctr::StepsDropped, 1);
                    }
                    break;
                }
            }
        }
        let s = st.series.get_mut(&self.series).expect("registered in new()");
        let seq = s.next_seq;
        s.next_seq += 1;
        s.window.push_back(StepRecord { seq, gen, pub_ns, file: file.clone() });
        let woken = s.wake();
        // Serveable before any announce leaves: a woken consumer's
        // `M_METADATA` for the slot would otherwise park in
        // `pending_meta`, which only a close flushes.
        st.serveable.insert(file);
        drop(st);
        answer_polls(&self.vol, woken);
        if count_here {
            obsv::counter_add(obsv::Ctr::StepsPublished, 1);
        }
        Ok(seq)
    }

    /// Mark the series ended and wait (up to `grace`; `None` waits
    /// forever) until every expected consumer has acknowledged every
    /// published step. Returns whether the drain was clean — `false`
    /// means a consumer never caught up (it died, or never subscribed).
    ///
    /// Parked polls are answered `Ended` here, and subscribers polling
    /// past the end receive `Ended` and stop, so marking the end *first*
    /// cannot deadlock against a consumer still waiting for more steps.
    pub fn finish(&self, grace: Option<Duration>) -> bool {
        let deadline = grace.map(|g| std::time::Instant::now() + g);
        let (head, ended) = {
            let mut st = self.vol.stream_state().lock();
            let s = st.series.get_mut(&self.series).expect("registered in new()");
            s.ended = true;
            let head = s.next_seq;
            let parked = std::mem::take(&mut s.parked);
            (head, parked.into_iter().map(|p| (p.caller, StepNextReply::Ended { head })).collect())
        };
        answer_polls(&self.vol, ended);
        let mut st = self.vol.stream_state().lock();
        // Woken whenever the slowest cursor moves (`advance_cursor`).
        while st.series[&self.series].min_cursor() < head {
            match deadline {
                None => self.vol.stream_acked().wait(&mut st),
                Some(d) if std::time::Instant::now() >= d => return false,
                Some(d) => {
                    self.vol.stream_acked().wait_until(&mut st, d);
                }
            }
        }
        true
    }
}

/// Consumer half of a step series.
///
/// Construction subscribes to the consumer's *home* producer (the same
/// load-spreading choice file opens make) and starts at the oldest step
/// the window retains — a late joiner catches up from there. Iterate with
/// [`Self::next_step`]; acknowledgements are sent automatically.
pub struct StepSubscription {
    vol: Arc<DistMetadataVol>,
    series: String,
    policy: StepPolicy,
    producers: Vec<usize>,
    home: usize,
    cursor: u64,
    /// The step most recently delivered and not yet acknowledged.
    last: Option<u64>,
    done: bool,
}

impl StepSubscription {
    /// Subscribe to `series` under `policy`, blocking until the producer
    /// registers the series: the producer holds the subscribe and
    /// answers it from [`StepPublisher::new`]. The RPC policy configured
    /// for the series still bounds each attempt, so a dead producer
    /// surfaces as [`H5Error::PeerUnavailable`] instead of hanging
    /// forever, while a live one that is merely slow to start answers a
    /// re-sent subscribe at once.
    pub fn new(vol: Arc<DistMetadataVol>, series: &str, policy: StepPolicy) -> H5Result<Self> {
        let link = vol.consume_link_for(&slot_name(series, 0)).ok_or_else(|| {
            H5Error::Vol(format!(
                "no consume link matches the step files of series {series:?} \
                 (declare e.g. .consume(\"{series}@s*\", …))"
            ))
        })?;
        let home = link.home(vol.local_comm().rank())?;
        let producers = link.remote_ranks.clone();
        let window_start = loop {
            let reply = vol.call_producer(series, home, &Request::StepSub { series })?;
            match dec_result(&reply) {
                Ok(body) => break StepSubReply::decode(&body)?.window_start,
                // The producer's answer to a re-sent subscribe (our retry
                // policy gave up on the one it holds): the series is not
                // registered yet. Ask again at once; that request is held.
                Err(H5Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        };
        vol.stream_state().lock().subscribed.insert(series.to_string());
        Ok(StepSubscription {
            vol,
            series: series.to_string(),
            policy,
            producers,
            home,
            cursor: window_start,
            last: None,
            done: false,
        })
    }

    /// The producer world rank this subscription polls.
    pub fn home(&self) -> usize {
        self.home
    }

    /// Deliver the next step under the subscription's policy, or `None`
    /// once the series has ended and nothing remains to deliver.
    ///
    /// Calling `next_step` again acknowledges the previously delivered
    /// step (cumulatively and idempotently, so a retried ack is
    /// harmless): the home producer learns the new cursor from the
    /// `M_STEP_NEXT` poll itself, the other producer ranks from an
    /// explicit `M_STEP_ACK`. A poll with nothing to deliver is held by
    /// the producer until a step, or the end of the series, is announced;
    /// without an RPC policy this call blocks until then. With one, the
    /// producer answers a re-sent poll `Pending` at once, and the poll
    /// repeats without a pause, so only a dead or stopped producer
    /// exhausts the attempts.
    ///
    /// The ack-before-poll ordering matters for shutdown: a producer may
    /// exit the moment its last owed ack arrives, so the consumer must
    /// never send it anything *after* the message that completes its
    /// drain. Piggybacking the home ack on the poll — and, at the end of
    /// the series, acking only when the cursor is still behind the head —
    /// keeps every producer alive until it has replied to the consumer's
    /// final message to it.
    pub fn next_step(&mut self) -> H5Result<Option<Step>> {
        if self.done {
            return Ok(None);
        }
        if let Some(s) = self.last.take() {
            self.cursor = self.cursor.max(s + 1);
            self.ack_others(self.cursor)?;
        }
        loop {
            let poll = Request::StepNext {
                series: &self.series,
                cursor: self.cursor,
                policy: self.policy,
            };
            let reply = self.vol.call_producer(&self.series, self.home, &poll)?;
            match StepNextReply::decode(&dec_result(&reply)?)? {
                // We asked again while parked; the next poll parks.
                StepNextReply::Pending => {}
                StepNextReply::Step { seq, file, gen, pub_ns } => {
                    obsv::counter_add(obsv::Ctr::StepsLagged, seq.saturating_sub(self.cursor));
                    obsv::hist_record(
                        obsv::Hist::StepLatencyNs,
                        obsv::clock::now_ns().saturating_sub(pub_ns),
                    );
                    // Prime the fetch cache's generation record so reads
                    // of a recycled slot invalidate stale cached lookups.
                    self.vol.note_gen(&file, self.home, gen);
                    self.last = Some(seq);
                    self.cursor = seq;
                    return Ok(Some(Step { seq, file, gen }));
                }
                StepNextReply::Ended { head } => {
                    // Every producer already holds `self.cursor` (home
                    // from the poll above, the rest from `ack_others`).
                    // If that cursor is the head, nothing is owed — and a
                    // producer whose drain condition was just met may
                    // already be gone, so a redundant ack could block on
                    // a dead serve loop.
                    if self.cursor < head {
                        self.ack_all(head)?;
                        self.cursor = head;
                    }
                    self.done = true;
                    return Ok(None);
                }
            }
        }
    }

    /// Did the slot behind `step` get recycled while we were reading it?
    ///
    /// Only possible under [`BackPressure::DropOldest`] (see the module
    /// docs). Call after reading the step's data: compares the generation
    /// the home producer reported during those reads against the
    /// announced one. A torn step's data belongs (partly) to a newer
    /// step — discard it and move on.
    pub fn is_torn(&self, step: &Step) -> bool {
        self.vol.noted_gen(&step.file, self.home).is_some_and(|g| g != step.gen)
    }

    /// Ack `cursor` to every producer rank in `to` at once: one
    /// `M_STEP_ACK` each, every reply awaited, the first error returned.
    fn ack(&self, to: impl Iterator<Item = usize>, cursor: u64) -> H5Result<()> {
        let to: Vec<usize> = to.collect();
        let ack = Request::StepAck { series: &self.series, cursor };
        self.vol.call_producers(&self.series, &to, &ack)
    }

    fn ack_all(&self, cursor: u64) -> H5Result<()> {
        self.ack(self.producers.iter().copied(), cursor)
    }

    /// Ack every producer rank except home (which learns the cursor from
    /// the `M_STEP_NEXT` polls themselves).
    fn ack_others(&self, cursor: u64) -> H5Result<()> {
        self.ack(self.producers.iter().copied().filter(|&p| p != self.home), cursor)
    }
}

// ---------------------------------------------------------------------
// Serve-side handlers (run on the overlap-mode serve thread; the serve
// loop's guard keeps a sync-mode producer from reaching them)
// ---------------------------------------------------------------------

/// The `M_STEP_SUB` reply body: the series' retained window bounds.
fn sub_reply(s: &SeriesState) -> Writer {
    StepSubReply { window_start: s.window_start(), next_seq: s.next_seq, ended: s.ended }.encode()
}

/// Answer `M_STEP_SUB`: the series' retained window bounds. A subscribe
/// for a series not registered yet is parked (`None`: no reply now) and
/// answered by the [`StepPublisher::new`] that registers it. A re-sent
/// subscribe that finds one parked replaces it and is answered
/// `NotFound` at once, so a consumer under a retry policy hears from a
/// live producer once per timeout; it asks again, and that one parks.
pub(crate) fn serve_step_sub(vol: &DistMetadataVol, caller: Caller, series: &str) -> Option<Bytes> {
    let mut st = vol.stream_state().lock();
    let before = st.parked_subs.len();
    st.parked_subs.retain(|(c, name)| !(c.rank == caller.rank && name == series));
    let resent = st.parked_subs.len() != before;
    match st.series.get(series) {
        Some(s) => Some(result_frame(Ok(sub_reply(s))).finish()),
        None if resent => Some(enc_result(Err(H5Error::NotFound(series.to_string())))),
        None => {
            st.parked_subs.push((caller, series.to_string()));
            None
        }
    }
}

/// Answer `M_STEP_NEXT` from consumer `caller`: select a retained step
/// under the requested policy, or report the end of the series. With
/// neither to report the poll is parked (`None`: no reply now) until
/// `publish` or `finish` answers it. The request's cursor doubles as a
/// piggybacked ack (max-merged like `M_STEP_ACK`), so a consumer never
/// owes its home producer a separate ack message.
///
/// A poll that finds one of the same consumer's parked replaces it and,
/// with nothing to deliver, is answered `Pending` at once: the consumer
/// re-sent because its retry policy gave up on the parked one, and
/// hearing back is what tells it the producer is alive. Its next poll
/// parks.
pub(crate) fn serve_step_next(
    vol: &DistMetadataVol,
    caller: Caller,
    series: &str,
    cursor: u64,
    policy: StepPolicy,
) -> Option<Bytes> {
    let (moved, chosen) = {
        let mut st = vol.stream_state().lock();
        let Some(s) = st.series.get_mut(series) else {
            return Some(enc_result(Err(H5Error::NotFound(series.to_string()))));
        };
        // The ack goes in before the poll can park: it may be what wakes a
        // `publish` blocked on a full window, and that publish is what
        // answers the parked poll.
        let moved = s.advance_cursor(caller.rank, cursor);
        let repoll = s.unpark(caller.rank);
        let chosen = match select_step(&s.window, cursor, policy) {
            Some(r) => Some(r.announce()),
            None if s.ended => Some(StepNextReply::Ended { head: s.next_seq }),
            None if repoll => Some(StepNextReply::Pending),
            None => {
                s.parked.push(ParkedPoll { caller, cursor, policy });
                None
            }
        };
        (moved, chosen)
    };
    wake_acked(vol, moved);
    chosen.map(|reply| result_frame(Ok(reply.encode())).finish())
}

/// After the slowest cursor of a series `moved`, wake the `publish`
/// blocked on a full window and the `finish` waiting for acks. Called
/// with the stream lock released — the cursor moved under it, so no
/// waiter can miss the wake-up: a waiter woken under the lock would only
/// preempt the serve thread to block on the lock again.
fn wake_acked(vol: &DistMetadataVol, moved: bool) {
    if moved {
        vol.stream_acked().notify_all();
    }
}

/// Answer parked polls of `series` from the calling thread. Called with
/// the stream lock released: a socket send can block on a full link
/// while the serve thread waits for that lock.
fn answer_polls(vol: &DistMetadataVol, polls: Vec<(Caller, StepNextReply)>) {
    for (caller, reply) in polls {
        diyblk::rpc::send_reply_frame(vol.world(), caller, result_frame(Ok(reply.encode())));
    }
}

/// The overlap serve thread has exited: fail every parked subscribe and
/// poll with [`H5Error::PeerUnavailable`]. Never `Ended`: a consumer that
/// saw `Ended` behind the head would ack producers whose serve loops are
/// gone (the shutdown-ordering rule in `docs/PROTOCOL.md`).
pub(crate) fn fail_parked(vol: &DistMetadataVol) {
    let orphaned: Vec<(Caller, String)> = {
        let mut st = vol.stream_state().lock();
        let mut orphaned = std::mem::take(&mut st.parked_subs);
        for (series, s) in &mut st.series {
            orphaned.extend(s.parked.drain(..).map(|p| (p.caller, series.clone())));
        }
        orphaned
    };
    let me = vol.world().rank();
    for (caller, series) in orphaned {
        let e = H5Error::PeerUnavailable(format!(
            "producer world rank {me} stopped serving series {series:?} before it ended"
        ));
        diyblk::rpc::send_reply(vol.world(), caller, enc_result(Err(e)));
    }
}

/// Apply `M_STEP_ACK` from consumer world rank `rank`: max-merge its
/// cumulative cursor. Unknown series are acked anyway — a late duplicate
/// after a restart carries no information worth erroring on.
pub(crate) fn serve_step_ack(vol: &DistMetadataVol, rank: usize, series: &str, cursor: u64) {
    let mut st = vol.stream_state().lock();
    let moved = st.series.get_mut(series).is_some_and(|s| s.advance_cursor(rank, cursor));
    drop(st);
    wake_acked(vol, moved);
}

/// Pick the step a consumer at `cursor` should receive, or `None` when
/// nothing at or past the cursor is retained. `window` ascends by `seq`.
fn select_step(
    window: &VecDeque<StepRecord>,
    cursor: u64,
    policy: StepPolicy,
) -> Option<&StepRecord> {
    let mut avail = window.iter().filter(|r| r.seq >= cursor);
    match policy {
        StepPolicy::EveryStep => avail.next(),
        StepPolicy::LatestStep => avail.next_back(),
        StepPolicy::SkipOk(skip) => {
            // The newest step within `cursor + skip`, else the oldest
            // available (the consumer has been outrun; jump to the window
            // start rather than past it).
            let limit = cursor.saturating_add(skip);
            let mut first = None;
            let mut best = None;
            for r in avail {
                if first.is_none() {
                    first = Some(r);
                }
                if r.seq <= limit {
                    best = Some(r);
                }
            }
            best.or(first)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(seqs: &[u64]) -> VecDeque<StepRecord> {
        seqs.iter()
            .map(|&seq| StepRecord { seq, gen: seq + 1, pub_ns: 0, file: slot_name("s", seq % 6) })
            .collect()
    }

    #[test]
    fn select_every_is_in_order() {
        let w = window(&[3, 4, 5, 6]);
        assert_eq!(select_step(&w, 0, StepPolicy::EveryStep).unwrap().seq, 3);
        assert_eq!(select_step(&w, 5, StepPolicy::EveryStep).unwrap().seq, 5);
        assert!(select_step(&w, 7, StepPolicy::EveryStep).is_none());
    }

    #[test]
    fn select_latest_takes_newest() {
        let w = window(&[3, 4, 5, 6]);
        assert_eq!(select_step(&w, 0, StepPolicy::LatestStep).unwrap().seq, 6);
        assert_eq!(select_step(&w, 6, StepPolicy::LatestStep).unwrap().seq, 6);
        assert!(select_step(&w, 7, StepPolicy::LatestStep).is_none());
    }

    #[test]
    fn select_skip_ok_bounds_the_jump() {
        let w = window(&[3, 4, 5, 6]);
        // Within range: newest step not past cursor + skip.
        assert_eq!(select_step(&w, 3, StepPolicy::SkipOk(2)).unwrap().seq, 5);
        // Exactly in order when skip is 0.
        assert_eq!(select_step(&w, 4, StepPolicy::SkipOk(0)).unwrap().seq, 4);
        // Outrun: cursor + skip falls before the window — take its start.
        assert_eq!(select_step(&w, 0, StepPolicy::SkipOk(1)).unwrap().seq, 3);
        assert!(select_step(&w, 7, StepPolicy::SkipOk(3)).is_none());
    }

    #[test]
    fn step_file_names_are_recognized() {
        let mut st = StreamState::default();
        st.series.insert("sim.h5".to_string(), SeriesState::new(2, BackPressure::Block, &[]));
        assert!(st.is_step_file("sim.h5@s0"));
        assert!(st.is_step_file("sim.h5@s12"));
        assert!(!st.is_step_file("sim.h5"), "series name itself is not a slot");
        assert!(!st.is_step_file("other.h5@s0"), "unregistered series");
        assert!(!st.is_step_file("sim.h5@sx"), "suffix must be digits");
        assert!(!st.is_step_file("sim.h5@s"), "suffix must be non-empty");
        // A subscriber recognizes the slots of its series the same way.
        st.subscribed.insert("viz.h5".to_string());
        assert!(st.is_step_file("viz.h5@s3"));
    }

    #[test]
    fn retire_honors_the_slowest_cursor() {
        let mut s = SeriesState::new(4, BackPressure::Block, &[8, 9]);
        s.next_seq = 7;
        s.window = window(&[3, 4, 5, 6]);
        s.cursors.extend([(8, 5u64), (9, 4u64)]);
        s.retire();
        let left: Vec<u64> = s.window.iter().map(|r| r.seq).collect();
        assert_eq!(left, vec![4, 5, 6], "rank 9 still needs step 4");
        assert_eq!(s.window_start(), 4);
        // Acks are cumulative and idempotent: a late duplicate of an older
        // cursor moves nothing back, a newer one retires what it covers.
        assert!(!s.advance_cursor(9, 2), "a stale ack moves nothing");
        assert_eq!(s.min_cursor(), 4);
        assert!(s.advance_cursor(9, 6), "the slowest consumer moved");
        assert!(!s.advance_cursor(9, 7), "the slowest is now rank 8, still at 5");
        s.retire();
        assert_eq!(s.window_start(), 5, "rank 8 still needs step 5");
        // No consumers at all: nothing ever blocks retirement.
        s.cursors.clear();
        s.retire();
        assert_eq!(s.window_start(), s.next_seq);
    }

    #[test]
    fn parked_polls_wake_with_their_policy_pick() {
        let mut s = SeriesState::new(4, BackPressure::Block, &[1, 2, 3, 4]);
        let park = |rank, cursor, policy| ParkedPoll {
            caller: Caller { rank, call_id: 100 + rank as u64 },
            cursor,
            policy,
        };
        s.parked.push(park(1, 3, StepPolicy::EveryStep));
        s.parked.push(park(2, 3, StepPolicy::LatestStep));
        s.parked.push(park(3, 3, StepPolicy::SkipOk(1)));
        s.parked.push(park(4, 6, StepPolicy::EveryStep));
        assert!(s.wake().is_empty(), "nothing retained yet");
        s.window = window(&[3, 4, 5]);
        let seqs: Vec<(usize, u64)> = s
            .wake()
            .into_iter()
            .map(|(c, r)| match r {
                StepNextReply::Step { seq, .. } => (c.rank, seq),
                other => panic!("rank {} woken with {other:?}", c.rank),
            })
            .collect();
        assert_eq!(seqs, vec![(1, 3), (2, 5), (3, 4)], "each poll gets its policy's pick");
        // The poll ahead of the window stays parked until a step reaches it.
        assert!(s.wake().is_empty());
        assert!(s.unpark(4));
        assert!(!s.unpark(4), "one parked poll per consumer rank");
    }

    // -----------------------------------------------------------------
    // One producer rank streaming to two consumer ranks, with the
    // producer acting only once it sees the requests it expects parked.
    // -----------------------------------------------------------------

    use minih5::{Dataspace, Datatype, Selection, Vol, H5};
    use simmpi::{TaskComm, TaskSpec, TaskWorld};

    use crate::DistVolBuilder;

    /// Run `f` on world rank 0 (producer) and ranks 1, 2 (consumers),
    /// failing if the world does not finish within 30 s.
    fn one_to_two<R: Send + 'static>(f: fn(TaskComm) -> R) -> Vec<R> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 2)];
            let _ = tx.send(TaskWorld::run(&specs, f));
        });
        rx.recv_timeout(Duration::from_secs(30)).expect("the world hung (or a rank panicked)")
    }

    fn vol_for(tc: &TaskComm) -> Arc<DistMetadataVol> {
        let b = DistVolBuilder::new(tc.world.clone(), tc.local.clone());
        match tc.task_id {
            0 => b.produce("*@s*", vec![1, 2]).async_serve(true).build(),
            _ => b.consume("*@s*", vec![0]).build(),
        }
    }

    fn publish_step(vol: &Arc<DistMetadataVol>, publisher: &StepPublisher) -> u64 {
        let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
        let f = h5.create_file(&publisher.step_file()).expect("create slot");
        f.create_dataset("x", Datatype::UInt8, Dataspace::simple(&[1]))
            .expect("dataset")
            .write_selection(&Selection::all(), &[7u8])
            .expect("write");
        f.close().expect("close slot");
        publisher.publish().expect("publish")
    }

    /// Wait until the producer holds `polls` parked polls of `series` and
    /// `subs` parked subscribes.
    fn await_parked(vol: &DistMetadataVol, series: &str, polls: usize, subs: usize) {
        loop {
            {
                let st = vol.stream_state().lock();
                if st.series[series].parked.len() == polls && st.parked_subs.len() == subs {
                    return;
                }
            }
            std::thread::yield_now();
        }
    }

    /// `LatestStep` and `SkipOk(n)` polls, each parked before every
    /// publish, are answered with what their policy selects at publish
    /// time: the step just published.
    #[test]
    fn parked_latest_and_skip_ok_polls_get_the_published_step() {
        let seen = one_to_two(|tc| {
            let vol = vol_for(&tc);
            if tc.task_id == 0 {
                let publisher = StepPublisher::new(vol.clone(), "sim.h5").expect("publisher");
                for n in 0..4 {
                    await_parked(&vol, "sim.h5", 2, 0);
                    assert_eq!(publish_step(&vol, &publisher), n);
                }
                assert!(publisher.finish(None));
                vol.drain();
                return Vec::new();
            }
            let policy = [StepPolicy::LatestStep, StepPolicy::SkipOk(2)][tc.local.rank()];
            let mut sub = StepSubscription::new(vol, "sim.h5", policy).expect("subscribe");
            std::iter::from_fn(|| sub.next_step().expect("next step")).map(|s| s.seq).collect()
        });
        assert_eq!(seen[1], vec![0, 1, 2, 3], "LatestStep");
        assert_eq!(seen[2], vec![0, 1, 2, 3], "SkipOk(2)");
    }

    /// A producer that drains without `finish` fails the poll and the
    /// subscribe it holds with `PeerUnavailable`: never `Ended` (which
    /// would send the consumer acking a serve loop that is gone), never
    /// silence.
    #[test]
    fn drain_without_finish_fails_parked_requests() {
        let errors = one_to_two(|tc| {
            let vol = vol_for(&tc);
            match tc.world.rank() {
                0 => {
                    let publisher = StepPublisher::new(vol.clone(), "sim.h5").expect("publisher");
                    publish_step(&vol, &publisher);
                    await_parked(&vol, "sim.h5", 1, 1);
                    vol.drain();
                    None
                }
                1 => {
                    let mut sub = StepSubscription::new(vol, "sim.h5", StepPolicy::EveryStep)
                        .expect("subscribe");
                    assert_eq!(sub.next_step().expect("step 0").map(|s| s.seq), Some(0));
                    sub.next_step().err()
                }
                // A series the producer never registers.
                _ => StepSubscription::new(vol, "never.h5", StepPolicy::EveryStep).err(),
            }
        });
        for (who, err) in [("poll", &errors[1]), ("subscribe", &errors[2])] {
            let err = err.as_ref().expect("the parked request must fail");
            assert!(
                matches!(err, H5Error::PeerUnavailable(m) if m.contains("stopped serving")),
                "parked {who}: {err}"
            );
        }
    }
}
