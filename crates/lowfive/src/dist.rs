//! The distributed metadata VOL: in situ transport between tasks.
//!
//! Paper §III-A(c): "the distributed metadata VOL class … redefine\[s\] HDF5
//! functions that potentially access remote processes, e.g., in order to
//! transfer data over MPI from the processes of a producer task to the
//! processes of a consumer task. … We implement distributed client-server
//! connections between the processes of a consumer task reading data and a
//! producer task writing data."
//!
//! Lifecycle on the producer side: writes accumulate in the metadata
//! layer's tree; `file_close` triggers **index** (Algorithm 1 — producers
//! exchange region bounding boxes according to the common decomposition)
//! and then **serve** (Algorithm 2 — answer consumer queries until every
//! consumer rank reports done). At that point the file is **retired**: its
//! tree, index entry and generation are dropped, unless
//! [`LowFiveProps::set_keep`] opts it out (see `docs/ARCHITECTURE.md`,
//! "File lifecycle").
//!
//! Lifecycle on the consumer side: `file_open` fetches the serialized
//! metadata tree from a producer rank; `dataset_read` runs **query**
//! (Algorithm 3). Its redirect rides on the data query: the producers
//! owning the selection's common-decomposition blocks send what they hold
//! *and* report, from their index, who holds the rest, which a second
//! round fetches only when the data's decomposition is misaligned with
//! the common one. Owners are cached, so a repeat read is one round.
//! `file_close` notifies every producer at once and drops everything
//! this rank imported or cached for the file.
//!
//! Fan-in and fan-out are expressed as [`Link`]s: a task may produce some
//! file patterns and consume others, with any number of peer tasks.
//!
//! Data replies are served **zero-copy**: the serve loop lends refcounted
//! sub-slices of the producer's regions into a multi-part [`ReplyFrame`]
//! instead of gathering them into an intermediate blob, and consumers
//! scatter the reply parts straight into the destination buffer with a
//! [`PayloadReader`]. Shallow and deep regions are lent alike: ownership
//! (`set_zerocopy`) only decides whether a write copies its buffer into
//! the VOL. Every reply also carries the file's
//! write *generation*, which consumers use to invalidate their fetch
//! caches when a producer rewrites a file in place.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use diyblk::rpc::{Call, Caller, RpcClient, RpcError, RpcServer, ServeOutcome};
use diyblk::{RegularDecomposer, RetryPolicy};
use minih5::codec::Writer;
use minih5::format::{import_meta, FileMeta};
use minih5::selection::{for_each_overlap, OverlapRun};
use minih5::{
    BBox, DataRegion, Dataspace, Datatype, H5Error, H5Result, Hierarchy, NodeId, ObjId, ObjKind,
    Ownership, Selection, Vol,
};
use simmpi::{BufPool, Comm, Payload, TransportKind};

use crate::metadata::{slot_for, MetadataVol};
use crate::props::{glob_match, LowFiveProps};
use crate::protocol::*;
use crate::readbuf::{Fetch, ReadBuf, Round};

/// Direction of a workflow link, from this task's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDir {
    /// This task writes files matching the pattern; the remote ranks
    /// consume them.
    Produce,
    /// This task reads files matching the pattern; the remote ranks
    /// produce them.
    Consume,
}

/// One edge of the workflow task graph.
#[derive(Debug, Clone)]
pub struct Link {
    /// File-name glob selecting which files travel on this link.
    pub pattern: String,
    /// Whether this rank produces or consumes on the link.
    pub dir: LinkDir,
    /// World ranks of the remote task's processes.
    pub remote_ranks: Vec<usize>,
}

impl Link {
    /// The remote rank that local rank `local_rank` sends its requests
    /// to, spreading the local task across the remote one. A link that
    /// lists no remote ranks has none: an error naming its pattern.
    pub(crate) fn home(&self, local_rank: usize) -> H5Result<usize> {
        local_rank
            .checked_rem(self.remote_ranks.len())
            .map(|i| self.remote_ranks[i])
            .ok_or_else(|| H5Error::Vol(format!("link {:?} lists no remote ranks", self.pattern)))
    }
}

/// Ids of objects opened over a Consume link carry this bit; all other ids
/// belong to the local metadata layer.
const REMOTE_BIT: ObjId = 1 << 63;

#[derive(Clone)]
struct RemoteEntry {
    node: NodeId,
    filename: Arc<str>,
    path: String,
}

#[derive(Default)]
struct RemoteState {
    hier: Hierarchy,
    /// Open consumed files → index of the Consume link they arrived on.
    files: HashMap<Arc<str>, usize>,
    entries: HashMap<ObjId, RemoteEntry>,
    next: ObjId,
}

impl RemoteState {
    fn mint(&mut self) -> ObjId {
        self.next += 1;
        self.next | REMOTE_BIT
    }

    fn entry(&self, id: ObjId) -> H5Result<&RemoteEntry> {
        self.entries.get(&id).ok_or(H5Error::InvalidHandle(id))
    }
}

/// Fine-grained transport profile (paper §V-C: "profiling our
/// communication at finer grain"). Producer-side phases (index, serve)
/// and consumer-side phases (open, redirect, fetch) are timed and counted
/// separately; snapshot with [`DistMetadataVol::profile`].
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TransportProfile {
    /// Seconds spent in the index exchange (Algorithm 1).
    pub index_seconds: f64,
    /// Bounding boxes recorded in the serve index.
    pub index_boxes: u64,
    /// Seconds spent serving consumers (Algorithm 2), including waiting.
    pub serve_seconds: f64,
    /// Completed serve sessions (one per produced file).
    pub serve_sessions: u64,
    /// `M_METADATA` requests answered.
    pub metadata_requests: u64,
    /// Owner lookups answered (the redirect of Algorithm 3): one per
    /// `M_DATA_BATCH` entry, since every entry's reply carries its owners.
    pub intersect_requests: u64,
    /// Data query entries answered: one per `(dataset, selection)` entry
    /// of every `M_DATA_BATCH`.
    pub data_requests: u64,
    /// Payload bytes shipped in data replies.
    pub bytes_served: u64,
    /// Consumer: seconds blocked in remote file opens.
    pub open_seconds: f64,
    /// Consumer: seconds routing queries — owner-cache lookups and the
    /// common-decomposition targets of uncached selections.
    pub redirect_seconds: f64,
    /// Consumer: seconds in the data rounds, scatter included.
    pub fetch_seconds: f64,
    /// Payload bytes received in data replies.
    pub bytes_fetched: u64,
}

/// One open serve session: a closed file its consumers are still reading.
struct Session {
    /// Consumer DONEs the session waits for.
    expected: usize,
    /// Distinct consumer ranks heard from. Ranks, not message counts: a
    /// consumer whose ack was lost retransmits DONE, and a duplicate must
    /// not close the session early.
    done: HashSet<usize>,
    /// Root of the snapshot being served, so that retiring it cannot hit
    /// a later incarnation of the same name.
    root: NodeId,
    /// The file's index is published: its metadata may be handed out. A
    /// session is registered before its index, so that no DONE can
    /// arrive ahead of it, and answers metadata only from here on.
    indexed: bool,
}

/// Book-keeping of the serve loop, the same table in both modes: sync
/// mode holds one open session at a time (the close that registered it
/// serves it to the end), overlap mode as many as the producer has run
/// ahead by.
#[derive(Default)]
struct Sessions {
    open: HashMap<String, Session>,
    /// Files fully served and kept ([`LowFiveProps::set_keep`]): safe to
    /// keep answering reads for.
    completed: HashSet<String>,
    /// drain() was requested: the overlap thread exits once `open` empties.
    draining: bool,
}

impl Sessions {
    /// May the serve loop return? Sync mode serves until no session is
    /// open; the overlap thread additionally waits for [`DistMetadataVol::drain`].
    fn finished(&self, overlap: bool) -> bool {
        self.open.is_empty() && (self.draining || !overlap)
    }
}

/// The index of one served file: `dataset → [(bounding box, producer
/// local rank)]` — the paper's `boxes[file, dset]` of Algorithm 1 line
/// 11. Immutable once published.
#[derive(Default)]
struct FileIndex {
    boxes: HashMap<String, Vec<(BBox, usize)>>,
}

impl FileIndex {
    /// The ranks whose boxes of `dset` the query hits (`hit` says which),
    /// each once, in first-hit order, into `out` (cleared first). A
    /// dataset lists a box or a few per producer, so a scan of `out`
    /// dedups them.
    fn owners_into(&self, dset: &str, hit: impl Fn(&BBox) -> bool, out: &mut Vec<usize>) {
        out.clear();
        for (bb, rank) in self.boxes.get(dset).into_iter().flatten() {
            if hit(bb) && !out.contains(rank) {
                out.push(*rank);
            }
        }
    }
}

/// Per-file state a rank currently holds, as counted by
/// [`DistMetadataVol::retained`]. With `keep` off every field stays
/// O(files open or being served), however many files came before.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Retained {
    /// In-memory trees: files this rank produced and has not retired,
    /// plus files it has open as a consumer.
    pub files: usize,
    /// Files with an entry in the producer's serve index.
    pub index_files: usize,
    /// Node slots of both tree arenas (their high-water mark of
    /// simultaneously live nodes).
    pub arena_nodes: usize,
    /// Files with a generation entry: produced files (their write
    /// generation) plus consumed files (what their producers reported).
    pub gens: usize,
}

/// The serve path's hot counters: the request/byte tallies every
/// `M_METADATA`/`M_DATA_BATCH` handler bumps. Relaxed
/// atomics, so a handler never takes the `TransportProfile` mutex (the
/// cold per-phase seconds stay there) and [`DistMetadataVol::profile`]
/// can be polled from another thread while the loop runs.
#[derive(Default)]
struct HotCounters {
    metadata_requests: AtomicU64,
    intersect_requests: AtomicU64,
    data_requests: AtomicU64,
    bytes_served: AtomicU64,
}

/// `dataset path → query bbox →` producer-local indices the block owners
/// reported as holding data inside the box, for one consumed file.
type FileOwners = HashMap<String, HashMap<BBox, Vec<usize>>>;

/// Consumer-side cache of remote lookups, so repeated reads of the same
/// region skip the metadata round trip and the redirect. Every
/// entry for a file is dropped at `file_close`, so reopening a (possibly
/// rewritten) snapshot always refetches.
#[derive(Default)]
struct FetchCache {
    /// filename → serialized metadata tree fetched at `consumer_open`.
    /// The open file's name is shared by every per-file map of the
    /// consumer, so caching a file costs no copy of its name.
    meta: HashMap<Arc<str>, FileMeta>,
    /// `file →` its [`FileOwners`].
    owners: HashMap<Arc<str>, FileOwners>,
    /// `file → producer world rank →` the generation that producer last
    /// reported for the file. Every reply (metadata, data)
    /// carries the serving file's live generation; when a producer
    /// reports one that differs from what it reported before, the file
    /// was rewritten in place and every cached lookup for it is dropped
    /// (see [`DistMetadataVol::note_gen`]). Dropped at `file_close`,
    /// except for stream slots: a subscriber asks
    /// [`crate::stream::StepSubscription::is_torn`] after the close, and
    /// slot names recycle, so their rows are bounded by the ring.
    gens: HashMap<String, HashMap<usize, u64>>,
}

/// Geometries [`DistMetadataVol::with_decomposer`] keeps.
const DECOMPOSERS: usize = 8;

/// How long [`DistMetadataVol::drain`] waits for the serve thread's exit
/// before it re-sends `M_SHUTDOWN` (the first one may have been dropped).
const DRAIN_RESEND: std::time::Duration = std::time::Duration::from_millis(5);

/// Raised once by the overlap-mode serve thread as it exits, so `drain`
/// waits on a condvar instead of polling the join handle.
#[derive(Default)]
struct ExitFlag {
    raised: Mutex<bool>,
    cv: Condvar,
}

impl ExitFlag {
    /// Wait up to `timeout` for the flag; returns whether it is raised.
    fn wait_for(&self, timeout: std::time::Duration) -> bool {
        let mut raised = self.raised.lock();
        if !*raised {
            self.cv.wait_for(&mut raised, timeout);
        }
        *raised
    }
}

/// Raises its [`ExitFlag`] when dropped, so a panicking serve thread
/// raises it too.
struct RaiseOnDrop(Arc<ExitFlag>);

impl Drop for RaiseOnDrop {
    fn drop(&mut self) {
        *self.0.raised.lock() = true;
        self.0.cv.notify_all();
    }
}

/// The distributed metadata connector.
pub struct DistMetadataVol {
    meta: MetadataVol,
    props: LowFiveProps,
    world: Comm,
    local: Comm,
    links: Vec<Link>,
    remote: Mutex<RemoteState>,
    /// The queryable index, published per file: `index()` builds the
    /// closed file's [`FileIndex`] off to the side and inserts it in one
    /// store, touching no other file's entry; the serve loop clones the
    /// file's handle and reads it with no lock held.
    serve_index: Mutex<HashMap<String, Arc<FileIndex>>>,
    profile: Mutex<TransportProfile>,
    /// The serve path's request/byte tallies (see [`HotCounters`]);
    /// folded into [`Self::profile`] snapshots.
    hot: HotCounters,
    /// Overlap mode (paper §V-C: "consume data as soon as it is
    /// available, and overlap reading and writing"): file_close returns
    /// immediately and a single background thread serves all sessions.
    /// Off, the closing rank thread runs the same loop to the end of the
    /// session it just opened.
    async_serve: bool,
    sessions: Mutex<Sessions>,
    serve_thread: Mutex<Option<(std::thread::JoinHandle<()>, Arc<ExitFlag>)>>,
    self_weak: std::sync::Weak<DistMetadataVol>,
    /// Metadata requests `(caller, request frame)` for files this task
    /// will produce but has not closed yet (a consumer may run ahead and
    /// open snapshot *t+1* while we still serve *t*). The frame is the
    /// request's own, kept by a refcount; it is decoded again when the
    /// file's serve session opens and answers it.
    pending_meta: Mutex<Vec<(Caller, Bytes)>>,
    /// Consumer-side cache of metadata and owner lists (see
    /// [`FetchCache`]).
    fetch_cache: Mutex<FetchCache>,
    /// Consumer-side read results, recycled once the application drops
    /// them: a steady-state read allocates no payload bytes.
    read_pool: BufPool,
    /// The common decompositions in use, by geometry (domain dims, block
    /// count) — never by file: index and query of every file of one
    /// shape share one, instead of factoring the block count per call.
    /// At most [`DECOMPOSERS`] geometries, oldest dropped first.
    decomposers: Mutex<Vec<RegularDecomposer>>,
    /// Step-streaming state: registered series and their announce
    /// windows (see [`crate::stream`]). Slot files of a series bypass
    /// the DONE-counted session map entirely.
    stream: Mutex<crate::stream::StreamState>,
    /// Signalled whenever a series' slowest consumer cursor advances (the
    /// cursor moves under `stream`, the signal follows its release): what
    /// a `publish` blocked on a full window and a `finish` draining the
    /// series wait for.
    stream_acked: Condvar,
}

/// Builder for [`DistMetadataVol`].
pub struct DistVolBuilder {
    world: Comm,
    local: Comm,
    props: LowFiveProps,
    links: Vec<Link>,
    storage: Option<Arc<dyn Vol>>,
    async_serve: bool,
}

impl DistVolBuilder {
    /// `world` spans all tasks; `local` spans this task's ranks.
    pub fn new(world: Comm, local: Comm) -> Self {
        DistVolBuilder {
            world,
            local,
            props: LowFiveProps::new(),
            links: Vec::new(),
            storage: None,
            async_serve: false,
        }
    }

    /// Enable overlap mode: producer `file_close` indexes, registers a
    /// serve session, and returns immediately; a background thread answers
    /// consumers while the producer computes the next step. Call
    /// [`DistMetadataVol::drain`] before the producer task exits.
    pub fn async_serve(mut self, on: bool) -> Self {
        self.async_serve = on;
        self
    }

    /// Set the transport properties.
    pub fn props(mut self, props: LowFiveProps) -> Self {
        self.props = props;
        self
    }

    /// Declare that this task produces files matching `pattern` for the
    /// consumer task whose processes are `consumer_world_ranks`.
    pub fn produce(mut self, pattern: &str, consumer_world_ranks: Vec<usize>) -> Self {
        self.links.push(Link {
            pattern: pattern.to_string(),
            dir: LinkDir::Produce,
            remote_ranks: consumer_world_ranks,
        });
        self
    }

    /// Declare that this task consumes files matching `pattern` from the
    /// producer task whose processes are `producer_world_ranks`.
    pub fn consume(mut self, pattern: &str, producer_world_ranks: Vec<usize>) -> Self {
        self.links.push(Link {
            pattern: pattern.to_string(),
            dir: LinkDir::Consume,
            remote_ranks: producer_world_ranks,
        });
        self
    }

    /// Override the storage connector used for passthrough (defaults to a
    /// parallel native connector coordinated over `local`).
    pub fn storage(mut self, vol: Arc<dyn Vol>) -> Self {
        self.storage = Some(vol);
        self
    }

    /// Finalize the builder into the distributed VOL. With no explicit
    /// [`storage`](Self::storage) layer, file-mode traffic falls back to
    /// the native parallel connector on the local communicator.
    pub fn build(self) -> Arc<DistMetadataVol> {
        let storage = self.storage.unwrap_or_else(|| {
            let c = self.local.clone();
            Arc::new(minih5::native::NativeVol::parallel(self.local.rank(), move || c.barrier()))
        });
        Arc::new_cyclic(|weak| DistMetadataVol {
            meta: MetadataVol::new(storage, self.props.clone()),
            props: self.props,
            world: self.world,
            local: self.local,
            links: self.links,
            remote: Mutex::default(),
            serve_index: Mutex::default(),
            profile: Mutex::default(),
            hot: HotCounters::default(),
            async_serve: self.async_serve,
            sessions: Mutex::default(),
            serve_thread: Mutex::default(),
            self_weak: weak.clone(),
            pending_meta: Mutex::default(),
            fetch_cache: Mutex::default(),
            read_pool: BufPool::new(),
            decomposers: Mutex::default(),
            stream: Mutex::default(),
            stream_acked: Condvar::new(),
        })
    }
}

impl DistMetadataVol {
    /// Access the wrapped metadata layer (tests, diagnostics).
    pub fn metadata(&self) -> &MetadataVol {
        &self.meta
    }

    /// Snapshot the accumulated transport profile, the serve path's
    /// request/byte tallies folded in.
    pub fn profile(&self) -> TransportProfile {
        TransportProfile {
            metadata_requests: self.hot.metadata_requests.load(Ordering::Relaxed),
            intersect_requests: self.hot.intersect_requests.load(Ordering::Relaxed),
            data_requests: self.hot.data_requests.load(Ordering::Relaxed),
            bytes_served: self.hot.bytes_served.load(Ordering::Relaxed),
            ..self.profile.lock().clone()
        }
    }

    /// Zero the transport profile (e.g. between timesteps).
    pub fn reset_profile(&self) {
        *self.profile.lock() = TransportProfile::default();
        for c in [
            &self.hot.metadata_requests,
            &self.hot.intersect_requests,
            &self.hot.data_requests,
            &self.hot.bytes_served,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// The transport properties this VOL was built with.
    pub(crate) fn props(&self) -> &LowFiveProps {
        &self.props
    }

    /// This task's local communicator.
    pub(crate) fn local_comm(&self) -> &Comm {
        &self.local
    }

    /// The world communicator every RPC travels on.
    pub(crate) fn world(&self) -> &Comm {
        &self.world
    }

    /// Is overlap mode (background serve thread) enabled?
    pub(crate) fn is_async_serve(&self) -> bool {
        self.async_serve
    }

    /// The step-streaming state shared with [`crate::stream`].
    pub(crate) fn stream_state(&self) -> &Mutex<crate::stream::StreamState> {
        &self.stream
    }

    /// Paired with [`Self::stream_state`]: notified when a series' slowest
    /// cursor moves.
    pub(crate) fn stream_acked(&self) -> &Condvar {
        &self.stream_acked
    }

    /// Run `f` on the common decomposition of `dims` into `n` blocks,
    /// built once per geometry.
    fn with_decomposer<R>(
        &self,
        dims: &[u64],
        n: usize,
        f: impl FnOnce(&RegularDecomposer) -> R,
    ) -> R {
        let mut cache = self.decomposers.lock();
        let at = match cache.iter().position(|d| d.dims() == dims && d.nblocks() == n) {
            Some(at) => at,
            None => {
                if cache.len() == DECOMPOSERS {
                    cache.remove(0);
                }
                cache.push(RegularDecomposer::new(dims, n));
                cache.len() - 1
            }
        };
        f(&cache[at])
    }

    fn consume_link_index(&self, name: &str) -> Option<usize> {
        self.links.iter().position(|l| l.dir == LinkDir::Consume && glob_match(&l.pattern, name))
    }

    pub(crate) fn consume_link_for(&self, name: &str) -> Option<&Link> {
        self.consume_link_index(name).map(|i| &self.links[i])
    }

    /// All consumer world ranks subscribed to `name` (fan-out: multiple
    /// Produce links can match), each once, in link order.
    pub(crate) fn consumers_for(&self, name: &str) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for l in &self.links {
            if l.dir == LinkDir::Produce && glob_match(&l.pattern, name) {
                for &r in &l.remote_ranks {
                    if !out.contains(&r) {
                        out.push(r);
                    }
                }
            }
        }
        out
    }

    // -----------------------------------------------------------------
    // Producer: index (Algorithm 1)
    // -----------------------------------------------------------------

    fn index(&self, filename: &str) -> H5Result<()> {
        let sp = obsv::span(obsv::Phase::Index);
        let n = self.local.size();
        let gen = self.meta.generation(filename);
        // Each peer's bundle is encoded as its entries are found, from the
        // tree's own names.
        let mut bundles: Vec<IndexBundle> = (0..n).map(|_| IndexBundle::default()).collect();
        self.meta.for_each_dataset(filename, |dset, space, regions| {
            self.with_decomposer(decomp_dims(space), n, |decomp| {
                for region in regions {
                    let bb = effective_bbox(&region.selection, space);
                    if bb.is_empty() {
                        continue;
                    }
                    // Algorithm 1 lines 6-9: send the bounding box to every
                    // producer whose common-decomposition block it
                    // intersects.
                    for gid in decomp.blocks_intersecting(&bb) {
                        bundles[gid].push(filename, dset, gen, &bb);
                    }
                }
            })
        })?;
        // One (possibly empty) bundle to every peer gives each producer a
        // deterministic receive count — the termination condition the
        // paper's nonblocking sends need anyway. The exchange is a
        // personalized all-to-all.
        let parts = bundles.into_iter().map(IndexBundle::finish).collect();
        let received = self.local.alltoall_bytes(parts);
        // Build this file's index off to the side, then publish it as a
        // single insert that replaces any earlier snapshot of the name
        // and touches no other file's entry. The serve loop clones the
        // file's handle once per request and reads it without any lock
        // held; an overlap-mode request racing this publish is answered
        // from the previous snapshot, exactly the pre-publish behavior.
        let mut next = FileIndex::default();
        let mut nboxes = 0u64;
        for (src, payload) in received.iter().enumerate() {
            // The bundle's generation tag records which snapshot the
            // sender's boxes describe; replies always report the *live*
            // generation, so a consumer that cached owners from this
            // index notices any later in-place rewrite.
            for e in IndexBundle::decode(payload)? {
                if e.file != filename {
                    return Err(H5Error::Format(format!(
                        "index bundle for {:?} arrived while indexing {filename:?}",
                        e.file
                    )));
                }
                slot_for(&mut next.boxes, e.dset).push((e.bbox, src));
                nboxes += 1;
            }
        }
        self.serve_index.lock().insert(filename.to_string(), Arc::new(next));
        // Once the file is visible, *every* producer rank must answer data
        // queries for it from its published index, or a consumer reads an
        // empty owner set (silently zero-filled). In overlap mode a serve
        // thread answers beside this call, so the ranks need a barrier.
        // In sync mode they do not: the serve loop runs on this thread
        // only after `index()` returns, so a query queued here is read
        // after this rank's publish; and the consumer first sees the file
        // in the home rank's metadata reply, sent after its all-to-all,
        // which completes nowhere before every rank is inside `index()`.
        if self.async_serve {
            self.local.barrier();
        }
        let mut p = self.profile.lock();
        p.index_seconds += sp.finish();
        p.index_boxes += nboxes;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Producer: retire (the end of a served file's life)
    // -----------------------------------------------------------------

    /// Every expected consumer is done with the snapshot of `file` rooted
    /// at `root`: drop its tree (and with it the region bytes), its
    /// generation and its index entry — unless
    /// [`LowFiveProps::set_keep`] keeps the file, in which case nothing
    /// is touched and `false` comes back. A name that was re-created in
    /// the meantime (overlap mode) has a different root and is left
    /// alone: the new snapshot's own session retires it. Called from the
    /// serve loop's `M_DONE` arm, in both modes.
    fn retire(&self, file: &str, root: NodeId) -> bool {
        if self.props.keep_for(file) {
            obsv::counter_add(obsv::Ctr::FilesKept, 1);
            return false;
        }
        if let Some(bytes) = self.meta.retire_file(file, root) {
            self.serve_index.lock().remove(file);
            obsv::counter_add(obsv::Ctr::FilesRetired, 1);
            obsv::counter_add(obsv::Ctr::BytesRetired, bytes);
        }
        true
    }

    /// Count the per-file state this rank holds right now (see
    /// [`Retained`]).
    pub fn retained(&self) -> Retained {
        let (files, arena_nodes, gens) = self.meta.footprint();
        let rs = self.remote.lock();
        Retained {
            files: files + rs.hier.file_count(),
            index_files: self.serve_index.lock().len(),
            arena_nodes: arena_nodes + rs.hier.slots(),
            gens: gens + self.fetch_cache.lock().gens.len(),
        }
    }

    /// Answer the metadata requests parked for `filename` (consumers that
    /// ran ahead to this snapshot before it was closed).
    fn flush_pending_meta(&self, filename: &str) {
        let now: Vec<Caller> = self
            .pending_meta
            .lock()
            .extract_if(.., |(_, frame)| parked_file(frame) == filename)
            .map(|(caller, _)| caller)
            .collect();
        for caller in now {
            diyblk::rpc::send_reply_frame(&self.world, caller, self.metadata_reply(filename));
        }
    }

    /// Answer an `M_METADATA` request for `file`: the result frame,
    /// headroom left for a deferred reply's call id.
    fn metadata_reply(&self, file: &str) -> Writer {
        result_frame(
            self.meta
                .file_meta(file)
                .map(|meta| MetadataReply { gen: self.meta.generation(file), meta }.encode()),
        )
    }

    /// Does one of our Produce links cover `file`?
    fn produces(&self, file: &str) -> bool {
        self.links.iter().any(|l| l.dir == LinkDir::Produce && glob_match(&l.pattern, file))
    }

    // -----------------------------------------------------------------
    // Producer: serve (Algorithm 2)
    // -----------------------------------------------------------------

    /// The serve loop, one function for both modes: it answers queries
    /// for every open session, kept file and published step slot, and
    /// returns once no session is open — in overlap mode only after
    /// [`Self::drain`] has asked for that too. Sync mode runs it on the
    /// rank thread that just closed a file, overlap mode on one
    /// background thread.
    fn serve_loop(&self) {
        let sp = obsv::span(obsv::Phase::Serve);
        RpcServer::new(&self.world).serve(|caller, method, args| {
            match Request::decode(method, &args) {
                Ok(req) => self.serve_request(caller, req, &args),
                // A request that does not decode (an unknown or retired
                // method, a frame cut short or padded) counts like a frame
                // too short for its RPC header; the error answers a call,
                // and is dropped with a notification (no reply channel).
                Err(e) => {
                    obsv::counter_add(obsv::Ctr::RpcMalformed, 1);
                    ServeOutcome::Reply(enc_result(Err(e)))
                }
            }
        });
        self.profile.lock().serve_seconds += sp.finish();
    }

    /// Answer one decoded request: the serve loop's dispatch. `frame` is
    /// the request's own frame, which a metadata request that has to wait
    /// is parked as.
    fn serve_request(&self, caller: Caller, req: Request<'_>, frame: &Bytes) -> ServeOutcome {
        match req {
            Request::Metadata { file } => {
                self.hot.metadata_requests.fetch_add(1, Ordering::Relaxed);
                // Answerable now: a session that `caller` has not closed
                // yet (once it has, and the file is not kept, it is asking
                // for the name's next snapshot), a kept file, or a
                // published step slot. A tree that merely exists — created
                // or written but not closed and indexed — is none of these.
                let known = {
                    let s = self.sessions.lock();
                    s.completed.contains(file)
                        || s.open.get(file).is_some_and(|sess| {
                            sess.indexed
                                && (!sess.done.contains(&caller.rank) || self.props.keep_for(file))
                        })
                } || self.stream.lock().serveable.contains(file);
                if known {
                    ServeOutcome::Reply(self.metadata_reply(file).finish())
                } else if self.produces(file) {
                    // A snapshot of ours that is not closed yet: hold the
                    // request until its serve session opens.
                    self.pending_meta.lock().push((caller, frame.clone()));
                    ServeOutcome::Continue
                } else {
                    ServeOutcome::Reply(enc_result(Err(H5Error::NotFound(file.to_string()))))
                }
            }
            Request::DataBatch { file, entries } => {
                ServeOutcome::ReplyParts(self.serve_data_batch(file, &entries))
            }
            Request::Done { file } => {
                // DONE must be idempotent: a consumer whose *ack* was lost
                // resends the same DONE under its retry policy, and each
                // retransmit is a fresh RPC — so a session counts distinct
                // caller ranks, not messages. A DONE for a file with no
                // open session (a kept file being re-read, a retransmit
                // after the session closed) is only acked.
                let finished = {
                    let mut s = self.sessions.lock();
                    let last = s.open.get_mut(file).is_some_and(|sess| {
                        sess.done.insert(caller.rank);
                        sess.done.len() == sess.expected
                    });
                    last.then(|| s.open.remove(file)).flatten()
                };
                if let Some(sess) = finished {
                    self.profile.lock().serve_sessions += 1;
                    obsv::counter_add(obsv::Ctr::ServeSessions, 1);
                    if !self.retire(file, sess.root) {
                        self.sessions.lock().completed.insert(file.to_string());
                    }
                }
                // Ack every DONE: the consumer awaits (and under a retry
                // policy resends) it, so a dropped notification cannot
                // starve the loop.
                if self.sessions.lock().finished(self.async_serve) {
                    ServeOutcome::Stop(Some(OK_EMPTY))
                } else {
                    ServeOutcome::Reply(OK_EMPTY)
                }
            }
            Request::Shutdown => {
                let mut s = self.sessions.lock();
                s.draining = true;
                if s.finished(self.async_serve) {
                    ServeOutcome::Stop(None)
                } else {
                    ServeOutcome::Continue
                }
            }
            // A producer blocked in this loop on its rank thread could
            // never publish another step, so streaming refuses to start.
            // The typed error matters: a subscriber retries `NotFound`.
            Request::StepSub { .. } | Request::StepNext { .. } | Request::StepAck { .. }
                if !self.async_serve =>
            {
                ServeOutcome::Reply(enc_result(Err(H5Error::Vol(
                    "step streaming requires overlap mode (DistVolBuilder::async_serve)".into(),
                ))))
            }
            // `None`: parked, answered later by `StepPublisher::new` /
            // `publish` / `finish`, or failed when this thread exits.
            Request::StepSub { series } => crate::stream::serve_step_sub(self, caller, series)
                .map_or(ServeOutcome::Continue, ServeOutcome::Reply),
            Request::StepNext { series, cursor, policy } => {
                crate::stream::serve_step_next(self, caller, series, cursor, policy)
                    .map_or(ServeOutcome::Continue, ServeOutcome::Reply)
            }
            Request::StepAck { series, cursor } => {
                crate::stream::serve_step_ack(self, caller.rank, series, cursor);
                ServeOutcome::Reply(OK_EMPTY)
            }
        }
    }

    /// [`Self::batch_reply`], result-wrapped.
    fn serve_data_batch(&self, file: &str, entries: &BatchEntries<'_>) -> Payload {
        let t0 = obsv::clock::now_ns();
        let reply = self.batch_reply(file, entries);
        if let Ok(b) = &reply {
            self.hot.bytes_served.fetch_add(b.len() as u64, Ordering::Relaxed);
            obsv::hist_record(obsv::Hist::BytesServed, b.len() as u64);
        }
        let out = enc_result_payload(reply);
        obsv::hist_record(obsv::Hist::ServeBatchNs, obsv::clock::now_ns().saturating_sub(t0));
        out
    }

    /// The data reply to `entries` of `file`: per `(dataset, selection)`
    /// entry, in entry order, the owner list this rank's index gives for
    /// the selection's bounding box (Algorithm 3's redirect), then one
    /// body per entry. Entries are answered independently, so how a
    /// consumer groups selections into frames never changes the bytes it
    /// sees.
    ///
    /// Each entry's dataset is copied out of the metadata layer under its
    /// lock ([`HeldDataset`]) and answered without it, so the producer's
    /// own writes never wait while a reply is built.
    fn batch_reply(&self, file: &str, entries: &BatchEntries<'_>) -> H5Result<Payload> {
        let gen = self.meta.generation(file);
        let idx = self.serve_index.lock().get(file).cloned();
        let mut reply = BatchReplyWriter::new(entries.len());
        let mut held = Vec::with_capacity(entries.len());
        let mut owners = Vec::new();
        for (dset, sel) in entries.iter() {
            let copied = self.meta.with_dataset(file, dset, |dtype, space, regions| {
                (dtype.size(), space.clone(), Arc::clone(regions))
            });
            let meta = match copied {
                Ok(meta) => sel.validate(&meta.1).map(|()| Some(meta))?,
                // A block owner that never created the dataset (a
                // non-collective create) still answers the redirect from
                // its index, with every rank listed for the dataset: the
                // extra ones answer empty bodies.
                Err(H5Error::NotFound(_)) if idx.is_some() => None,
                Err(e) => return Err(e),
            };
            // The owners are the ranks whose boxes the selection's
            // bounding box hits.
            owners.clear();
            match (&idx, &meta) {
                (Some(i), Some((_, space, _))) => {
                    i.owners_into(dset, |bb| query_hits(sel, space, bb), &mut owners)
                }
                (Some(i), None) => i.owners_into(dset, |_| true, &mut owners),
                (None, _) => {}
            }
            reply.owners(&owners);
            held.push(meta);
        }
        let mut overlaps = Vec::new();
        for ((_, sel), meta) in entries.iter().zip(&held) {
            match meta {
                Some(meta) => answer_data_query_into(&mut reply, gen, sel, meta, &mut overlaps),
                None => reply.body(gen, std::iter::empty(), 0, []),
            }
        }
        let n = entries.len() as u64;
        self.hot.intersect_requests.fetch_add(n, Ordering::Relaxed);
        self.hot.data_requests.fetch_add(n, Ordering::Relaxed);
        Ok(reply.finish())
    }

    fn producer_close(&self, filename: &str) -> H5Result<()> {
        let consumers = self.consumers_for(filename).len();
        if consumers == 0 {
            return Ok(());
        }
        let root =
            self.meta.file_root(filename).ok_or_else(|| H5Error::NotFound(filename.to_string()))?;
        // Register the session before indexing. In overlap mode a consumer
        // can read this rank's data and send its DONE as soon as *another*
        // producer leaves the post-index barrier, while this rank's thread
        // has not yet returned from `index()`; the serve thread only acks
        // a DONE for a session it does not know, so a session registered
        // after that would wait for the DONE forever.
        //
        // Step slot files never enter the session map: their lifetime is
        // governed by the series' announce window (publish → retire), not
        // by counted consumer DONEs — a `LatestStep` subscriber may never
        // open a given slot at all — and subscribers send no DONE when
        // they close one (`consumer_close`). Only an
        // overlap-mode VOL can publish a series; a sync-mode task that
        // re-produces slot-named files of a series it subscribes to
        // serves them as ordinary sessions.
        let is_step = self.async_serve && self.stream.lock().is_step_file(filename);
        if !is_step {
            self.sessions.lock().open.insert(
                filename.to_string(),
                Session { expected: consumers, done: HashSet::new(), root, indexed: false },
            );
        }
        // Index is collective over the producer task, so it always runs on
        // the caller (one index per close, in program order on every
        // rank).
        if let Err(e) = self.index(filename) {
            self.sessions.lock().open.remove(filename);
            return Err(e);
        }
        // Open the file to metadata requests and release any consumers
        // that asked early. Then overlap mode makes sure the serve thread
        // runs and returns; sync mode runs the loop here until the session
        // is done.
        if let Some(sess) = self.sessions.lock().open.get_mut(filename) {
            sess.indexed = true;
        }
        self.flush_pending_meta(filename);
        if self.async_serve {
            self.ensure_serve_thread();
        } else {
            self.serve_loop();
        }
        Ok(())
    }

    /// Start the overlap-mode serve thread if it is not already running.
    /// Called from the first async `file_close` and from
    /// [`crate::stream::StepPublisher::new`] (subscribes can arrive
    /// before the first slot file closes).
    pub(crate) fn ensure_serve_thread(&self) {
        let mut guard = self.serve_thread.lock();
        if guard.is_none() {
            let me = self.self_weak.upgrade().expect("self is alive during close");
            let exited = Arc::new(ExitFlag::default());
            let raise = RaiseOnDrop(Arc::clone(&exited));
            // The serve thread records into its own lane (same rank) so
            // its spans land in the trace next to the rank that spawned
            // it, without sharing the rank thread's ring.
            let parent = obsv::current();
            let handle = std::thread::Builder::new()
                .name(format!("lowfive-serve-{}", self.world.rank()))
                .spawn(move || {
                    let _raise = raise;
                    let _obs = parent.and_then(|r| r.fork()).map(obsv::install);
                    me.serve_loop();
                    me.fail_parked_meta();
                    crate::stream::fail_parked(&me);
                })
                .expect("spawn serve thread");
            *guard = Some((handle, exited));
        }
    }

    /// Block until every outstanding async serve session completes and
    /// stop the background thread. Producers in overlap mode must call
    /// this before leaving their task (the `orchestra` runner does it
    /// automatically).
    pub fn drain(&self) {
        let (handle, exited) = {
            let mut guard = self.serve_thread.lock();
            match guard.take() {
                Some(h) => h,
                None => return,
            }
        };
        // Wake the loop so it can observe the drain request, then wait for
        // its exit. The notify is an ordinary message, so under fault
        // injection it can be dropped like any other — re-send whenever a
        // wait times out (extra M_SHUTDOWNs are idempotent: they just
        // re-mark the drain).
        let rpc = RpcClient::new(&self.world);
        loop {
            let shutdown = Request::Shutdown;
            rpc.notify_frame(self.world.rank(), shutdown.method(), shutdown.encode());
            if exited.wait_for(DRAIN_RESEND) {
                break;
            }
        }
        handle.join().expect("serve thread panicked");
    }

    /// The overlap thread has exited through [`Self::drain`]: any
    /// metadata request still parked (a consumer running ahead to a
    /// snapshot we will never close) would otherwise hang its sender.
    /// Failing it surfaces the lifecycle bug on the consumer instead.
    /// Never called at the end of a sync session — there a consumer
    /// running ahead to the name's next snapshot parks legitimately
    /// across closes.
    fn fail_parked_meta(&self) {
        let orphaned: Vec<(Caller, Bytes)> = self.pending_meta.lock().drain(..).collect();
        for (caller, frame) in orphaned {
            let missing = H5Error::NotFound(parked_file(&frame).to_string());
            diyblk::rpc::send_reply(&self.world, caller, enc_result(Err(missing)));
        }
    }

    // -----------------------------------------------------------------
    // Consumer: open / query (Algorithm 3) / close
    // -----------------------------------------------------------------

    /// One consumer → producer RPC, honoring the file's configured retry
    /// policy (see [`LowFiveProps::set_rpc_timeout`]). Without a policy
    /// the call blocks forever, exactly like MPI. With one, a producer
    /// that died or stopped answering surfaces as
    /// [`H5Error::PeerUnavailable`] after the bounded attempts — all
    /// consumer RPCs (metadata, data, done, step control) are idempotent,
    /// so resending is safe. Returns the still-encoded reply frame.
    pub(crate) fn call_producer(
        &self,
        file: &str,
        server: usize,
        req: &Request<'_>,
    ) -> H5Result<Bytes> {
        let policy = self.props.rpc_policy_for(file);
        RpcClient::new(&self.world)
            .call_frame(server, req.method(), req.encode(), policy)
            .map(Payload::into_bytes)
            .map_err(|e| Self::peer_error(server, policy, e))
    }

    /// [`Self::call_producer`] for several calls at once: `req` to each
    /// producer world rank of `servers`, all out together under `file`'s
    /// retry policy and every reply awaited. The first failure to come
    /// back — transport or remote — is returned.
    pub(crate) fn call_producers(
        &self,
        file: &str,
        servers: &[usize],
        req: &Request<'_>,
    ) -> H5Result<()> {
        let policy = self.props.rpc_policy_for(file);
        let calls = servers.iter().map(|&p| Call::frame(p, req.method(), req.encode())).collect();
        let mut first_err = None;
        RpcClient::new(&self.world).call_many(calls, policy, |k, r| {
            let replied = r
                .map_err(|e| Self::peer_error(servers[k], policy, e))
                .and_then(|reply| dec_result(&reply.into_bytes()).map(drop));
            if let Err(e) = replied {
                first_err.get_or_insert(e);
            }
        });
        first_err.map_or(Ok(()), Err)
    }

    /// The error a consumer sees when a call to producer world rank
    /// `server` fails at the transport level — the one mapping for single
    /// calls and `call_many` fan-outs alike.
    fn peer_error(server: usize, policy: Option<RetryPolicy>, e: RpcError) -> H5Error {
        H5Error::PeerUnavailable(match (e, policy) {
            (RpcError::PeerDead, _) => format!("producer world rank {server} died"),
            (RpcError::TimedOut, Some(p)) => format!(
                "producer world rank {server} did not answer within {:?} x{}",
                p.timeout, p.attempts
            ),
            (RpcError::TimedOut, None) => {
                format!("producer world rank {server} did not answer")
            }
        })
    }

    /// Record the generation a producer reported for `file`. Returns
    /// true — after dropping every cached lookup for the file — when it
    /// differs from the last generation that producer reported: the
    /// cached metadata and owner lists were built against a snapshot the
    /// producer has since rewritten.
    pub(crate) fn note_gen(&self, file: &str, server: usize, gen: u64) -> bool {
        let mut cache = self.fetch_cache.lock();
        match slot_for(&mut cache.gens, file).insert(server, gen) {
            Some(old) if old != gen => {
                cache.meta.remove(file);
                cache.owners.remove(file);
                true
            }
            _ => false,
        }
    }

    /// The last generation producer world rank `server` reported for
    /// `file` on this consumer, if any reply has carried one yet. Step
    /// subscribers compare this against an announce's generation to
    /// detect a slot recycled mid-read
    /// ([`crate::stream::StepSubscription::is_torn`]).
    pub(crate) fn noted_gen(&self, file: &str, server: usize) -> Option<u64> {
        self.fetch_cache.lock().gens.get(file).and_then(|m| m.get(&server)).copied()
    }

    fn consumer_open(&self, name: &str, link_idx: usize) -> H5Result<ObjId> {
        let sp = obsv::span(obsv::Phase::Open);
        let link = &self.links[link_idx];
        let file: Arc<str> = Arc::from(name);
        // The metadata tree is cached per file, so a reopen between
        // closes costs no round-trip (`file_close` invalidates).
        if let Some(meta) = self.fetch_cache.lock().meta.get(name).cloned() {
            obsv::counter_add(obsv::Ctr::FetchCacheHits, 1);
            return self.install_remote_meta(file, link_idx, &meta, sp);
        }
        obsv::counter_add(obsv::Ctr::FetchCacheMisses, 1);
        // Each consumer rank has a "home" producer for metadata requests,
        // spreading the load across the producer task.
        let home = link.home(self.local.rank())?;
        let reply = self.call_producer(name, home, &Request::Metadata { file: name })?;
        let MetadataReply { gen, meta } = MetadataReply::decode(&dec_result(&reply)?)?;
        // Record the generation *before* caching: a bump clears stale
        // entries first, so the fresh tree is what ends up cached.
        self.note_gen(name, home, gen);
        let id = self.install_remote_meta(file.clone(), link_idx, &meta, sp)?;
        self.fetch_cache.lock().meta.insert(file, meta);
        Ok(id)
    }

    /// Import a fetched (or cached) metadata tree into the remote
    /// hierarchy and mint the file handle.
    fn install_remote_meta(
        &self,
        name: Arc<str>,
        link_idx: usize,
        meta: &FileMeta,
        sp: obsv::SpanGuard,
    ) -> H5Result<ObjId> {
        let mut rs = self.remote.lock();
        if rs.hier.file(&name).is_some() {
            rs.hier.remove_file(&name)?;
        }
        let root = rs.hier.create_file(&name)?;
        import_meta(&mut rs.hier, root, meta)?;
        rs.files.insert(name.clone(), link_idx);
        let id = rs.mint();
        rs.entries.insert(id, RemoteEntry { node: root, filename: name, path: String::new() });
        drop(rs);
        self.profile.lock().open_seconds += sp.finish();
        Ok(id)
    }

    /// Resolve a remote dataset handle to its location and the producer
    /// ranks serving it.
    fn remote_target(&self, dset: ObjId) -> H5Result<(NodeId, Arc<str>, String, &[usize])> {
        let rs = self.remote.lock();
        let e = rs.entry(dset)?.clone();
        let link_idx = *rs
            .files
            .get(e.filename.as_ref())
            .ok_or_else(|| H5Error::NotFound(e.filename.to_string()))?;
        Ok((e.node, e.filename, e.path, &self.links[link_idx].remote_ranks))
    }

    fn remote_read(&self, dset: ObjId, sel: &Selection) -> H5Result<Bytes> {
        let mut bufs = self.remote_read_multi(dset, std::slice::from_ref(sel))?;
        Ok(bufs.pop().expect("one buffer per selection"))
    }

    /// Read several selections of one remote dataset (Algorithm 3,
    /// pipelined). Each round sends every producer it asks **one**
    /// `M_DATA_BATCH` frame carrying all its selections, all frames in
    /// flight at once, and the replies scatter into the packed buffers in
    /// completion order. Round 1 asks a selection's cached owners, or else
    /// the owners of the common-decomposition blocks its bounding box
    /// touches; those answer with their data and the selection's owners.
    /// Round 2 asks only the owners round 1 did not. A single read is a
    /// batch of one. Owners are cached per `(file, dataset, bbox)`.
    ///
    /// If any reply carries a generation differing from what its
    /// producer reported before, the cached lookups this read may have
    /// used were built against a stale snapshot; [`Self::note_gen`] has
    /// already dropped them, and one clean second pass re-resolves
    /// everything against the live state.
    fn remote_read_multi(&self, dset: ObjId, sels: &[Selection]) -> H5Result<Vec<Bytes>> {
        if sels.is_empty() {
            return Ok(Vec::new());
        }
        let (mut outs, stale) = self.remote_read_once(dset, sels)?;
        if stale {
            outs = self.remote_read_once(dset, sels)?.0;
        }
        // Finished only once a pass is kept: a discarded pass neither
        // fills nor counts its gaps (and its buffers simply drop). A kept
        // result goes back to the pool once the application drops it.
        Ok(outs.into_iter().map(|out| self.read_pool.track(Bytes::from(out.finish()))).collect())
    }

    fn remote_read_once(&self, dset: ObjId, sels: &[Selection]) -> H5Result<(Vec<ReadBuf>, bool)> {
        let (node, filename, path, producers) = self.remote_target(dset)?;
        let (dtype, space) = self.remote.lock().hier.dataset_meta(node)?;
        let mut outs: Vec<ReadBuf> = Vec::with_capacity(sels.len());
        for sel in sels {
            sel.validate(&space)?;
            let n = (sel.npoints(&space) as usize) * dtype.size();
            outs.push(ReadBuf::new(self.read_pool.take(n), n));
        }
        // On the socket backend the reader thread writes the replies
        // straight into `outs` (a posted `Round`); in-proc, this thread
        // places each reply it receives.
        let post = self.world.transport_kind() == TransportKind::Socket;
        let mut fetch = Fetch::new(outs, producers.len(), dtype.size());
        let policy = self.props.rpc_policy_for(&filename);
        let rpc = RpcClient::new(&self.world);
        let _sp_query = obsv::span(obsv::Phase::Query);

        // Routing: a selection whose owners are cached goes to them, any
        // other to the producers whose common-decomposition blocks its
        // bounding box touches (the redirect targets of Algorithm 3).
        // A selection whose owners are not cached keeps its box in
        // `unresolved`, to cache them under once round 1 names them.
        let sp_redirect = obsv::span(obsv::Phase::Redirect);
        let mut ask: Vec<Vec<usize>> = Vec::with_capacity(sels.len());
        let mut unresolved: Vec<Option<BBox>> = Vec::with_capacity(sels.len());
        {
            let cache = self.fetch_cache.lock();
            let cached = cache.owners.get(filename.as_ref()).and_then(|d| d.get(&path));
            self.with_decomposer(decomp_dims(&space), producers.len(), |decomp| {
                for (sel, out) in sels.iter().zip(&fetch.outs) {
                    if out.is_empty() {
                        // Empty selection: nothing to fetch, no query needed.
                        ask.push(Vec::new());
                        unresolved.push(None);
                        continue;
                    }
                    let bb = effective_bbox(sel, &space);
                    if let Some(o) = cached.and_then(|c| c.get(&bb)) {
                        obsv::counter_add(obsv::Ctr::FetchCacheHits, 1);
                        ask.push(o.clone());
                        unresolved.push(None);
                    } else {
                        obsv::counter_add(obsv::Ctr::FetchCacheMisses, 1);
                        ask.push(decomp.blocks_intersecting(&bb));
                        unresolved.push(Some(bb));
                    }
                }
            });
        }
        self.profile.lock().redirect_seconds += sp_redirect.finish();

        // One round: a batched frame per producer asked, all in flight at
        // once, each encoded straight from the borrowed path and
        // selections through one entry list. Each reply is placed into
        // the packed buffers and adds its owner lists to `found`. Returns
        // the reply bytes and whether a producer reported a new
        // generation.
        let mut entries = Vec::new();
        let mut round = |ask: &[Vec<usize>], fetch: &mut Fetch| -> H5Result<(u64, bool)> {
            // The selections asking producer `p`, in selection order: the
            // entries of its frame and of its reply.
            let asking = |p: usize| (0..ask.len()).filter(move |&i| ask[i].contains(&p));
            let targets: Vec<usize> =
                (0..producers.len()).filter(|&p| asking(p).next().is_some()).collect();
            let mut round = Round::new(
                fetch,
                post.then(|| targets.iter().map(|&p| asking(p).collect()).collect()),
            );
            let calls = targets
                .iter()
                .enumerate()
                .map(|(k, &p)| {
                    entries.clear();
                    entries.extend(asking(p).map(|i| (path.as_str(), &sels[i])));
                    obsv::hist_record(obsv::Hist::FetchBatchEntries, entries.len() as u64);
                    let req = Request::DataBatch {
                        file: &filename,
                        entries: BatchEntries::Lent(&entries),
                    };
                    let call = Call::frame(producers[p], req.method(), req.encode());
                    match round.sink(k) {
                        Some(sink) => call.sink(sink),
                        None => call,
                    }
                })
                .collect();
            obsv::counter_add(obsv::Ctr::FetchBatches, targets.len() as u64);
            let (mut fetched, mut stale, mut first_err) = (0u64, false, None);
            rpc.call_many(calls, policy, |k, r| {
                let server = producers[targets[k]];
                let placed = r.map_err(|e| Self::peer_error(server, policy, e)).and_then(|reply| {
                    let (len, placed) = round.settle(k, reply, asking(targets[k]), &mut |gen| {
                        stale |= self.note_gen(&filename, server, gen)
                    });
                    fetched += len as u64;
                    obsv::hist_record(obsv::Hist::BytesFetched, len as u64);
                    placed
                });
                if let Err(e) = placed {
                    first_err.get_or_insert(e);
                }
            });
            round.finish();
            first_err.map_or(Ok((fetched, stale)), Err)
        };

        let sp_fetch = obsv::span(obsv::Phase::Fetch);
        let (mut fetched, mut stale) = round(&ask, &mut fetch)?;
        // A stale pass is discarded unfinished. Otherwise the block
        // owners' reports are the selections' owners: cache them, and ask
        // the ones round 1 did not ask for that selection (only where the
        // common decomposition is misaligned with the data's).
        if !stale && unresolved.iter().any(Option::is_some) {
            let mut again = vec![Vec::new(); sels.len()];
            {
                let mut cache = self.fetch_cache.lock();
                let of_file = cache.owners.entry(filename.clone()).or_default();
                let of_dset = slot_for(of_file, &path);
                for (i, bb) in unresolved.into_iter().enumerate() {
                    let Some(bb) = bb else { continue };
                    let mut owners = std::mem::take(&mut fetch.found[i]);
                    owners.sort_unstable();
                    again[i] = owners.iter().copied().filter(|p| !ask[i].contains(p)).collect();
                    of_dset.insert(bb, owners);
                }
            }
            let (more, moved) = round(&again, &mut fetch)?;
            fetched += more;
            stale = moved;
        }
        {
            let mut p = self.profile.lock();
            p.fetch_seconds += sp_fetch.finish();
            p.bytes_fetched += fetched;
        }
        Ok((fetch.outs, stale))
    }

    fn consumer_close(&self, file: ObjId) -> H5Result<()> {
        let (filename, producers) = {
            let mut rs = self.remote.lock();
            let e = rs.entry(file)?.clone();
            rs.entries.remove(&file);
            // The imported tree goes with the handle (object handles still
            // open into it turn stale).
            let producers: &[usize] = match rs.files.remove(e.filename.as_ref()) {
                Some(link_idx) => &self.links[link_idx].remote_ranks,
                None => &[],
            };
            if let Ok(bytes) = rs.hier.remove_file(&e.filename) {
                obsv::counter_add(obsv::Ctr::BytesRetired, bytes);
            }
            (e.filename, producers)
        };
        // Closing ends this consumer's view of the snapshot: drop every
        // cached lookup for the file so a later open (possibly of a
        // rewritten file with the same name) refetches.
        let is_step = self.stream.lock().is_step_file(&filename);
        {
            let mut cache = self.fetch_cache.lock();
            cache.meta.remove(filename.as_ref());
            cache.owners.remove(filename.as_ref());
            if !is_step {
                cache.gens.remove(filename.as_ref());
            }
        }
        // A slot file has no serve session to count a DONE toward (the
        // series' window governs its life), so none is sent: it would only
        // be acked, and the wait for that ack would sit on every step.
        if is_step {
            return Ok(());
        }
        // DONE is a *call*, not a notification: the producer's serve loop
        // counts it toward session completion, so a dropped message would
        // leave the producer waiting forever. Every producer gets one at
        // once and every ack is awaited (resent under the file's retry
        // policy); a producer that already died is best-effort.
        let _ = self.call_producers(&filename, producers, &Request::Done { file: &filename });
        Ok(())
    }
}

/// The file a parked `M_METADATA` frame asks for. The frame decoded
/// once already, when it was parked.
fn parked_file(frame: &[u8]) -> &str {
    match Request::decode(M_METADATA, frame) {
        Ok(Request::Metadata { file }) => file,
        other => unreachable!("a parked metadata request decoded as {other:?}"),
    }
}

/// Dimensions used for decomposition: scalar spaces act as 1-element 1-d.
fn decomp_dims(space: &Dataspace) -> &[u64] {
    if space.rank() == 0 {
        &[1]
    } else {
        space.dims()
    }
}

/// Whether `sel`'s decomposition bounding box ([`effective_bbox`]) hits
/// `bb`, without building it.
fn query_hits(sel: &Selection, space: &Dataspace, bb: &BBox) -> bool {
    if space.rank() == 0 {
        bb.lo[0] < 1 && bb.hi[0] > 0
    } else {
        sel.bbox_intersects(space, bb)
    }
}

/// What answering one batch entry needs of a dataset, copied out of the
/// metadata layer under its lock: element size, space, and the recorded
/// regions (shared, not copied).
type HeldDataset = (usize, Dataspace, Arc<Vec<DataRegion>>);

/// Algorithm 2 lines 9-14: stream the intersection of the held data
/// regions with the consumer's selection, as contiguous segments
/// addressed in the consumer's packed buffer. `overlaps` is scratch.
///
/// Zero-copy: every overlapping slice is *lent* into the frame as a
/// refcounted sub-slice of its region's allocation, so no dataset byte
/// is copied on the producer. A deep region (`set_zerocopy(…, false)`)
/// already is the VOL's own immutable copy, made at write time, so it
/// is lent exactly like a shallow one.
fn answer_data_query_into(
    reply: &mut BatchReplyWriter,
    gen: u64,
    sel: &Selection,
    (es, space, regions): &HeldDataset,
    overlaps: &mut Vec<(usize, OverlapRun)>,
) {
    // The segment table precedes the blob on the wire, so the overlaps
    // are resolved first and the slices lent after the header.
    overlaps.clear();
    let sel_runs = sel.runs(space);
    for (r, region) in regions.iter().enumerate() {
        for_each_overlap(&region.selection.runs(space), &sel_runs, |ov| overlaps.push((r, ov)));
    }
    let es = *es;
    reply.body(
        gen,
        overlaps.iter().map(|(_, ov)| (ov.b_off, ov.len)),
        overlaps.iter().map(|(_, ov)| ov.len * es as u64).sum(),
        overlaps.iter().map(|&(r, ov)| {
            let at = ov.a_off as usize * es;
            regions[r].data.slice(at..at + ov.len as usize * es)
        }),
    );
}

/// Bounding box used for decomposition, lifted to 1-d for scalar spaces.
fn effective_bbox(sel: &Selection, space: &Dataspace) -> BBox {
    if space.rank() == 0 {
        BBox::new(vec![0], vec![1])
    } else {
        sel.bbox(space)
    }
}

impl Vol for DistMetadataVol {
    fn vol_name(&self) -> &'static str {
        "lowfive-distributed"
    }

    fn file_create(&self, name: &str) -> H5Result<ObjId> {
        // A recreated file is no longer safe to serve from old state.
        self.sessions.lock().completed.remove(name);
        // A recycled step slot stops being serveable until the next
        // publish re-announces it (metadata requests meanwhile park
        // in pending_meta and are flushed by the slot's next close).
        self.stream.lock().serveable.remove(name);
        self.meta.file_create(name)
    }

    fn file_open(&self, name: &str) -> H5Result<ObjId> {
        if let Some(link_idx) = self.consume_link_index(name) {
            if self.props.memory_for(name) {
                return self.consumer_open(name, link_idx);
            }
            // File mode on a consume link: the file comes from a peer task
            // that may still be writing it. Poll until it opens as a
            // complete file (bounded), mirroring the blocking semantics of
            // the in-memory open. The budget honors the file's configured
            // RPC policy (`set_rpc_timeout` x `set_rpc_retries`), falling
            // back to the historical 120 s default when none is set.
            let policy = self.props.rpc_policy_for(name);
            let budget = policy
                .map(|p| p.timeout.saturating_mul(p.attempts.max(1)))
                .unwrap_or(std::time::Duration::from_secs(120));
            let deadline = std::time::Instant::now() + budget;
            loop {
                match self.meta.file_open(name) {
                    Ok(id) => return Ok(id),
                    Err(e) if std::time::Instant::now() >= deadline => {
                        // With an explicit policy this is the same "peer
                        // did not deliver in time" condition as a memory-
                        // mode RPC timeout; surface it the same way.
                        return Err(match policy {
                            Some(p) => H5Error::PeerUnavailable(format!(
                                "file {name:?} was not completely written within \
                                 {:?} x{} ({e})",
                                p.timeout, p.attempts
                            )),
                            None => e,
                        });
                    }
                    Err(H5Error::Io(_)) | Err(H5Error::Format(_)) => {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        // Our own output (or a plain storage file). A produced in-memory
        // file that is neither resident nor on disk has been served and
        // retired.
        self.meta.file_open(name).map_err(|e| match e {
            H5Error::Io(io)
                if io.kind() == std::io::ErrorKind::NotFound
                    && self.produces(name)
                    && self.props.memory_for(name) =>
            {
                H5Error::NotFound(format!(
                    "{name} (a served file is retired once its consumers are done; \
                     see LowFiveProps::set_keep)"
                ))
            }
            e => e,
        })
    }

    fn file_close(&self, file: ObjId) -> H5Result<()> {
        if file & REMOTE_BIT != 0 {
            return self.consumer_close(file);
        }
        let filename = self.meta.filename_of(file)?;
        // Only a write session's close triggers index+serve; closing a
        // re-opened (read) handle must not re-serve the file.
        let created = self.meta.was_created(file)?;
        self.meta.file_close(file)?;
        if created && self.props.memory_for(&filename) {
            self.producer_close(&filename)?;
        }
        Ok(())
    }

    fn group_create(&self, parent: ObjId, name: &str) -> H5Result<ObjId> {
        if parent & REMOTE_BIT != 0 {
            return Err(H5Error::Vol("consumed files are read-only".into()));
        }
        self.meta.group_create(parent, name)
    }

    fn open_path(&self, parent: ObjId, path: &str) -> H5Result<ObjId> {
        if parent & REMOTE_BIT == 0 {
            return self.meta.open_path(parent, path);
        }
        let mut rs = self.remote.lock();
        let e = rs.entry(parent)?.clone();
        let node = rs.hier.resolve(e.node, path)?;
        let joined = path.split('/').filter(|s| !s.is_empty()).fold(e.path.clone(), |acc, part| {
            if acc.is_empty() {
                part.to_string()
            } else {
                format!("{acc}/{part}")
            }
        });
        let id = rs.mint();
        rs.entries.insert(id, RemoteEntry { node, filename: e.filename, path: joined });
        Ok(id)
    }

    fn dataset_create(
        &self,
        parent: ObjId,
        name: &str,
        dtype: &Datatype,
        space: &Dataspace,
    ) -> H5Result<ObjId> {
        if parent & REMOTE_BIT != 0 {
            return Err(H5Error::Vol("consumed files are read-only".into()));
        }
        self.meta.dataset_create(parent, name, dtype, space)
    }

    fn dataset_create_chunked(
        &self,
        parent: ObjId,
        name: &str,
        dtype: &Datatype,
        space: &Dataspace,
        chunk: &[u64],
    ) -> H5Result<ObjId> {
        if parent & REMOTE_BIT != 0 {
            return Err(H5Error::Vol("consumed files are read-only".into()));
        }
        self.meta.dataset_create_chunked(parent, name, dtype, space, chunk)
    }

    fn dataset_extend(&self, dset: ObjId, new_dims: &[u64]) -> H5Result<()> {
        if dset & REMOTE_BIT != 0 {
            return Err(H5Error::Vol("consumed files are read-only".into()));
        }
        self.meta.dataset_extend(dset, new_dims)
    }

    fn dataset_chunk(&self, dset: ObjId) -> H5Result<Option<Vec<u64>>> {
        if dset & REMOTE_BIT != 0 {
            let rs = self.remote.lock();
            let node = rs.entry(dset)?.node;
            return rs.hier.dataset_chunk(node);
        }
        self.meta.dataset_chunk(dset)
    }

    fn dataset_meta(&self, dset: ObjId) -> H5Result<(Datatype, Dataspace)> {
        if dset & REMOTE_BIT != 0 {
            let rs = self.remote.lock();
            let node = rs.entry(dset)?.node;
            return rs.hier.dataset_meta(node);
        }
        self.meta.dataset_meta(dset)
    }

    fn dataset_write(
        &self,
        dset: ObjId,
        file_sel: &Selection,
        data: Bytes,
        ownership: Ownership,
    ) -> H5Result<()> {
        if dset & REMOTE_BIT != 0 {
            return Err(H5Error::Vol("consumed files are read-only".into()));
        }
        self.meta.dataset_write(dset, file_sel, data, ownership)
    }

    fn dataset_read(&self, dset: ObjId, file_sel: &Selection) -> H5Result<Bytes> {
        if dset & REMOTE_BIT != 0 {
            return self.remote_read(dset, file_sel);
        }
        self.meta.dataset_read(dset, file_sel)
    }

    fn dataset_read_multi(&self, dset: ObjId, file_sels: &[Selection]) -> H5Result<Vec<Bytes>> {
        if dset & REMOTE_BIT != 0 {
            return self.remote_read_multi(dset, file_sels);
        }
        self.meta.dataset_read_multi(dset, file_sels)
    }

    fn attr_write(&self, obj: ObjId, name: &str, dtype: &Datatype, data: Bytes) -> H5Result<()> {
        if obj & REMOTE_BIT != 0 {
            return Err(H5Error::Vol("consumed files are read-only".into()));
        }
        self.meta.attr_write(obj, name, dtype, data)
    }

    fn attr_read(&self, obj: ObjId, name: &str) -> H5Result<(Datatype, Bytes)> {
        if obj & REMOTE_BIT != 0 {
            let rs = self.remote.lock();
            let node = rs.entry(obj)?.node;
            return rs.hier.attr(node, name);
        }
        self.meta.attr_read(obj, name)
    }

    fn list(&self, obj: ObjId) -> H5Result<Vec<(String, ObjKind)>> {
        if obj & REMOTE_BIT != 0 {
            let rs = self.remote.lock();
            let node = rs.entry(obj)?.node;
            return rs.hier.children_of(node);
        }
        self.meta.list(obj)
    }

    fn obj_kind(&self, obj: ObjId) -> H5Result<ObjKind> {
        if obj & REMOTE_BIT != 0 {
            let rs = self.remote.lock();
            let node = rs.entry(obj)?.node;
            return Ok(rs.hier.node(node)?.obj_kind());
        }
        self.meta.obj_kind(obj)
    }

    fn object_close(&self, obj: ObjId) -> H5Result<()> {
        if obj & REMOTE_BIT != 0 {
            self.remote.lock().entries.remove(&obj);
            return Ok(());
        }
        self.meta.object_close(obj)
    }
}
