//! A DataSpaces-style staging service (Fig. 8 comparator).
//!
//! DataSpaces provides "a shared space consisting of a set of HPC
//! computing nodes that act as a distributed staging server for client
//! (producer and consumer) tasks", with an n-dimensional-array put/get
//! API. Following the paper's methodology we implement the
//! `dspaces_put_local` variant: the staging servers hold **only indexing
//! metadata** — registered bounding boxes and their owners — while the
//! data stay in the producers' memory and consumers pull them directly.
//!
//! Resource cost is explicit: the servers occupy extra ranks that LowFive
//! does not need (the paper used 4 extra nodes at full scale). The data
//! model is deliberately restricted to n-d arrays of fixed-size elements —
//! no hierarchy, no attributes, no datatypes — which is the other half of
//! the paper's comparison.

use std::collections::HashMap;

use bytes::Bytes;
use parking_lot::Mutex;
use simmpi::Comm;

use diyblk::rpc::{Caller, RpcClient, RpcServer, ServeOutcome};
use minih5::codec::{Reader, Writer};
use minih5::{BBox, H5Error, H5Result};

use crate::boxes::{local_offset, BoxCoords};

const DS_PUT: u32 = 0x10;
const DS_QUERY: u32 = 0x11;
const DS_FETCH: u32 = 0x12;
const DS_DONE: u32 = 0x13;

/// Static layout of a DataSpaces deployment: which world ranks are
/// staging servers, producers, and consumers.
#[derive(Debug, Clone)]
pub struct DsConfig {
    pub servers: Vec<usize>,
    pub producers: Vec<usize>,
    pub consumers: Vec<usize>,
}

impl DsConfig {
    /// Home server for a named, versioned array: the FNV-1a hash of its
    /// key modulo the server count, so every client picks the same one.
    /// An empty server list is a typed error, not a modulo-by-zero panic.
    fn home_server(&self, name: &str, version: u64) -> H5Result<usize> {
        if self.servers.is_empty() {
            return Err(H5Error::Vol("DataSpaces deployment has no staging servers".into()));
        }
        let h = fnv1a(key(name, version).as_bytes());
        Ok(self.servers[(h % self.servers.len() as u64) as usize])
    }
}

fn key(name: &str, version: u64) -> String {
    format!("{name}@{version}")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run a staging server rank: index puts, answer queries, exit when every
/// consumer has called [`DsClient::done`].
///
/// A key (named, versioned array) becomes *ready* once every producer has
/// registered its put for it — like DataSpaces' versioned gets, queries
/// arriving earlier are held and answered when the version completes.
/// Every producer is expected to contribute exactly one put per key.
pub fn run_server(world: &Comm, cfg: &DsConfig) {
    let mut index: HashMap<String, Vec<(BBox, u64)>> = HashMap::new();
    let mut pending: HashMap<String, Vec<(Caller, BBox)>> = HashMap::new();
    let mut dones = 0usize;
    let expected_puts = cfg.producers.len();
    let expected_dones = cfg.consumers.len();
    let answer = |index: &HashMap<String, Vec<(BBox, u64)>>, k: &str, qbb: &BBox| {
        let mut w = Writer::new();
        let hits: Vec<&(BBox, u64)> = index
            .get(k)
            .map(|v| v.iter().filter(|(bb, _)| bb.intersects(qbb)).collect())
            .unwrap_or_default();
        w.put_u64(hits.len() as u64);
        for (bb, owner) in hits {
            w.put_u64(*owner);
            w.put(bb);
        }
        w.finish()
    };
    RpcServer::new(world).serve(|caller, method, args| match method {
        DS_PUT => {
            let mut r = Reader::new(&args);
            let k = r.get_str().expect("key");
            let owner = r.get_u64().expect("owner");
            let bb: BBox = r.get().expect("bbox");
            let entry = index.entry(k.clone()).or_default();
            entry.push((bb, owner));
            if entry.len() == expected_puts {
                // Version complete: release queries that arrived early.
                for (waiter, qbb) in pending.remove(&k).unwrap_or_default() {
                    diyblk::rpc::send_reply(world, waiter, answer(&index, &k, &qbb));
                }
            }
            ServeOutcome::Reply(Bytes::new()) // ack
        }
        DS_QUERY => {
            let mut r = Reader::new(&args);
            let k = r.get_str().expect("key");
            let qbb: BBox = r.get().expect("query box");
            if index.get(&k).map(|v| v.len()).unwrap_or(0) >= expected_puts {
                ServeOutcome::Reply(answer(&index, &k, &qbb))
            } else {
                pending.entry(k).or_default().push((caller, qbb));
                ServeOutcome::Continue
            }
        }
        DS_DONE => {
            dones += 1;
            if dones == expected_dones {
                ServeOutcome::Stop(None)
            } else {
                ServeOutcome::Continue
            }
        }
        m => panic!("unknown DataSpaces method {m}"),
    });
}

/// Encode the pieces of `entries` intersecting `qbb`.
fn answer_pieces(entries: &[(BBox, Bytes)], qbb: &BBox, es: usize) -> Bytes {
    let mut w = Writer::new();
    let hits: Vec<&(BBox, Bytes)> = entries.iter().filter(|(bb, _)| bb.intersects(qbb)).collect();
    w.put_u64(hits.len() as u64);
    for (bb, data) in hits {
        let ibox = bb.intersect(qbb);
        w.put(&ibox);
        let mut body = Vec::with_capacity((ibox.npoints() as usize) * es);
        for_each_row(&ibox, |row_start, row_len| {
            let off = local_offset(bb, row_start) * es;
            body.extend_from_slice(&data[off..off + row_len * es]);
        });
        w.put_bytes(&body);
    }
    w.finish()
}

/// A producer or consumer client.
pub struct DsClient {
    world: Comm,
    cfg: DsConfig,
    /// Local store behind `put_local`: the data never leave the producer
    /// until a consumer fetches them.
    puts: Mutex<HashMap<String, Vec<(BBox, Bytes)>>>,
}

impl DsClient {
    pub fn new(world: Comm, cfg: DsConfig) -> Self {
        DsClient { world, cfg, puts: Mutex::default() }
    }

    /// Register an n-d array region under `(name, version)`. Only the
    /// bounding box and owner travel to the staging server; the data stay
    /// local (`dspaces_put_local`). Fails (typed) on an empty server
    /// list.
    pub fn put_local(&self, name: &str, version: u64, bbox: BBox, data: Bytes) -> H5Result<()> {
        let server = self.cfg.home_server(name, version)?;
        let k = key(name, version);
        self.puts.lock().entry(k.clone()).or_default().push((bbox.clone(), data));
        let mut w = Writer::new();
        w.put_str(&k);
        w.put_u64(self.world.rank() as u64);
        w.put(&bbox);
        // Wait for the ack so the registration is visible before we serve.
        let _ = RpcClient::new(&self.world).call(server, DS_PUT, &w.finish());
        Ok(())
    }

    /// Producer: answer direct fetches until every consumer is done.
    pub fn serve_local(&self) {
        let mut dones = 0usize;
        let expected = self.cfg.consumers.len();
        RpcServer::new(&self.world).serve(|_caller, method, args| match method {
            DS_FETCH => {
                let mut r = Reader::new(&args);
                let k = r.get_str().expect("key");
                let qbb: BBox = r.get().expect("query box");
                let es = r.get_u64().expect("element size") as usize;
                ServeOutcome::Reply(self.answer_fetch(&k, &qbb, es))
            }
            DS_DONE => {
                dones += 1;
                if dones == expected {
                    ServeOutcome::Stop(None)
                } else {
                    ServeOutcome::Continue
                }
            }
            m => panic!("unknown DataSpaces method {m}"),
        });
    }

    fn answer_fetch(&self, k: &str, qbb: &BBox, es: usize) -> Bytes {
        let puts = self.puts.lock();
        let entries = puts.get(k).map(|v| v.as_slice()).unwrap_or(&[]);
        answer_pieces(entries, qbb, es)
    }

    /// Consumer: fetch the elements of `qbox` (row-major packed). `es` is
    /// the element size in bytes.
    pub fn get(&self, name: &str, version: u64, qbox: &BBox, es: usize) -> H5Result<Vec<u8>> {
        let k = key(name, version);
        let rpc = RpcClient::new(&self.world);
        // 1. Ask the staging server who owns intersecting regions.
        let server = self.cfg.home_server(name, version)?;
        let mut w = Writer::new();
        w.put_str(&k);
        w.put(qbox);
        let reply = rpc.call(server, DS_QUERY, &w.finish());
        let mut r = Reader::new(&reply);
        let n = r.get_u64()? as usize;
        let mut owners: Vec<(u64, BBox)> = Vec::with_capacity(n);
        for _ in 0..n {
            let owner = r.get_u64()?;
            let bb: BBox = r.get()?;
            owners.push((owner, bb));
        }
        // 2. Pull directly from each owning producer.
        let mut out = vec![0u8; (qbox.npoints() as usize) * es];
        let mut seen: Vec<u64> = Vec::new();
        for (owner, _bb) in owners {
            if seen.contains(&owner) {
                continue;
            }
            seen.push(owner);
            let mut w = Writer::new();
            w.put_str(&k);
            w.put(qbox);
            w.put_u64(es as u64);
            let reply = rpc.call(owner as usize, DS_FETCH, &w.finish());
            let mut r = Reader::new(&reply);
            let pieces = r.get_u64()? as usize;
            for _ in 0..pieces {
                let ibox: BBox = r.get()?;
                let body = r.get_bytes()?;
                let mut p = 0usize;
                for_each_row(&ibox, |row_start, row_len| {
                    let off = local_offset(qbox, row_start) * es;
                    out[off..off + row_len * es].copy_from_slice(&body[p..p + row_len * es]);
                    p += row_len * es;
                });
            }
        }
        Ok(out)
    }

    /// Consumer: release the servers and producers.
    pub fn done(&self) {
        let rpc = RpcClient::new(&self.world);
        for &s in &self.cfg.servers {
            rpc.notify(s, DS_DONE, &[]);
        }
        for &p in &self.cfg.producers {
            rpc.notify(p, DS_DONE, &[]);
        }
    }
}

/// Invoke `f(row_start_coord, row_len)` for every contiguous row of `bb`
/// (contiguity along the last dimension).
fn for_each_row(bb: &BBox, mut f: impl FnMut(&[u64], usize)) {
    if bb.is_empty() {
        return;
    }
    let d = bb.rank();
    if d == 0 {
        return;
    }
    let row_len = (bb.hi[d - 1] - bb.lo[d - 1]) as usize;
    if d == 1 {
        f(&bb.lo, row_len);
        return;
    }
    // Iterate the outer dims via a reduced box, appending the row start.
    let outer = BBox::new(bb.lo[..d - 1].to_vec(), bb.hi[..d - 1].to_vec());
    let mut coord = vec![0u64; d];
    for c in BoxCoords::new(&outer) {
        coord[..d - 1].copy_from_slice(&c);
        coord[d - 1] = bb.lo[d - 1];
        f(&coord, row_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simmpi::{TaskSpec, TaskWorld};

    fn setup(tc: &simmpi::TaskComm) -> DsConfig {
        DsConfig {
            producers: (0..tc.task_size(0)).map(|r| tc.world_rank_of(0, r)).collect(),
            servers: (0..tc.task_size(1)).map(|r| tc.world_rank_of(1, r)).collect(),
            consumers: (0..tc.task_size(2)).map(|r| tc.world_rank_of(2, r)).collect(),
        }
    }

    /// 2 producers (row halves) + 1 staging server + 2 consumers (column
    /// halves) on a 2-d grid of u64.
    #[test]
    fn put_local_get_roundtrip() {
        const N: u64 = 8;
        let specs =
            [TaskSpec::new("prod", 2), TaskSpec::new("staging", 1), TaskSpec::new("cons", 2)];
        TaskWorld::run(&specs, |tc| {
            let cfg = setup(&tc);
            match tc.task_id {
                0 => {
                    let client = DsClient::new(tc.world.clone(), cfg);
                    let r = tc.local.rank() as u64;
                    let bb = BBox::new(vec![r * 4, 0], vec![r * 4 + 4, N]);
                    let data: Vec<u8> =
                        BoxCoords::new(&bb).flat_map(|c| (c[0] * N + c[1]).to_le_bytes()).collect();
                    client.put_local("grid", 0, bb, data.into()).unwrap();
                    client.serve_local();
                }
                1 => run_server(&tc.world, &cfg),
                _ => {
                    let client = DsClient::new(tc.world.clone(), cfg);
                    let r = tc.local.rank() as u64;
                    let qbox = BBox::new(vec![0, r * 4], vec![N, r * 4 + 4]);
                    let got = client.get("grid", 0, &qbox, 8).unwrap();
                    for (i, c) in BoxCoords::new(&qbox).enumerate() {
                        let v = u64::from_le_bytes(got[i * 8..i * 8 + 8].try_into().unwrap());
                        assert_eq!(v, c[0] * N + c[1]);
                    }
                    client.done();
                }
            }
        });
    }

    /// Multiple named arrays and versions (time steps) coexist.
    #[test]
    fn versions_and_names_are_distinct() {
        let specs =
            [TaskSpec::new("prod", 1), TaskSpec::new("staging", 2), TaskSpec::new("cons", 1)];
        TaskWorld::run(&specs, |tc| {
            let cfg = setup(&tc);
            match tc.task_id {
                0 => {
                    let client = DsClient::new(tc.world.clone(), cfg);
                    let bb = BBox::new(vec![0], vec![4]);
                    for ver in 0..3u64 {
                        let data: Vec<u8> =
                            (0..4u64).flat_map(|i| (i + 100 * ver).to_le_bytes()).collect();
                        client.put_local("x", ver, bb.clone(), data.into()).unwrap();
                    }
                    let other: Vec<u8> = (0..4u64).flat_map(|i| (i + 7).to_le_bytes()).collect();
                    client.put_local("y", 0, bb.clone(), other.into()).unwrap();
                    client.serve_local();
                }
                1 => run_server(&tc.world, &cfg),
                _ => {
                    let client = DsClient::new(tc.world.clone(), cfg);
                    let bb = BBox::new(vec![0], vec![4]);
                    for ver in [2u64, 0, 1] {
                        let got = client.get("x", ver, &bb, 8).unwrap();
                        let v0 = u64::from_le_bytes(got[0..8].try_into().unwrap());
                        assert_eq!(v0, 100 * ver);
                    }
                    let goty = client.get("y", 0, &bb, 8).unwrap();
                    assert_eq!(u64::from_le_bytes(goty[0..8].try_into().unwrap()), 7);
                    client.done();
                }
            }
        });
    }

    #[test]
    fn get_outside_any_put_returns_zeros() {
        let specs =
            [TaskSpec::new("prod", 1), TaskSpec::new("staging", 1), TaskSpec::new("cons", 1)];
        TaskWorld::run(&specs, |tc| {
            let cfg = setup(&tc);
            match tc.task_id {
                0 => {
                    let client = DsClient::new(tc.world.clone(), cfg);
                    client
                        .put_local("x", 0, BBox::new(vec![0], vec![2]), vec![1u8, 2].into())
                        .unwrap();
                    client.serve_local();
                }
                1 => run_server(&tc.world, &cfg),
                _ => {
                    let client = DsClient::new(tc.world.clone(), cfg);
                    let got = client.get("x", 0, &BBox::new(vec![10], vec![12]), 1).unwrap();
                    assert_eq!(got, vec![0, 0]);
                    client.done();
                }
            }
        });
    }

    /// No staging servers: every operation that needs a home server is a
    /// typed error, never a modulo-by-zero panic.
    #[test]
    fn empty_server_list_is_a_typed_error() {
        simmpi::World::run(1, |c| {
            let cfg = DsConfig { servers: vec![], producers: vec![0], consumers: vec![0] };
            let client = DsClient::new(c, cfg);
            let bb = BBox::new(vec![0], vec![2]);
            let put = client.put_local("x", 0, bb.clone(), vec![1u8, 2].into());
            assert!(matches!(put, Err(H5Error::Vol(_))), "put_local: {put:?}");
            let got = client.get("x", 0, &bb, 1);
            assert!(matches!(got, Err(H5Error::Vol(_))), "get: {got:?}");
        });
    }

    #[test]
    fn row_iteration_3d() {
        let bb = BBox::new(vec![1, 0, 2], vec![3, 2, 5]);
        let mut rows = Vec::new();
        for_each_row(&bb, |start, len| rows.push((start.to_vec(), len)));
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|(_, len)| *len == 3));
        assert_eq!(rows[0].0, vec![1, 0, 2]);
        assert_eq!(rows[3].0, vec![2, 1, 2]);
    }
}
