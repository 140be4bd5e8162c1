//! End-to-end transport runners: each executes one producer→consumer
//! exchange of the synthetic workload over one transport and reports the
//! completion time (max over ranks), plus transport statistics.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use baselines::bredala::{self, Field};
use baselines::dataspaces::{run_server, DsClient, DsConfig};
use baselines::puempi;
use lowfive::{DistVolBuilder, LowFiveProps};
use minih5::{BBox, Dataspace, Datatype, Ownership, Selection, Vol, H5};
use simmpi::{CostModel, TaskComm, TaskSpec, TaskWorld};

use crate::workload::Workload;

/// One run's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Completion time: max over all ranks of (exchange end − start
    /// barrier), in seconds.
    pub seconds: f64,
    /// Messages delivered during the whole run.
    pub messages: u64,
    /// Payload bytes delivered during the whole run.
    pub bytes: u64,
}

/// Bredala's timing decomposed as in Fig. 9.
#[derive(Debug, Clone, Copy)]
pub struct BredalaMeasurement {
    pub total: f64,
    pub grid: f64,
    pub particles: f64,
}

fn world_ranks(tc: &TaskComm, task_id: usize) -> Vec<usize> {
    (0..tc.task_size(task_id)).map(|r| tc.world_rank_of(task_id, r)).collect()
}

/// Measure `work` across the whole world: barrier, run, allreduce-max.
fn timed(tc: &TaskComm, work: impl FnOnce()) -> f64 {
    tc.world.barrier();
    let t0 = Instant::now();
    work();
    let dt = t0.elapsed().as_secs_f64();
    tc.world.allreduce_one::<f64, _>(dt, f64::max)
}

fn grid_bytes(w: &Workload, bb: &BBox) -> Vec<u8> {
    w.grid_values(bb).iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// LowFive memory mode (Figs. 5, 7, 8, 9, 11): producers write both
/// datasets through the distributed VOL and serve; consumers read their
/// slabs.
pub fn run_lowfive_memory(w: &Workload) -> Measurement {
    run_lowfive(w, true, None, None)
}

/// LowFive file mode (Figs. 5, 6): same API calls, but the data go to a
/// shared file in `dir` and the consumers read it back from storage.
pub fn run_lowfive_file(w: &Workload, dir: &Path) -> Measurement {
    run_lowfive(w, false, Some(dir), None)
}

/// As [`run_lowfive_memory`], recording spans/counters/histograms into
/// `observe` so callers can export a Chrome trace and metrics JSON next
/// to the timing numbers.
pub fn run_lowfive_memory_traced(w: &Workload, observe: &obsv::Registry) -> Measurement {
    run_lowfive(w, true, None, Some(observe))
}

/// As [`run_lowfive_file`], traced (see [`run_lowfive_memory_traced`]).
pub fn run_lowfive_file_traced(w: &Workload, dir: &Path, observe: &obsv::Registry) -> Measurement {
    run_lowfive(w, false, Some(dir), Some(observe))
}

fn run_lowfive(
    w: &Workload,
    memory: bool,
    dir: Option<&Path>,
    observe: Option<&obsv::Registry>,
) -> Measurement {
    let filename = match dir {
        Some(d) => d.join("lowfive-sweep.nh5").to_str().expect("utf-8 path").to_string(),
        None => "sweep.h5".to_string(),
    };
    let specs = [TaskSpec::new("producer", w.producers), TaskSpec::new("consumer", w.consumers)];
    let w = *w;
    let world = TaskWorld::builder(&specs);
    let world = if let Some(reg) = observe { world.observe(reg.clone()) } else { world };
    let out = world.run(move |tc| {
        let _task = obsv::span_tagged(obsv::Phase::Task, tc.task_id as u64);
        let mut props = LowFiveProps::new();
        if !memory {
            props.set_memory("*", false).set_passthrough("*", true);
        }
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("*", consumers)
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("*", producers)
                .build()
        };
        let h5 = H5::with_vol(vol);
        let gdims = w.grid_dims();
        // Prepare payloads outside the timed section.
        let (gsel, gdata, prange, pdata, csel, crange) = if tc.task_id == 0 {
            let p = tc.local.rank();
            let bb = w.producer_grid_box(p);
            let gdata = grid_bytes(&w, &bb);
            let prange = w.producer_part_range(p);
            let pdata = w.particle_bytes(prange);
            (Some(bb.to_selection()), gdata, prange, pdata, None, (0, 0))
        } else {
            let c = tc.local.rank();
            (
                None,
                Vec::new(),
                (0, 0),
                Vec::new(),
                Some(w.consumer_grid_sel(c)),
                w.consumer_part_range(c),
            )
        };
        timed(&tc, || {
            if tc.task_id == 0 {
                let f = h5.create_file(&filename).expect("create");
                let dg = f
                    .create_dataset("grid", Datatype::UInt64, Dataspace::simple(&gdims))
                    .expect("grid dataset");
                dg.write_bytes(&gsel.expect("producer sel"), gdata.into(), Ownership::Shallow)
                    .expect("grid write");
                let dp = f
                    .create_dataset(
                        "particles",
                        Datatype::vector(Datatype::Float32, 3),
                        Dataspace::simple(&[w.total_particles()]),
                    )
                    .expect("particles dataset");
                dp.write_bytes(
                    &Selection::block(&[prange.0], &[prange.1 - prange.0]),
                    pdata.into(),
                    Ownership::Shallow,
                )
                .expect("particles write");
                f.close().expect("close (index + serve)");
                if !memory {
                    // File mode has no serve; consumers wait on a barrier.
                    tc.world.barrier();
                }
            } else {
                if !memory {
                    tc.world.barrier();
                }
                let f = h5.open_file(&filename).expect("open");
                let dg = f.open_dataset("grid").expect("grid");
                let _grid = dg.read_bytes(&csel.expect("consumer sel")).expect("grid read");
                let dp = f.open_dataset("particles").expect("particles");
                let _parts = dp
                    .read_bytes(&Selection::block(&[crange.0], &[crange.1 - crange.0]))
                    .expect("particles read");
                f.close().expect("consumer close");
            }
        })
    });
    Measurement { seconds: out.results[0], messages: out.stats.messages, bytes: out.stats.bytes }
}

/// Fig. 5 multi-read variant: the same memory-mode grid exchange, with
/// each consumer's slab read as two x-chunks per producer in one
/// `read_bytes_multi` (one `M_DATA_BATCH` frame per producer, all
/// round-trips overlapped). `cost` adds per-message interconnect latency.
pub fn run_lowfive_fetch(w: &Workload, cost: Option<CostModel>) -> Measurement {
    let specs = [TaskSpec::new("producer", w.producers), TaskSpec::new("consumer", w.consumers)];
    let w = *w;
    let world = TaskWorld::builder(&specs);
    let world = if let Some(cm) = cost { world.cost_model(cm) } else { world };
    let out = world.run(move |tc| {
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).produce("*", consumers).build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone()).consume("*", producers).build()
        };
        let h5 = H5::with_vol(vol);
        let gdims = w.grid_dims();
        let (gsel, gdata, chunks) = if tc.task_id == 0 {
            let bb = w.producer_grid_box(tc.local.rank());
            let gdata = grid_bytes(&w, &bb);
            (Some(bb.to_selection()), gdata, Vec::new())
        } else {
            // Two x-chunks per producer: each chunk is owned by exactly
            // one producer, and the batched fan-out coalesces the two
            // chunks per producer into a single frame.
            let bb = w.consumer_grid_box(tc.local.rank());
            let n = 2 * w.producers as u64;
            let chunks: Vec<Selection> = (0..n)
                .map(|i| {
                    let mut chunk = bb.clone();
                    chunk.lo[0] = bb.hi[0] * i / n;
                    chunk.hi[0] = bb.hi[0] * (i + 1) / n;
                    chunk.to_selection()
                })
                .collect();
            (None, Vec::new(), chunks)
        };
        timed(&tc, || {
            if tc.task_id == 0 {
                let f = h5.create_file("fetch-mode.h5").expect("create");
                let dg = f
                    .create_dataset("grid", Datatype::UInt64, Dataspace::simple(&gdims))
                    .expect("grid dataset");
                dg.write_bytes(&gsel.expect("producer sel"), gdata.into(), Ownership::Shallow)
                    .expect("grid write");
                f.close().expect("close (index + serve)");
            } else {
                let f = h5.open_file("fetch-mode.h5").expect("open");
                let dg = f.open_dataset("grid").expect("grid");
                let _bufs = dg.read_bytes_multi(&chunks).expect("multi read");
                f.close().expect("consumer close");
            }
        })
    });
    Measurement { seconds: out.results[0], messages: out.stats.messages, bytes: out.stats.bytes }
}

/// Fig. 5 serve-ownership variant: the same memory-mode grid exchange
/// with the zero-copy rule toggled. The producers' serve loops answer
/// data queries by *lending* refcounted sub-slices of the written regions
/// straight into the reply frames — no dataset byte is copied between
/// the region and the wire, so both runs must report exactly zero
/// `obsv::Ctr::BytesCopied` (CI asserts it on the exported metrics).
/// With `!shallow` every region is deep, so the deep run isolates the
/// write-time copy of each written byte into the VOL.
/// `cost` charges interconnect latency/bandwidth per delivered message
/// so the A/B compares realistic wire times, not just memcpy time.
pub fn run_lowfive_serve(
    w: &Workload,
    shallow: bool,
    cost: Option<CostModel>,
    observe: Option<&obsv::Registry>,
) -> Measurement {
    let specs = [TaskSpec::new("producer", w.producers), TaskSpec::new("consumer", w.consumers)];
    let w = *w;
    let world = TaskWorld::builder(&specs);
    let world = if let Some(cm) = cost { world.cost_model(cm) } else { world };
    let world = if let Some(reg) = observe { world.observe(reg.clone()) } else { world };
    let out = world.run(move |tc| {
        let _task = obsv::span_tagged(obsv::Phase::Task, tc.task_id as u64);
        let mut props = LowFiveProps::new();
        props.set_zerocopy("*", "*", shallow);
        let producers = world_ranks(&tc, 0);
        let consumers = world_ranks(&tc, 1);
        let vol: Arc<dyn Vol> = if tc.task_id == 0 {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("*", consumers)
                .build()
        } else {
            DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("*", producers)
                .build()
        };
        let h5 = H5::with_vol(vol);
        let gdims = w.grid_dims();
        let (gsel, gdata, csel) = if tc.task_id == 0 {
            let bb = w.producer_grid_box(tc.local.rank());
            let gdata = grid_bytes(&w, &bb);
            (Some(bb.to_selection()), gdata, None)
        } else {
            (None, Vec::new(), Some(w.consumer_grid_sel(tc.local.rank())))
        };
        timed(&tc, || {
            if tc.task_id == 0 {
                let f = h5.create_file("serve-mode.h5").expect("create");
                let dg = f
                    .create_dataset("grid", Datatype::UInt64, Dataspace::simple(&gdims))
                    .expect("grid dataset");
                dg.write_bytes(&gsel.expect("producer sel"), gdata.into(), Ownership::Shallow)
                    .expect("grid write");
                f.close().expect("close (index + serve)");
            } else {
                let f = h5.open_file("serve-mode.h5").expect("open");
                let dg = f.open_dataset("grid").expect("grid");
                let _slab = dg.read_bytes(csel.as_ref().expect("consumer sel")).expect("read");
                f.close().expect("consumer close");
            }
        })
    });
    Measurement { seconds: out.results[0], messages: out.stats.messages, bytes: out.stats.bytes }
}

/// Pure HDF5 (Fig. 6): the same file exchange without any LowFive layer —
/// producers write the shared file through the native parallel connector,
/// consumers read it back.
pub fn run_pure_hdf5(w: &Workload, dir: &Path) -> Measurement {
    let filename = dir.join("pure-hdf5.nh5").to_str().expect("utf-8 path").to_string();
    let specs = [TaskSpec::new("producer", w.producers), TaskSpec::new("consumer", w.consumers)];
    let w = *w;
    let out = TaskWorld::builder(&specs).run(move |tc| {
        let gdims = w.grid_dims();
        let local = tc.local.clone();
        let vol: Arc<dyn Vol> =
            Arc::new(minih5::native::NativeVol::parallel(local.rank(), move || local.barrier()));
        let h5 = H5::with_vol(vol);
        let (gsel, gdata, prange, pdata, csel, crange) = if tc.task_id == 0 {
            let p = tc.local.rank();
            let bb = w.producer_grid_box(p);
            (
                Some(bb.to_selection()),
                grid_bytes(&w, &bb),
                w.producer_part_range(p),
                w.particle_bytes(w.producer_part_range(p)),
                None,
                (0, 0),
            )
        } else {
            let c = tc.local.rank();
            (
                None,
                Vec::new(),
                (0, 0),
                Vec::new(),
                Some(w.consumer_grid_sel(c)),
                w.consumer_part_range(c),
            )
        };
        timed(&tc, || {
            if tc.task_id == 0 {
                let f = h5.create_file(&filename).expect("create");
                let dg = f
                    .create_dataset("grid", Datatype::UInt64, Dataspace::simple(&gdims))
                    .expect("grid dataset");
                dg.write_bytes(&gsel.expect("sel"), gdata.into(), Ownership::Deep)
                    .expect("grid write");
                let dp = f
                    .create_dataset(
                        "particles",
                        Datatype::vector(Datatype::Float32, 3),
                        Dataspace::simple(&[w.total_particles()]),
                    )
                    .expect("particles dataset");
                dp.write_bytes(
                    &Selection::block(&[prange.0], &[prange.1 - prange.0]),
                    pdata.into(),
                    Ownership::Deep,
                )
                .expect("particles write");
                f.close().expect("close");
                tc.world.barrier();
            } else {
                tc.world.barrier();
                let f = h5.open_file(&filename).expect("open");
                let dg = f.open_dataset("grid").expect("grid");
                let _grid = dg.read_bytes(&csel.expect("sel")).expect("grid read");
                let dp = f.open_dataset("particles").expect("particles");
                let _parts = dp
                    .read_bytes(&Selection::block(&[crange.0], &[crange.1 - crange.0]))
                    .expect("particles read");
                f.close().expect("close");
            }
        })
    });
    Measurement { seconds: out.results[0], messages: out.stats.messages, bytes: out.stats.bytes }
}

/// Hand-written pure MPI (Figs. 7, 11): static decompositions, one
/// message per intersecting pair, per-point serialization.
pub fn run_pure_mpi(w: &Workload) -> Measurement {
    let specs = [TaskSpec::new("producer", w.producers), TaskSpec::new("consumer", w.consumers)];
    let w = *w;
    let out = TaskWorld::builder(&specs).run(move |tc| {
        let prod_grid: Vec<(usize, BBox)> =
            (0..w.producers).map(|p| (tc.world_rank_of(0, p), w.producer_grid_box(p))).collect();
        let cons_grid: Vec<(usize, BBox)> =
            (0..w.consumers).map(|c| (tc.world_rank_of(1, c), w.consumer_grid_box(c))).collect();
        let prod_parts: Vec<(usize, BBox)> = (0..w.producers)
            .map(|p| {
                let (s, e) = w.producer_part_range(p);
                (tc.world_rank_of(0, p), BBox::new(vec![s], vec![e]))
            })
            .collect();
        let cons_parts: Vec<(usize, BBox)> = (0..w.consumers)
            .map(|c| {
                let (s, e) = w.consumer_part_range(c);
                (tc.world_rank_of(1, c), BBox::new(vec![s], vec![e]))
            })
            .collect();
        let (gdata, pdata, gbox, pbox) = if tc.task_id == 0 {
            let p = tc.local.rank();
            let gbox = w.producer_grid_box(p);
            let gdata = grid_bytes(&w, &gbox);
            let pr = w.producer_part_range(p);
            (gdata, w.particle_bytes(pr), gbox, BBox::new(vec![pr.0], vec![pr.1]))
        } else {
            let c = tc.local.rank();
            let (s, e) = w.consumer_part_range(c);
            (Vec::new(), Vec::new(), w.consumer_grid_box(c), BBox::new(vec![s], vec![e]))
        };
        timed(&tc, || {
            if tc.task_id == 0 {
                puempi::send_grid(&tc.world, 21, 8, &gbox, &gdata, &cons_grid);
                puempi::send_grid(&tc.world, 22, 12, &pbox, &pdata, &cons_parts);
            } else {
                let _grid = puempi::recv_grid(&tc.world, 21, 8, &gbox, &prod_grid);
                let _parts = puempi::recv_grid(&tc.world, 22, 12, &pbox, &prod_parts);
            }
        })
    });
    Measurement { seconds: out.results[0], messages: out.stats.messages, bytes: out.stats.bytes }
}

/// DataSpaces (Figs. 8, 11): `staging` extra server ranks index
/// `put_local` registrations; consumers query then pull directly from
/// producers.
pub fn run_dataspaces(w: &Workload, staging: usize) -> Measurement {
    assert!(staging > 0);
    let specs = [
        TaskSpec::new("producer", w.producers),
        TaskSpec::new("staging", staging),
        TaskSpec::new("consumer", w.consumers),
    ];
    let w = *w;
    let out = TaskWorld::builder(&specs).run(move |tc| {
        let cfg = DsConfig {
            producers: world_ranks(&tc, 0),
            servers: world_ranks(&tc, 1),
            consumers: world_ranks(&tc, 2),
        };
        let (gbox, gdata, pbox, pdata) = if tc.task_id == 0 {
            let p = tc.local.rank();
            let gbox = w.producer_grid_box(p);
            let gdata = grid_bytes(&w, &gbox);
            let (s, e) = w.producer_part_range(p);
            (gbox, gdata, BBox::new(vec![s], vec![e]), w.particle_bytes((s, e)))
        } else if tc.task_id == 2 {
            let c = tc.local.rank();
            let (s, e) = w.consumer_part_range(c);
            (w.consumer_grid_box(c), Vec::new(), BBox::new(vec![s], vec![e]), Vec::new())
        } else {
            (BBox::new(vec![0], vec![0]), Vec::new(), BBox::new(vec![0], vec![0]), Vec::new())
        };
        timed(&tc, || match tc.task_id {
            0 => {
                let client = DsClient::new(tc.world.clone(), cfg.clone());
                client.put_local("grid", 0, gbox.clone(), gdata.clone().into()).unwrap();
                client.put_local("particles", 0, pbox.clone(), pdata.clone().into()).unwrap();
                client.serve_local();
            }
            1 => run_server(&tc.world, &cfg),
            _ => {
                let client = DsClient::new(tc.world.clone(), cfg.clone());
                let _grid = client.get("grid", 0, &gbox, 8).expect("grid get");
                let _parts = client.get("particles", 0, &pbox, 12).expect("particles get");
                client.done();
            }
        })
    });
    Measurement { seconds: out.results[0], messages: out.stats.messages, bytes: out.stats.bytes }
}

/// Outcome of one step-streaming run (see [`run_streaming`]).
#[derive(Debug, Clone, Copy)]
pub struct StreamingOutcome {
    /// Steps the producer published.
    pub steps: u64,
    /// Wall seconds of the producer's publish loop (excludes the final
    /// drain wait), max over producer ranks.
    pub seconds: f64,
    /// Producer step rate: `steps / seconds`.
    pub rate: f64,
    /// `steps_published` counter summed over all lanes.
    pub published: u64,
    /// `steps_dropped` counter summed over all lanes.
    pub dropped: u64,
    /// Did [`lowfive::StepPublisher::finish`] drain cleanly (every
    /// consumer acknowledged every step)?
    pub drained: bool,
}

/// Sustained-traffic streaming scenario (`streaming` experiment): one
/// fast producer rank publishes `steps` steps of a small dataset (a
/// ~0.5 ms write-and-publish loop) while `consumers` slow consumer ranks
/// follow with [`lowfive::StepPolicy::EveryStep`] at ~3 ms per step.
///
/// The interesting contrast is the back-pressure `mode`:
/// [`lowfive::BackPressure::DropOldest`] lets the producer run at its natural
/// rate and sheds steps (the CI job asserts the rate stays within 10% of
/// the unconsumed baseline), while [`lowfive::BackPressure::Block`] throttles the
/// publish loop down to the slowest consumer's pace and drops nothing.
/// With `subscribe` false the consumers never subscribe at all — that is
/// the baseline rate, and the final drain then necessarily times out
/// (`drained` is false).
///
/// Consumers verify every non-torn step's payload: dataset `x` of step
/// `n` holds the value `n` in every cell, so a stale or misrouted slot
/// read fails loudly rather than skewing the timing.
pub fn run_streaming(
    consumers: usize,
    steps: u64,
    mode: lowfive::BackPressure,
    subscribe: bool,
    observe: Option<&obsv::Registry>,
) -> StreamingOutcome {
    use lowfive::{StepPolicy, StepPublisher, StepSubscription};
    assert!(consumers > 0 && steps > 0);
    let own;
    let reg = match observe {
        Some(r) => r,
        None => {
            own = obsv::Registry::new();
            &own
        }
    };
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", consumers)];
    let out = TaskWorld::builder(&specs).observe(reg.clone()).run(move |tc| {
        let _task = obsv::span_tagged(obsv::Phase::Task, tc.task_id as u64);
        let mut props = LowFiveProps::new();
        props.set_stream_queue_depth("sim.h5", 4).set_stream_backpressure("sim.h5", mode);
        if tc.task_id == 0 {
            let consumers = world_ranks(&tc, 1);
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .produce("sim.h5@s*", consumers)
                .async_serve(true)
                .build();
            let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
            let publisher = StepPublisher::new(vol.clone(), "sim.h5").expect("publisher");
            let t0 = Instant::now();
            for n in 0..steps {
                let f = h5.create_file(&publisher.step_file()).expect("create slot");
                let d = f
                    .create_dataset("x", Datatype::UInt64, Dataspace::simple(&[64]))
                    .expect("step dataset");
                d.write_selection(&Selection::block(&[0], &[64]), &[n; 64]).expect("step write");
                f.close().expect("close slot");
                publisher.publish().expect("publish");
                // The producer's natural inter-step gap: fast, but not a
                // pure spin — the baseline rate must be reproducible.
                std::thread::sleep(std::time::Duration::from_micros(500));
            }
            let seconds = t0.elapsed().as_secs_f64();
            // Blocking mode with live consumers must drain every step;
            // otherwise bound the wait (an unconsumed baseline never
            // drains by construction).
            let grace = if subscribe {
                std::time::Duration::from_secs(30)
            } else {
                std::time::Duration::from_millis(50)
            };
            let drained = publisher.finish(Some(grace));
            vol.drain();
            (seconds, drained)
        } else {
            let producers = world_ranks(&tc, 0);
            let vol = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
                .props(props)
                .consume("sim.h5@s*", producers)
                .build();
            if subscribe {
                let h5 = H5::with_vol(vol.clone() as Arc<dyn Vol>);
                let mut sub =
                    StepSubscription::new(vol, "sim.h5", StepPolicy::EveryStep).expect("subscribe");
                while let Some(step) = sub.next_step().expect("next step") {
                    let f = h5.open_file(&step.file).expect("open step");
                    let d = f.open_dataset("x").expect("step dataset");
                    let got = d.read_all::<u64>().expect("step read");
                    f.close().expect("close step");
                    if !sub.is_torn(&step) {
                        assert_eq!(got, vec![step.seq; 64], "step {} payload", step.seq);
                    }
                    // The slow-consumer pace that creates back-pressure.
                    std::thread::sleep(std::time::Duration::from_millis(3));
                }
            }
            (0.0, true)
        }
    });
    let (seconds, drained) = out.results[0];
    let report = reg.report();
    StreamingOutcome {
        steps,
        seconds,
        rate: steps as f64 / seconds.max(1e-9),
        published: report.counter(obsv::Ctr::StepsPublished),
        dropped: report.counter(obsv::Ctr::StepsDropped),
        drained: out.results.iter().all(|&(_, d)| d) && drained,
    }
}

/// Bredala (Fig. 9): contiguous policy for the particles, bounding-box
/// policy for the grid, timed separately.
pub fn run_bredala(w: &Workload) -> BredalaMeasurement {
    let specs = [TaskSpec::new("producer", w.producers), TaskSpec::new("consumer", w.consumers)];
    let w = *w;
    let out = TaskWorld::run(&specs, move |tc| {
        let cons_grid: Vec<(usize, BBox)> =
            (0..w.consumers).map(|c| (tc.world_rank_of(1, c), w.consumer_grid_box(c))).collect();
        let prod_grid: Vec<(usize, BBox)> =
            (0..w.producers).map(|p| (tc.world_rank_of(0, p), w.producer_grid_box(p))).collect();
        let cons_parts: Vec<(usize, (u64, u64))> =
            (0..w.consumers).map(|c| (tc.world_rank_of(1, c), w.consumer_part_range(c))).collect();
        let prod_parts: Vec<(usize, (u64, u64))> =
            (0..w.producers).map(|p| (tc.world_rank_of(0, p), w.producer_part_range(p))).collect();

        // Build the container (producer side).
        let container = if tc.task_id == 0 {
            let p = tc.local.rank();
            let gbox = w.producer_grid_box(p);
            let gdata = grid_bytes(&w, &gbox);
            let pr = w.producer_part_range(p);
            let mut c = bredala::Container::new();
            c.append(Field::bounding_box("grid", 8, gbox, gdata.into()));
            c.append(Field::contiguous("particles", 12, pr, w.particle_bytes(pr).into()));
            Some(c)
        } else {
            None
        };

        let t_grid = timed(&tc, || {
            if tc.task_id == 0 {
                let f =
                    container.as_ref().expect("producer container").field("grid").expect("grid");
                bredala::send_bbox(&tc.world, 31, f, &cons_grid);
            } else {
                let my = w.consumer_grid_box(tc.local.rank());
                let _grid = bredala::recv_bbox(&tc.world, 31, 8, &my, &prod_grid);
            }
        });
        let t_parts = timed(&tc, || {
            if tc.task_id == 0 {
                let f = container
                    .as_ref()
                    .expect("producer container")
                    .field("particles")
                    .expect("particles");
                bredala::send_contiguous(&tc.world, 32, f, &cons_parts);
            } else {
                let my = w.consumer_part_range(tc.local.rank());
                let _parts = bredala::recv_contiguous(&tc.world, 32, 12, my, &prod_parts);
            }
        });
        (t_grid, t_parts)
    });
    let (grid, particles) = out[0];
    BredalaMeasurement { total: grid + particles, grid, particles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::boxes::BoxCoords;

    fn small() -> Workload {
        Workload::paper_split(8, 512, 500)
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("bench-runners-test").join(name);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn all_transports_complete() {
        let w = small();
        assert!(run_lowfive_memory(&w).seconds >= 0.0);
        assert!(run_pure_mpi(&w).seconds >= 0.0);
        assert!(run_dataspaces(&w, 1).seconds >= 0.0);
        let b = run_bredala(&w);
        assert!(b.total >= b.grid.max(b.particles));
    }

    #[test]
    fn file_transports_complete() {
        let w = small();
        let d1 = tmpdir("lf");
        let d2 = tmpdir("h5");
        assert!(run_lowfive_file(&w, &d1).seconds >= 0.0);
        assert!(run_pure_hdf5(&w, &d2).seconds >= 0.0);
        assert!(d1.join("lowfive-sweep.nh5").exists());
        assert!(d2.join("pure-hdf5.nh5").exists());
    }

    #[test]
    fn memory_mode_moves_roughly_the_payload() {
        let w = small();
        let m = run_lowfive_memory(&w);
        // All data cross once, plus metadata/control; far less than 3x.
        assert!(
            m.bytes as f64 >= w.total_bytes() as f64 * 0.9,
            "{} vs {}",
            m.bytes,
            w.total_bytes()
        );
        assert!(m.bytes < w.total_bytes() * 3);
    }

    #[test]
    fn bredala_grid_sends_more_bytes_than_lowfive() {
        // Coordinate annotations inflate Bredala's grid traffic ~4x.
        let w = small();
        let lf = run_lowfive_memory(&w);
        let specs =
            [TaskSpec::new("producer", w.producers), TaskSpec::new("consumer", w.consumers)];
        let out = TaskWorld::builder(&specs).run(move |tc| {
            let cons: Vec<(usize, BBox)> = (0..w.consumers)
                .map(|c| (tc.world_rank_of(1, c), w.consumer_grid_box(c)))
                .collect();
            let prods: Vec<(usize, BBox)> = (0..w.producers)
                .map(|p| (tc.world_rank_of(0, p), w.producer_grid_box(p)))
                .collect();
            if tc.task_id == 0 {
                let gbox = w.producer_grid_box(tc.local.rank());
                let gdata = grid_bytes(&w, &gbox);
                let f = Field::bounding_box("grid", 8, gbox, gdata.into());
                bredala::send_bbox(&tc.world, 41, &f, &cons);
            } else {
                let my = w.consumer_grid_box(tc.local.rank());
                let _ = bredala::recv_bbox(&tc.world, 41, 8, &my, &prods);
            }
        });
        assert!(
            out.stats.bytes > lf.bytes,
            "bredala grid bytes {} should exceed lowfive total {}",
            out.stats.bytes,
            lf.bytes
        );
    }

    #[test]
    fn streaming_modes_complete() {
        // DropOldest with slow consumers: every step published, at least
        // one shed, and the stragglers still drain once the series ends.
        let drop = run_streaming(2, 12, lowfive::BackPressure::DropOldest, true, None);
        assert_eq!(drop.published, 12);
        assert!(drop.dropped >= 1, "slow consumers must force drops");
        assert!(drop.drained, "consumers catch up after the end");
        // Block never drops and drains cleanly.
        let block = run_streaming(2, 12, lowfive::BackPressure::Block, true, None);
        assert_eq!(block.published, 12);
        assert_eq!(block.dropped, 0, "Block mode is lossless");
        assert!(block.drained);
        // Unconsumed baseline: full rate, queue overflow, drain timeout.
        let base = run_streaming(2, 12, lowfive::BackPressure::DropOldest, false, None);
        assert_eq!(base.published, 12);
        assert_eq!(base.dropped, 12 - 4, "depth-4 queue keeps only the tail");
        assert!(!base.drained, "nobody consumed; the drain must time out");
    }

    #[test]
    fn pure_mpi_validates_grid_content() {
        // recv_grid output equals position-encoded values.
        let w = Workload::paper_split(4, 216, 100);
        let specs =
            [TaskSpec::new("producer", w.producers), TaskSpec::new("consumer", w.consumers)];
        TaskWorld::run(&specs, move |tc| {
            let prod: Vec<(usize, BBox)> = (0..w.producers)
                .map(|p| (tc.world_rank_of(0, p), w.producer_grid_box(p)))
                .collect();
            let cons: Vec<(usize, BBox)> = (0..w.consumers)
                .map(|c| (tc.world_rank_of(1, c), w.consumer_grid_box(c)))
                .collect();
            if tc.task_id == 0 {
                let bb = w.producer_grid_box(tc.local.rank());
                let data = grid_bytes(&w, &bb);
                puempi::send_grid(&tc.world, 51, 8, &bb, &data, &cons);
            } else {
                let bb = w.consumer_grid_box(tc.local.rank());
                let got = puempi::recv_grid(&tc.world, 51, 8, &bb, &prod);
                let expect = grid_bytes(&w, &bb);
                assert_eq!(got, expect);
                let _ = BoxCoords::new(&bb).count();
            }
        });
    }
}
