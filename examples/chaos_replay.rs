//! Chaos-testing demo: the README's fixed-seed fault-injection flow.
//!
//! Three acts, all on the same 1-producer → 2-consumer workflow:
//!   1. a benign delay plan — redistribution is byte-exact anyway;
//!   2. a drop-everything-once plan — consumers retry and still succeed;
//!   3. a kill-the-producer plan — consumers surface `PeerUnavailable`
//!      instead of hanging, and replaying the seed reproduces the trace.

use std::sync::Arc;
use std::time::Duration;

use lowfive::{DistVolBuilder, LowFiveProps};
use minih5::{Dataspace, Datatype, H5Error, Ownership, Selection, Vol, H5};
use simmpi::{ChaosOutput, FaultPlan, TaskComm, TaskSpec, TaskWorld};

const CELLS: u64 = 64;

fn exchange(plan: FaultPlan, props: LowFiveProps) -> ChaosOutput<Result<u64, String>> {
    let specs = [TaskSpec::new("producer", 1), TaskSpec::new("consumer", 2)];
    TaskWorld::builder(&specs).fault_plan(plan).run_chaos(move |tc: TaskComm| {
        if tc.task_id == 0 {
            produce(&tc).map_err(|e| e.to_string())
        } else {
            consume(&tc, props.clone()).map_err(|e| match e {
                H5Error::PeerUnavailable(m) => format!("peer unavailable: {m}"),
                other => format!("{other}"),
            })
        }
    })
}

fn produce(tc: &TaskComm) -> Result<u64, H5Error> {
    let vol: Arc<dyn Vol> =
        DistVolBuilder::new(tc.world.clone(), tc.local.clone()).produce("*", vec![1, 2]).build();
    let h5 = H5::with_vol(vol);
    let f = h5.create_file("demo.h5")?;
    let d = f.create_dataset("grid", Datatype::UInt64, Dataspace::simple(&[CELLS]))?;
    let bytes: Vec<u8> = (0..CELLS).flat_map(|v| v.to_le_bytes()).collect();
    d.write_bytes(&Selection::block(&[0], &[CELLS]), bytes.into(), Ownership::Shallow)?;
    f.close()?; // serves consumers until they are done (or we are killed)
    Ok(CELLS)
}

fn consume(tc: &TaskComm, props: LowFiveProps) -> Result<u64, H5Error> {
    let vol: Arc<dyn Vol> = DistVolBuilder::new(tc.world.clone(), tc.local.clone())
        .props(props)
        .consume("*", vec![0])
        .build();
    let h5 = H5::with_vol(vol);
    let f = h5.open_file("demo.h5")?;
    let d = f.open_dataset("grid")?;
    let half = CELLS / 2;
    let lo = (tc.local.rank() as u64) * half;
    let want: Vec<u8> = (lo..lo + half).flat_map(|v| v.to_le_bytes()).collect();
    // Read repeatedly so the producer is still mid-serve when a kill
    // plan strikes (a single read finishes before its 30th send).
    for _ in 0..40 {
        let got = d.read_bytes(&Selection::block(&[lo], &[half]))?;
        assert_eq!(got[..], want[..], "redistributed bytes must be exact");
    }
    f.close()?;
    Ok(half)
}

fn bounded_props() -> LowFiveProps {
    let mut props = LowFiveProps::new();
    props.set_rpc_timeout("*", Some(Duration::from_millis(250)));
    props.set_rpc_retries("*", 3);
    props
}

fn main() {
    // Act 1: delays change timing, never bytes. No retry arming needed.
    let out =
        exchange(FaultPlan::new(0xD31A).delay(0.4, Duration::from_millis(1)), LowFiveProps::new());
    println!("[delay]   consumers: {:?}  (trace: {} delayed)", &out.results[1..], out.trace.len());

    // Act 2: every request/reply flow loses its first message; the
    // armed retry policy resends and the exchange still completes.
    let out = exchange(FaultPlan::new(0xD809).drop_once(1.0), bounded_props());
    println!(
        "[drop]    consumers: {:?}  (trace: {} dropped)",
        &out.results[1..],
        out.trace.iter().filter(|e| e.kind == simmpi::FaultKind::Dropped).count()
    );

    // Act 3: the producer dies at its 30th send, mid-serve. Bounded
    // consumers error out quickly instead of hanging — and the same
    // seed replays the same trace, byte for byte.
    let plan = || FaultPlan::new(0xFEED_BEEF).kill_rank(0, 30);
    let out = exchange(plan(), bounded_props());
    println!("[kill]    deaths: {:?}", out.deaths);
    println!("[kill]    consumers: {:?}", &out.results[1..]);
    println!("[kill]    trace: {:?}", out.trace);
    let again = exchange(plan(), bounded_props());
    println!("[replay]  identical trace: {}", out.trace == again.trace);
}
