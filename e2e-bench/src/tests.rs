//! Self-tests of the benchmark at toy sizes: determinism per seed,
//! sensitivity to the seed, and an output check that rejects corrupted
//! results.
//!
//! The allocator counters are process-wide, so every test holds `LOCK`
//! and the exact allocator counts are not disturbed by a concurrent
//! test.

use crate::passes::RunConfig;
use crate::report::Outcome;
use crate::{late_stream, paper_cube, tenant_fleet};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn traced(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        seconds: 1e-3,
        trace: true,
    }
}

fn paper() -> paper_cube::Scale {
    paper_cube::Scale {
        cells: 2_000,
        units: 3,
        setups: 2,
        restores: 2,
    }
}

fn late() -> late_stream::Scale {
    late_stream::Scale {
        rate: 600,
        units: 9,
        amended_per_unit: 5,
        dropped_per_unit: 3,
        setups: 2,
        restores: 2,
    }
}

fn fleet() -> tenant_fleet::Scale {
    tenant_fleet::Scale {
        tenants: 24,
        heavy: 8,
        units: 3,
        sample: 4,
        durable_per_pass: 5,
        setups: 1,
    }
}

fn runs(seed: u64) -> [Outcome; 3] {
    [
        paper_cube::run(&traced(seed), &paper()),
        late_stream::run(&traced(seed), &late()),
        tenant_fleet::run(&traced(seed), &fleet()),
    ]
}

fn exact(o: &Outcome, name: &str) -> u64 {
    o.exact
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no exact counter {name}"))
        .1
}

#[test]
fn one_seed_repeats_inputs_and_exact_counters() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let [pa, la, fa] = runs(7);
    let [pb, lb, fb] = runs(7);
    for o in [&pa, &la, &fa] {
        assert!(o.correct(), "{:?}", o.mismatches);
        assert!(!o.spans.is_empty(), "a traced run keeps its spans");
    }
    // The single-threaded workloads repeat every exact counter,
    // allocator calls per stage included.
    assert_eq!(pa.exact, pb.exact);
    assert_eq!(la.exact, lb.exact);
    // The fleet's allocator counts depend on the reader thread; its
    // input, alarms, checkpoint size and accepted records do not.
    assert_eq!(fa.exact, fb.exact);
    assert!(exact(&pa, "alarms") > 0, "ramping cells must alarm");
    assert!(exact(&fa, "alarms") > 0, "hot tenants must alarm");
    assert!(exact(&la, "reorder.amended") > 0);
    assert!(exact(&la, "reorder.dropped") > 0);
    assert!(exact(&pa, "allocs.close") > 0);
    assert!(exact(&la, "allocs.ingest") > 0);
}

#[test]
fn another_seed_gives_other_input() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let paper_digest = |seed| paper_cube::Input::new(seed, paper().cells).digest(1);
    assert_eq!(paper_digest(1), paper_digest(1));
    assert_ne!(paper_digest(1), paper_digest(2));
    let late_digest = |seed| late_stream::Input::new(seed, &late()).digest(1);
    assert_eq!(late_digest(1), late_digest(1));
    assert_ne!(late_digest(1), late_digest(2));
    let fleet_digest = |seed| tenant_fleet::Input::new(seed, &fleet()).digest(1);
    assert_eq!(fleet_digest(1), fleet_digest(1));
    assert_ne!(fleet_digest(1), fleet_digest(2));
}

#[test]
fn output_checks_reject_corrupted_results() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let input = paper_cube::Input::new(3, paper().cells);
    let expected = paper_cube::oracle(&input, &paper());
    let good = paper_cube::Observed {
        alarms: expected.alarms.clone(),
        digest: expected.digest,
        restored_digest: expected.digest,
    };
    let mut out = Outcome::default();
    paper_cube::check(&expected, &good, &mut out);
    assert!(out.correct(), "{:?}", out.mismatches);
    let mut bad = paper_cube::Observed {
        alarms: expected.alarms.clone(),
        ..good
    };
    let alarm = bad
        .alarms
        .iter_mut()
        .flat_map(|a| a.iter_mut())
        .next()
        .expect("the toy cube alarms");
    alarm.score = f64::from_bits(alarm.score.to_bits() ^ 1);
    let mut out = Outcome::default();
    paper_cube::check(&expected, &bad, &mut out);
    assert_eq!(out.failed, 1, "{:?}", out.mismatches);

    let input = late_stream::Input::new(3, &late());
    let expected = late_stream::sorted_replay(&input);
    let good = late_stream::Observed {
        units: expected.units.clone(),
        cube_digest: expected.cube_digest,
        checkpointed_digest: 1,
        restored_digest: 1,
        continued_digest: 2,
        digest: 2,
        amended: input.amendments.len() as u64,
        dropped: input.planted_dropped,
        amendments: input.amendments.clone(),
    };
    let late_check = |observed: &late_stream::Observed| {
        let mut out = Outcome::default();
        late_stream::check(&input, &expected, observed, &mut out);
        out
    };
    let out = late_check(&good);
    assert!(out.correct(), "{:?}", out.mismatches);
    let miscounted = late_stream::Observed {
        amended: good.amended + 1,
        units: good.units.clone(),
        amendments: good.amendments.clone(),
        ..good
    };
    let out = late_check(&miscounted);
    assert_eq!(out.failed, 1, "{:?}", out.mismatches);
    // An amendment folded with the wrong delta, into the wrong unit or
    // into the wrong m-cell is caught even when the count is right.
    let corruptions: [fn(&mut late_stream::Amendment); 3] =
        [|a| a.delta_bits ^= 1, |a| a.unit += 1, |a| a.m_cell[0] ^= 1];
    for corrupt in corruptions {
        let mut bad = late_stream::Observed {
            units: good.units.clone(),
            amendments: good.amendments.clone(),
            ..good
        };
        corrupt(bad.amendments.last_mut().expect("the toy stream amends"));
        bad.amendments.sort();
        let out = late_check(&bad);
        assert_eq!(out.failed, 1, "{:?}", out.mismatches);
    }

    let input = tenant_fleet::Input::new(3, &fleet());
    let expected = tenant_fleet::standalone(&input, &fleet()).digests;
    let mut observed = tenant_fleet::Observed {
        sent: 10,
        accepted: 10,
        rejected: 0,
        server_rejected: 0,
        alarms: 1,
        sample_digests: expected.clone(),
        live_digests: vec![5, 6],
        restored_digests: vec![5, 6],
        sample_restored: expected.clone(),
    };
    let mut out = Outcome::default();
    tenant_fleet::check(&expected, &observed, &mut out);
    assert!(out.correct(), "{:?}", out.mismatches);
    // Records refused with `Overloaded` fail the check even though
    // every record is accounted for.
    let mut refused = observed.clone();
    (refused.accepted, refused.rejected, refused.server_rejected) = (8, 2, 2);
    let mut out = Outcome::default();
    tenant_fleet::check(&expected, &refused, &mut out);
    assert_eq!(out.failed, 1, "{:?}", out.mismatches);
    observed.restored_digests[1] ^= 1;
    let mut out = Outcome::default();
    tenant_fleet::check(&expected, &observed, &mut out);
    assert_eq!(out.failed, 1, "{:?}", out.mismatches);
}

#[test]
fn regcube_switches_are_refused() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(crate::env_guard().is_ok());
    std::env::set_var("REGCUBE_SCALAR_KERNELS", "1");
    let refused = crate::env_guard();
    std::env::remove_var("REGCUBE_SCALAR_KERNELS");
    assert!(refused.is_err());
}
