//! Deterministic fault injection end to end: seeded fault plans are
//! bit-identical across worker counts, degraded devices reject writes
//! with a typed error instead of panicking, a batch that hits a degraded
//! device still serves every other task, degraded state survives an
//! export/import/replay cycle exactly, a zero-fault plan cannot perturb a
//! fault-free session, corrupted fault-state checkpoint bytes are rejected
//! cleanly, and invalid configurations fail with the same typed error at
//! every worker count.

use conduit::{DeviceHandle, Policy, ProgramId, RunOutcome, RunRequest, Session};
use conduit_sim::SsdDevice;
use conduit_types::{
    ConduitError, FaultConfig, LogicalPageId, OpType, Operand, SsdConfig, VectorInst, VectorProgram,
};

/// A program whose store forces out-of-place writes on every run.
fn writer_program() -> VectorProgram {
    let mut prog = VectorProgram::new("writer");
    let x = prog.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
    prog.push(
        VectorInst::binary(1, OpType::Add, Operand::result(x), Operand::page(8))
            .store_to(LogicalPageId::new(12)),
    );
    prog
}

/// A read-only program: no stores, so it keeps working on a degraded
/// (read-only) device once its operand pages are mapped.
fn reader_program() -> VectorProgram {
    let mut prog = VectorProgram::new("reader");
    let a = prog.push_binary(OpType::And, Operand::page(16), Operand::page(20));
    prog.push_binary(OpType::Mul, Operand::result(a), Operand::page(24));
    prog
}

fn pool_session(
    configure: impl FnOnce(conduit::SessionBuilder) -> conduit::SessionBuilder,
) -> Session {
    configure(Session::builder(SsdConfig::small_for_tests())).build()
}

/// A fault mix aggressive enough to fire within a short batch but gentle
/// enough (default 8-block spare budget) not to degrade the device.
fn lively_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        read_transient_rate: 0.5,
        program_fail_rate: 0.2,
        erase_fail_rate: 0.3,
        wear_sensitivity: 0.05,
        ..FaultConfig::with_seed(seed)
    }
}

/// The canonical faulty workload: three seeded devices served a mixed
/// batch (plus fresh requests) three times over.
fn faulty_batch(
    writer: ProgramId,
    reader: ProgramId,
    a: DeviceHandle,
    b: DeviceHandle,
    c: DeviceHandle,
) -> Vec<RunRequest> {
    vec![
        RunRequest::new(writer, Policy::Conduit).on_device(a),
        RunRequest::new(reader, Policy::Conduit),
        RunRequest::new(writer, Policy::PudSsd).on_device(b),
        RunRequest::new(reader, Policy::IspOnly).on_device(c),
        RunRequest::new(writer, Policy::HostCpu).on_device(a),
        RunRequest::new(writer, Policy::Conduit).on_device(b),
        RunRequest::new(reader, Policy::Conduit).on_device(a),
        RunRequest::new(writer, Policy::Conduit).on_device(c),
    ]
}

#[test]
fn seeded_faults_are_bit_identical_across_pool_sizes() {
    let run = |mut session: Session| {
        let writer = session.register(writer_program()).unwrap();
        let reader = session.register(reader_program()).unwrap();
        let a = session.create_device_with_faults("tenant-a", lively_faults(11));
        let b = session.create_device_with_faults("tenant-b", lively_faults(22));
        let c = session.create_device_with_faults("tenant-c", lively_faults(33));
        let mut outcomes: Vec<RunOutcome> = Vec::new();
        for _ in 0..3 {
            outcomes.extend(
                session
                    .submit_batch(&faulty_batch(writer, reader, a, b, c))
                    .unwrap(),
            );
        }
        let snapshots: Vec<_> = [a, b, c]
            .into_iter()
            .map(|d| (session.device_snapshot(d), session.device_clock(d)))
            .collect();
        let exports: Vec<_> = [a, b, c]
            .into_iter()
            .map(|d| session.export_device(d).unwrap())
            .collect();
        (outcomes, snapshots, exports)
    };

    let serial = run(pool_session(|b| b.serial()));

    // The plans actually fired: this is a fault-exercising workload, not a
    // vacuous all-quiet pass.
    let activity: u64 = serial
        .1
        .iter()
        .map(|(s, _)| s.read_retries + s.program_failures + s.erase_failures)
        .sum();
    assert!(activity > 0, "the fault mix never fired: {:?}", serial.1);

    for workers in [2, 4, 8] {
        let parallel = match workers {
            2 => run(pool_session(|b| b.workers(2))),
            4 => run(pool_session(|b| b.workers(4))),
            8 => run(pool_session(|b| b.workers(8))),
            _ => unreachable!(),
        };
        assert_eq!(
            parallel, serial,
            "seeded fault injection must not depend on {workers}-worker pools"
        );
    }
}

/// Drives a device past its spare-block budget and returns the session,
/// the degraded device, and the registered program ids.
fn degraded_session() -> (Session, DeviceHandle, ProgramId, ProgramId) {
    degraded_session_on(1)
}

/// [`degraded_session`] on a session with `workers` batch workers. The
/// device is aged by lone submits, so it degrades identically whatever the
/// worker count.
fn degraded_session_on(workers: usize) -> (Session, DeviceHandle, ProgramId, ProgramId) {
    let mut session = pool_session(|b| b.workers(workers));
    let writer = session.register(writer_program()).unwrap();
    let reader = session.register(reader_program()).unwrap();
    let device = session.create_device_with_faults(
        "wearout",
        FaultConfig {
            program_fail_rate: 0.8,
            spare_blocks: 1,
            ..FaultConfig::with_seed(7)
        },
    );
    // Map the reader's operand pages while the device still accepts writes,
    // so post-degradation reads exercise the read-only path.
    session
        .submit(&RunRequest::new(reader, Policy::Conduit).on_device(device))
        .unwrap();
    // Alternating the policy forces the dirty store out of the DRAM
    // coherence buffer and through the FTL's flash program path on every
    // other run — that's where program faults fire.
    for i in 0..64 {
        let policy = if i % 2 == 0 {
            Policy::Conduit
        } else {
            Policy::HostCpu
        };
        match session.submit(&RunRequest::new(writer, policy).on_device(device)) {
            Ok(_) => {}
            Err(err) => {
                assert!(
                    matches!(err, ConduitError::DeviceDegraded { .. }),
                    "expected DeviceDegraded, got {err}"
                );
                assert!(session.device_snapshot(device).health.is_degraded());
                return (session, device, writer, reader);
            }
        }
    }
    panic!("an 80% program-failure rate never exhausted a 1-block spare budget");
}

#[test]
fn degraded_device_rejects_writes_and_keeps_serving_reads() {
    let (session, device, writer, reader) = degraded_session();
    let snap = session.device_snapshot(device);
    assert!(
        snap.retired_blocks > 1,
        "degradation means the 1-block spare budget was exceeded: {snap:?}"
    );
    assert!(snap.program_failures > 0);

    // Writes stay rejected — same typed error, no panic, every time.
    for _ in 0..3 {
        let err = session
            .submit(&RunRequest::new(writer, Policy::Conduit).on_device(device))
            .unwrap_err();
        assert!(matches!(err, ConduitError::DeviceDegraded { .. }));
    }

    // Reads of already-mapped data still flow.
    let outcome = session
        .submit(&RunRequest::new(reader, Policy::Conduit).on_device(device))
        .unwrap();
    assert_eq!(outcome.summary.instructions, 2);
}

/// One batch mixes fresh requests, a healthy device lane and a write to a
/// degraded device. The write fails, but every other task still runs, so
/// the batch returns the same error and leaves the same device state at
/// every worker count.
#[test]
fn a_failed_lane_does_not_stop_the_rest_of_the_batch() {
    let run = |workers: usize| {
        let (mut session, degraded, writer, reader) = degraded_session_on(workers);
        let healthy = session.create_device("healthy");
        let batch = vec![
            RunRequest::new(writer, Policy::Conduit),
            RunRequest::new(writer, Policy::Conduit).on_device(healthy),
            RunRequest::new(writer, Policy::Conduit).on_device(degraded),
            RunRequest::new(reader, Policy::IspOnly),
            RunRequest::new(writer, Policy::HostCpu).on_device(healthy),
            RunRequest::new(reader, Policy::Conduit).on_device(degraded),
            RunRequest::new(reader, Policy::Conduit).on_device(healthy),
        ];
        let err = session.submit_batch(&batch).unwrap_err();
        let state =
            [healthy, degraded].map(|d| (session.device_snapshot(d), session.device_clock(d)));
        (err, state)
    };

    let (err, [healthy, degraded]) = run(1);
    assert!(
        matches!(err, ConduitError::DeviceDegraded { .. }),
        "expected DeviceDegraded, got {err}"
    );
    // Every request on both lanes ran, including those after the failure.
    assert_eq!(healthy.0.lane_requests, 3);
    assert_eq!(degraded.0.window_requests, 2);
    assert_eq!(run(3), (err, [healthy, degraded]));
}

#[test]
fn degraded_device_checkpoint_round_trips_and_replays_identically() {
    let (session, device, writer, reader) = degraded_session();
    let bytes = session.export_device(device).unwrap();

    let mut revived_session = pool_session(|b| b.serial());
    let revived_writer = revived_session.register(writer_program()).unwrap();
    let revived_reader = revived_session.register(reader_program()).unwrap();
    let revived = revived_session.import_device("wearout", &bytes).unwrap();

    assert_eq!(
        revived_session.device_snapshot(revived),
        session.device_snapshot(device)
    );
    assert_eq!(
        revived_session.device_clock(revived),
        session.device_clock(device)
    );
    assert!(revived_session
        .device_snapshot(revived)
        .health
        .is_degraded());
    assert_eq!(
        revived_session.export_device(revived).unwrap(),
        bytes,
        "import → export is byte-stable for a degraded device"
    );

    // Replaying the same requests produces identical results on both
    // sides: rejected writes and served reads alike. (A rejected write
    // still consumes simulated device time — its operand loads run before
    // the store is turned away — so it is replayed on both sessions.)
    let err = revived_session
        .submit(&RunRequest::new(revived_writer, Policy::Conduit).on_device(revived))
        .unwrap_err();
    assert!(matches!(err, ConduitError::DeviceDegraded { .. }));
    let err = session
        .submit(&RunRequest::new(writer, Policy::Conduit).on_device(device))
        .unwrap_err();
    assert!(matches!(err, ConduitError::DeviceDegraded { .. }));
    let original_read = session
        .submit(&RunRequest::new(reader, Policy::Conduit).on_device(device))
        .unwrap();
    let revived_read = revived_session
        .submit(&RunRequest::new(revived_reader, Policy::Conduit).on_device(revived))
        .unwrap();
    assert_eq!(revived_read, original_read);
    assert_eq!(
        revived_session.export_device(revived).unwrap(),
        session.export_device(device).unwrap()
    );
}

#[test]
fn zero_fault_plan_is_bit_identical_to_a_fault_free_session() {
    let run = |mut session: Session| {
        let writer = session.register(writer_program()).unwrap();
        let reader = session.register(reader_program()).unwrap();
        let warm = session.create_device("steady");
        let requests = vec![
            RunRequest::new(writer, Policy::Conduit).on_device(warm),
            RunRequest::new(reader, Policy::Conduit),
            RunRequest::new(writer, Policy::PudSsd).on_device(warm),
            RunRequest::new(reader, Policy::IspOnly).on_device(warm),
        ];
        let outcomes = session.submit_batch(&requests).unwrap();
        (
            outcomes,
            session.device_snapshot(warm),
            session.device_clock(warm),
        )
    };

    // An inert plan never draws, so even a non-zero seed cannot perturb the
    // stream: results match a session that never heard of fault injection.
    let plain = run(pool_session(|b| b));
    let seeded = run(pool_session(|b| {
        b.faults(FaultConfig::with_seed(0xDEAD_BEEF))
    }));
    assert_eq!(seeded, plain);
}

#[test]
fn corrupted_fault_state_checkpoints_are_rejected_not_panicked() {
    let mut session = pool_session(|b| b.serial());
    let writer = session.register(writer_program()).unwrap();
    let device = session.create_device_with_faults("fuzzed", lively_faults(99));
    // Alternating policies flushes the dirty store to flash (program-fault
    // territory) and re-reads evicted pages from the array (retry
    // territory), so the exported checkpoint carries a live fault plan.
    for policy in [
        Policy::Conduit,
        Policy::HostCpu,
        Policy::Conduit,
        Policy::HostCpu,
    ] {
        session
            .submit(&RunRequest::new(writer, policy).on_device(device))
            .unwrap();
    }
    let bytes = session.export_device(device).unwrap();
    let snap = session.device_snapshot(device);
    assert!(
        snap.read_retries + snap.program_failures > 0,
        "the fuzz target should carry live fault state: {snap:?}"
    );

    // Flip one 8-byte word at a time across the whole checkpoint — headers,
    // flash delta, fault tail, everything — and likewise across the frozen
    // legacy checkpoints, whose read-only decoders share the same readers.
    // Every mutation must come back as a clean `Result`; the overwhelming
    // majority as a rejection.
    for (name, checkpoint) in [
        ("current", bytes.as_slice()),
        (
            "v1",
            include_bytes!("golden/device_checkpoint_v1.bin").as_slice(),
        ),
        (
            "v2",
            include_bytes!("golden/device_checkpoint_v2.bin").as_slice(),
        ),
    ] {
        let (rejected, trials) = fuzz_checkpoint_words(checkpoint);
        assert!(
            rejected * 2 > trials,
            "{name}: only {rejected}/{trials} corrupted checkpoints were rejected"
        );
    }

    // Truncation anywhere inside the fault tail (the last stretch of the
    // FTL block) is likewise a clean rejection.
    for cut in 1..=8 {
        let truncated = &bytes[..bytes.len() - cut * 7];
        let mut probe = pool_session(|b| b.serial());
        assert!(probe.import_device("fuzzed", truncated).is_err());
    }

    // The pristine bytes still import, so the fuzz loop really was
    // exercising the validation paths rather than a broken baseline.
    let mut probe = pool_session(|b| b.serial());
    let ok = probe.import_device("fuzzed", &bytes).unwrap();
    assert_eq!(probe.device_snapshot(ok), snap);
}

/// Flips one 8-byte word at a time across `checkpoint` and imports each
/// mutation into a fresh session: every import must return a `Result`, and
/// a device that imports must serve one writer request without panicking
/// (its result may be an error). Returns `(rejected, trials)`.
fn fuzz_checkpoint_words(checkpoint: &[u8]) -> (usize, usize) {
    let mut rejected = 0usize;
    let mut trials = 0usize;
    for offset in (0..checkpoint.len()).step_by(8) {
        let mut corrupt = checkpoint.to_vec();
        for b in corrupt[offset..checkpoint.len().min(offset + 8)].iter_mut() {
            *b ^= 0xA5;
        }
        let mut probe = pool_session(|b| b.serial());
        let writer = probe.register(writer_program()).unwrap();
        trials += 1;
        match probe.import_device("fuzzed", &corrupt) {
            Ok(device) => {
                let _ = probe.submit(&RunRequest::new(writer, Policy::Conduit).on_device(device));
            }
            Err(_) => rejected += 1,
        }
    }
    (rejected, trials)
}

/// Configurations whose models cannot simulate anything: a zero geometry,
/// bank, page or compute-core count, a flash geometry whose totals overflow
/// `u64`, a flash index too wide for a physical page address, too many
/// flash blocks or controller cores, a DRAM sub-array unit count that
/// overflows `u32` or fits it but is too large, or a zero, negative, NaN or
/// infinite clock or bandwidth.
fn invalid_configs() -> Vec<(&'static str, SsdConfig)> {
    let edit = |field: &'static str, change: &dyn Fn(&mut SsdConfig)| {
        let mut cfg = SsdConfig::small_for_tests();
        change(&mut cfg);
        (field, cfg)
    };
    let mut configs = vec![
        edit("flash.channels", &|c| c.flash.channels = 0),
        edit("flash.dies_per_channel", &|c| c.flash.dies_per_channel = 0),
        edit("flash.planes_per_die", &|c| c.flash.planes_per_die = 0),
        edit("flash.blocks_per_plane", &|c| c.flash.blocks_per_plane = 0),
        edit("flash.pages_per_block", &|c| c.flash.pages_per_block = 0),
        edit("flash.page_bytes", &|c| c.flash.page_bytes = 0),
        edit("dram.channels", &|c| c.dram.channels = 0),
        edit("dram.ranks", &|c| c.dram.ranks = 0),
        edit("dram.banks", &|c| c.dram.banks = 0),
        edit("dram.row_bytes", &|c| c.dram.row_bytes = 0),
        edit("ctrl.mve_bytes", &|c| c.ctrl.mve_bytes = 0),
        edit("ctrl.compute_cores", &|c| c.ctrl.compute_cores = 0),
        edit("flash geometry", &|c| {
            c.flash.channels = u32::MAX;
            c.flash.dies_per_channel = u32::MAX;
            c.flash.planes_per_die = u32::MAX;
            c.flash.blocks_per_plane = u32::MAX;
        }),
        edit("flash geometry", &|c| c.flash.page_bytes = u64::MAX),
        edit("flash.channels", &|c| c.flash.channels = 257),
        edit("flash.dies_per_channel", &|c| {
            c.flash.dies_per_channel = 257
        }),
        edit("flash.planes_per_die", &|c| c.flash.planes_per_die = 257),
        edit("flash.pages_per_block", &|c| {
            c.flash.pages_per_block = 65_537
        }),
        edit("flash geometry", &|c| c.flash.blocks_per_plane = u32::MAX),
        edit("dram sub-array unit count", &|c| {
            c.dram.channels = 65_536;
            c.dram.ranks = 65_536;
            c.dram.banks = 1;
        }),
        edit("ctrl.cores", &|c| c.ctrl.cores = u32::MAX),
        // 2^24 channels × 8 banks × 16 sub-arrays = 2^31 units: fits a u32.
        edit("dram sub-array unit count", &|c| c.dram.channels = 1 << 24),
    ];
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        configs.extend([
            edit("ctrl.freq_hz", &|c| c.ctrl.freq_hz = bad),
            edit("flash.channel_bytes_per_sec", &|c| {
                c.flash.channel_bytes_per_sec = bad
            }),
            edit("dram.bus_bytes_per_sec", &|c| {
                c.dram.bus_bytes_per_sec = bad
            }),
            edit("link.pcie_bytes_per_sec", &|c| {
                c.link.pcie_bytes_per_sec = bad
            }),
        ]);
    }
    configs
}

#[test]
fn invalid_configs_fail_with_the_same_typed_error_at_every_worker_count() {
    // Legacy v1 checkpoints carry no configuration fingerprint, so their
    // import reaches the device-state decoder under the session's config.
    let legacy = include_bytes!("golden/device_checkpoint_v1.bin");
    for (field, cfg) in invalid_configs() {
        let err = SsdDevice::new(&cfg).unwrap_err();
        assert!(
            matches!(&err, ConduitError::InvalidConfig { reason } if reason.contains(field)),
            "{field}: expected InvalidConfig naming the field, got {err}"
        );
        for workers in [1, 2] {
            let mut session = Session::builder(cfg.clone()).workers(workers).build();
            let writer = session.register(writer_program()).unwrap();
            let device = session.create_device("tenant");
            let batch = [
                RunRequest::new(writer, Policy::Conduit),
                RunRequest::new(writer, Policy::Conduit).on_device(device),
            ];
            assert_eq!(
                session.submit_batch(&batch).unwrap_err(),
                err,
                "{field} at {workers} workers"
            );
            assert_eq!(
                session.import_device("legacy", legacy).unwrap_err(),
                err,
                "{field}: checkpoint import"
            );
        }
    }
}

/// One Conduit run of the writer program under `cfg`: `Ok` if the device
/// and the run either fail with the same typed error or return finite
/// results, `Err` describing anything else.
fn typed_error_or_finite_run(cfg: &SsdConfig) -> Result<(), String> {
    let device = SsdDevice::new(cfg).map(drop);
    let mut session = Session::builder(cfg.clone()).serial().build();
    let writer = session.register(writer_program()).unwrap();
    let run = session.submit(&RunRequest::new(writer, Policy::Conduit));
    match (device, run) {
        (Err(device), Err(run)) if device == run => Ok(()),
        (Ok(()), Ok(outcome)) => {
            let s = &outcome.summary;
            let (c, h, i, f) = s.breakdown.fractions();
            let finite = s.total_energy.as_nj().is_finite()
                && s.total_time.as_ps() < u64::MAX
                && [c, h, i, f].iter().all(|x| x.is_finite());
            if finite {
                Ok(())
            } else {
                Err(format!(
                    "non-finite results: {} in {}",
                    s.total_energy, s.total_time
                ))
            }
        }
        (device, run) => Err(format!(
            "device and run disagree: {:?} vs {:?}",
            device,
            run.map(|o| o.summary.total_time)
        )),
    }
}

type Field<T> = (&'static str, fn(&mut SsdConfig) -> &mut T);

#[test]
fn every_validated_field_at_its_extremes_gives_a_typed_error_or_finite_results() {
    let counts: [Field<u32>; 12] = [
        ("flash.channels", |c| &mut c.flash.channels),
        ("flash.dies_per_channel", |c| &mut c.flash.dies_per_channel),
        ("flash.planes_per_die", |c| &mut c.flash.planes_per_die),
        ("flash.blocks_per_plane", |c| &mut c.flash.blocks_per_plane),
        ("flash.pages_per_block", |c| &mut c.flash.pages_per_block),
        ("dram.channels", |c| &mut c.dram.channels),
        ("dram.ranks", |c| &mut c.dram.ranks),
        ("dram.banks", |c| &mut c.dram.banks),
        ("dram.subarrays_per_bank", |c| {
            &mut c.dram.subarrays_per_bank
        }),
        ("ctrl.mve_bytes", |c| &mut c.ctrl.mve_bytes),
        ("ctrl.compute_cores", |c| &mut c.ctrl.compute_cores),
        ("ctrl.cores", |c| &mut c.ctrl.cores),
    ];
    let sizes: [Field<u64>; 2] = [
        ("flash.page_bytes", |c| &mut c.flash.page_bytes),
        ("dram.row_bytes", |c| &mut c.dram.row_bytes),
    ];
    let rates: [Field<f64>; 4] = [
        ("ctrl.freq_hz", |c| &mut c.ctrl.freq_hz),
        ("flash.channel_bytes_per_sec", |c| {
            &mut c.flash.channel_bytes_per_sec
        }),
        ("dram.bus_bytes_per_sec", |c| &mut c.dram.bus_bytes_per_sec),
        ("link.pcie_bytes_per_sec", |c| {
            &mut c.link.pcie_bytes_per_sec
        }),
    ];
    let mut cases: Vec<(String, SsdConfig)> = Vec::new();
    let mut case = |name: String, set: &dyn Fn(&mut SsdConfig)| {
        let mut cfg = SsdConfig::small_for_tests();
        set(&mut cfg);
        cases.push((name, cfg));
    };
    for (field, get) in counts {
        for value in [0, u32::MAX] {
            case(format!("{field} = {value}"), &|c| *get(c) = value);
        }
    }
    for (field, get) in sizes {
        for value in [0, u64::MAX] {
            case(format!("{field} = {value}"), &|c| *get(c) = value);
        }
    }
    for (field, get) in rates {
        for value in [0.0, f64::MAX, f64::NAN, f64::INFINITY] {
            case(format!("{field} = {value}"), &|c| *get(c) = value);
        }
    }
    // A DRAM unit count that fits a u32 (2^31) but not the unit bound.
    case("dram.channels = 2^24".to_string(), &|c| {
        c.dram.channels = 1 << 24
    });

    let failures: Vec<String> = cases
        .iter()
        .filter_map(|(name, cfg)| {
            match std::panic::catch_unwind(|| typed_error_or_finite_run(cfg)) {
                Ok(Ok(())) => None,
                Ok(Err(why)) => Some(format!("{name}: {why}")),
                Err(_) => Some(format!("{name}: panicked")),
            }
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
