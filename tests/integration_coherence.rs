//! Integration of the lazy coherence protocol with the device and the
//! runtime engine: pages modified by one compute resource must be flushed to
//! flash before another resource (or the host) consumes them, and never
//! otherwise.

use std::collections::BTreeSet;

use conduit::{Policy, RunOptions, RunRequest, RuntimeEngine, Session};
use conduit_sim::SsdDevice;
use conduit_types::{
    DataLocation, Duration, LogicalPageId, OpType, Operand, Resource, SimTime, SsdConfig,
    VectorInst, VectorProgram,
};

fn pages(range: std::ops::Range<u64>) -> Vec<LogicalPageId> {
    range.map(LogicalPageId::new).collect()
}

#[test]
fn cross_resource_handoff_flushes_through_flash() {
    let cfg = SsdConfig::small_for_tests();
    let mut dev = SsdDevice::new(&cfg).unwrap();
    dev.map_pages(&pages(0..4), None).unwrap();
    let page = LogicalPageId::new(0);

    // PuD-SSD computes into the page.
    let w = dev
        .record_result_write(page, DataLocation::Dram, SimTime::ZERO)
        .unwrap();
    assert_eq!(dev.locate(page), DataLocation::Dram);

    // The controller core then needs it: a flush (flash program) plus a read
    // back up must happen, i.e. the handoff is much more expensive than a
    // DRAM-bus hop would be.
    let c = dev
        .ensure_at(page, DataLocation::CtrlSram, w.ready)
        .unwrap();
    assert!(c.breakdown.flash_array >= Duration::from_us(400.0));
    assert_eq!(dev.locate(page), DataLocation::CtrlSram);

    // Re-reading from the same place is free.
    let again = dev
        .ensure_at(page, DataLocation::CtrlSram, c.ready)
        .unwrap();
    assert_eq!(again.ready, c.ready);
}

#[test]
fn same_resource_rewrites_do_not_flush() {
    let cfg = SsdConfig::small_for_tests();
    let mut dev = SsdDevice::new(&cfg).unwrap();
    dev.map_pages(&pages(0..1), None).unwrap();
    let page = LogicalPageId::new(0);

    let mut at = SimTime::ZERO;
    for _ in 0..10 {
        let c = dev
            .record_result_write(page, DataLocation::Dram, at)
            .unwrap();
        at = c.ready;
    }
    // Ten repeated writes by the same owner only bump the version counter —
    // no flash programs, so no time advances beyond the first bookkeeping.
    let (_, flushes) = dev.ftl().coherence().traffic();
    assert_eq!(flushes, 0);
    assert_eq!(dev.ftl().coherence().version(page), 10);
    assert_eq!(dev.ftl().stats().rewrites, 0);
}

#[test]
fn producer_consumer_program_keeps_results_local_until_needed() {
    // i0 computes in DRAM-friendly fashion, i1 consumes the result with an
    // op only ISP can run, i2 stores. The engine must keep the data moving
    // without violating program order, and the coherence directory must end
    // up consistent.
    let mut prog = VectorProgram::new("handoff");
    let a = prog.push_binary(OpType::Add, Operand::page(0), Operand::page(4));
    let b = prog.push_binary(OpType::Div, Operand::result(a), Operand::Immediate(3));
    prog.push(
        VectorInst::binary(2, OpType::Xor, Operand::result(b), Operand::page(8))
            .store_to(LogicalPageId::new(12)),
    );

    let mut session = Session::builder(SsdConfig::small_for_tests()).build();
    let id = session.register(prog).unwrap();
    let outcome = session
        .submit(&RunRequest::new(id, Policy::Conduit).with_timeline())
        .unwrap();
    let report = &outcome.summary;
    assert_eq!(report.instructions, 3);
    // Division is ISP-only.
    assert!(report.offload_mix.isp >= 1);
    // The store's destination pages are tracked by the coherence directory
    // as dirty at some SSD location (lazy write-back, not yet in flash).
    assert!(report.total_time > Duration::ZERO);

    // Order is respected in the timeline.
    let t = &outcome.artifacts.expect("requested timeline").timeline;
    assert!(t[1].completed >= t[0].completed);
    assert!(t[2].completed >= t[1].completed);
}

#[test]
fn host_consumption_forces_writeback() {
    let cfg = SsdConfig::small_for_tests();
    let mut dev = SsdDevice::new(&cfg).unwrap();
    dev.map_pages(&pages(0..1), None).unwrap();
    let page = LogicalPageId::new(0);

    dev.record_result_write(page, DataLocation::CtrlSram, SimTime::ZERO)
        .unwrap();
    let c = dev
        .ensure_at(page, DataLocation::Host, SimTime::ZERO)
        .unwrap();
    // Dirty controller-SRAM data headed to the host goes through a flash
    // commit (lazy coherence trigger ii: result must be transferred to the
    // host) and then over the PCIe link.
    assert!(c.breakdown.host_data_movement > Duration::ZERO);
    assert!(c.breakdown.flash_array > Duration::ZERO);
}

#[test]
fn unsupported_op_on_restricted_resource_errors_cleanly() {
    let cfg = SsdConfig::small_for_tests();
    let mut dev = SsdDevice::new(&cfg).unwrap();
    dev.map_pages(&pages(0..8), None).unwrap();
    let err = dev
        .execute(
            Resource::PudSsd,
            OpType::Scalar,
            32,
            4096,
            &pages(0..1),
            SimTime::ZERO,
        )
        .unwrap_err();
    assert!(matches!(
        err,
        conduit_types::ConduitError::UnsupportedOperation { .. }
    ));
}

#[test]
fn warm_coherence_state_flips_placement_across_sites() {
    // Warm a device so that only the first instruction's operands are
    // DRAM-resident, then run three identical-shape XORs under
    // DM-Offloading: the residency the warm run left behind must move the
    // first instruction to a different site than the other two.
    let cfg = SsdConfig::small_for_tests();
    let engine = RuntimeEngine::new(&cfg);

    let mut warm = VectorProgram::new("warmup");
    warm.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
    let mut hot = VectorProgram::new("hot");
    hot.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
    hot.push_binary(OpType::Xor, Operand::page(8), Operand::page(12));
    hot.push_binary(OpType::Xor, Operand::page(16), Operand::page(20));

    let mut device = SsdDevice::new(&cfg).unwrap();
    engine.prepare(&mut device, &warm).unwrap();
    engine.prepare(&mut device, &hot).unwrap();
    // ISP executes out of DRAM: pages 0..8 become DRAM-resident.
    engine
        .run(&mut device, &warm, &RunOptions::new(Policy::IspOnly))
        .unwrap();
    assert_eq!(device.locate(LogicalPageId::new(0)), DataLocation::Dram);
    assert_eq!(device.locate(LogicalPageId::new(8)), DataLocation::Flash);
    let report = engine
        .run(&mut device, &hot, &RunOptions::new(Policy::DmOffloading))
        .unwrap();

    let sites: BTreeSet<_> = report
        .timeline
        .iter()
        .map(|e| format!("{:?}", e.site))
        .collect();
    assert!(
        sites.len() > 1,
        "expected the warm residency to change placement, got {sites:?}"
    );
}
