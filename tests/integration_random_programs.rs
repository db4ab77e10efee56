//! Property test for batch scheduling: seeded random vector programs —
//! mixed shapes, random `Operand::Result` back-references, random stores —
//! submitted as one batch must produce bit-identical outcomes and warm
//! device states whether the session runs them on one worker or fans them
//! out across two.
//!
//! The generator is a counted splitmix64 stream, so every failure is
//! reproducible from its program index alone.

use conduit::{DeviceHandle, Policy, RunOutcome, RunRequest, Session};
use conduit_sim::DeviceSnapshot;
use conduit_types::{InstId, LogicalPageId, OpType, Operand, SsdConfig, VectorInst, VectorProgram};

/// splitmix64: the same tiny deterministic generator the fault-injection
/// plans use — no dependency, uniform output, trivially seedable.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random but always-valid program: 4–23 instructions over the full op
/// set, ~25% chance per source operand of referencing an earlier result,
/// ~1/6 chance of a store (which ages a warm device's FTL and coherence
/// state), and occasional narrow element widths so the estimate tables'
/// exact-model fallback is exercised too.
fn random_program(index: usize) -> VectorProgram {
    let mut rng = SplitMix64(0xc0ffee ^ (index as u64).wrapping_mul(0x9e3779b97f4a7c15));
    let n = 4 + rng.below(20) as usize;
    let mut prog = VectorProgram::new(format!("rand-{index}"));
    for i in 0..n {
        let op = OpType::ALL[rng.below(OpType::ALL.len() as u64) as usize];
        let mut srcs = Vec::with_capacity(op.arity());
        for _ in 0..op.arity() {
            if i > 0 && rng.below(4) == 0 {
                srcs.push(Operand::result(InstId::new(rng.below(i as u64) as u32)));
            } else {
                srcs.push(Operand::page(rng.below(64) * 4));
            }
        }
        let mut inst = VectorInst::with_srcs(i as u32, op, srcs);
        if rng.below(8) == 0 {
            inst.elem_bits = 8;
        }
        if rng.below(6) == 0 {
            inst.dst_page = Some(LogicalPageId::new(256 + rng.below(32) * 4));
        }
        prog.push(inst);
    }
    prog
}

const PROGRAMS: usize = 200;
const POLICIES: [Policy; 3] = [Policy::Conduit, Policy::DmOffloading, Policy::IspOnly];

/// Runs every program under every policy twice in one `submit_batch` — once
/// fresh, once on the policy's warm device — on a session with `workers`
/// workers. Returns the outcomes and the final snapshots of the three warm
/// devices.
fn run_batch(workers: usize) -> (Vec<RunOutcome>, Vec<DeviceSnapshot>) {
    let mut session = Session::builder(SsdConfig::small_for_tests())
        .workers(workers)
        .build();
    let warm: Vec<DeviceHandle> = (0..POLICIES.len())
        .map(|pi| session.create_device(&format!("rand-warm-{pi}")))
        .collect();
    let mut requests = Vec::new();
    for index in 0..PROGRAMS {
        let id = session.register(random_program(index)).unwrap();
        for (policy, &device) in POLICIES.iter().zip(&warm) {
            let base = RunRequest::new(id, *policy).timeline(true);
            requests.push(base.clone());
            requests.push(base.on_device(device));
        }
    }
    let outcomes = session.submit_batch(&requests).unwrap();
    let snapshots = warm.iter().map(|&d| session.device_snapshot(d)).collect();
    (outcomes, snapshots)
}

#[test]
fn random_programs_run_bit_identically_across_pool_shapes() {
    let (serial, serial_devices) = run_batch(1);
    let (pooled, pooled_devices) = run_batch(2);
    assert_eq!(serial.len(), PROGRAMS * POLICIES.len() * 2);
    for (i, (a, b)) in serial.iter().zip(&pooled).enumerate() {
        let index = i / (POLICIES.len() * 2);
        let policy = POLICIES[(i / 2) % POLICIES.len()];
        let fresh = i % 2 == 0;
        assert_eq!(
            a, b,
            "program {index} ({policy}, fresh={fresh}): 1 worker vs 2 workers diverged"
        );
    }
    for (pi, (a, b)) in serial_devices.iter().zip(&pooled_devices).enumerate() {
        assert_eq!(
            a, b,
            "{}: warm device aged differently on 1 worker vs 2",
            POLICIES[pi]
        );
    }
}
