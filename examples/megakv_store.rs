//! MEGA-KV walkthrough (§VII-4): a batched GPU key-value store whose
//! contents survive a power loss thanks to Lazy Persistency — insert a
//! batch, crash mid-insert, recover, and query everything back.
//!
//! Run with: `cargo run --release --example megakv_store`

use lpgpu::gpu_lp::LpConfig;
use lpgpu::lp_kernels::world;
use lpgpu::megakv::app::OpKind;
use lpgpu::megakv::MegaKv;
use lpgpu::simt::DeviceConfig;

fn main() {
    let records = 8_192;
    let (gpu, mut mem) = world(DeviceConfig::v100(), 4096, 8);
    let app = MegaKv::new(&mut mem, records, 2026);
    println!(
        "store: {} buckets x {} slots",
        app.store().buckets(),
        app.store().slots()
    );

    // Insert under LP, with a power loss partway through the batch.
    let rt = app.lp_runtime(&mut mem, OpKind::Insert, LpConfig::recommended());
    let report = app.run_with_crash_and_recover(&gpu, &mut mem, OpKind::Insert, &rt, 4_000);
    println!(
        "insert batch: {} regions, {} re-executed over {} round(s), all durable={}",
        report.regions, report.reexecutions, report.rounds, report.all_durable
    );
    assert!(report.all_durable);
    assert!(
        app.verify_inserts(&mut mem),
        "all records must be present after recovery"
    );
    println!("all {records} records present with correct values");

    // Search the recovered store (LP-protected as well).
    let rt = app.lp_runtime(&mut mem, OpKind::Search, LpConfig::recommended());
    app.run(&gpu, &mut mem, OpKind::Search, Some(&rt));
    assert!(app.verify_searches(&mut mem));
    println!("search batch: every key found");

    // Delete half the records, again with a crash + recovery.
    let rt = app.lp_runtime(&mut mem, OpKind::Delete, LpConfig::recommended());
    let report = app.run_with_crash_and_recover(&gpu, &mut mem, OpKind::Delete, &rt, 1_000);
    assert!(report.all_durable);
    assert!(app.verify_deletes(&mut mem));
    println!(
        "delete batch: recovered from mid-batch crash ({} re-executions); deletions consistent",
        report.reexecutions
    );
    println!("live entries now: {}", app.store().live_entries(&mut mem));
}
