//! SkelCL as a service: three tenants share one runtime through a
//! [`skelcl_serving::Server`]. An interactive tenant runs at high priority,
//! two batch tenants split the remaining capacity 3:1 by fair-share weight,
//! one of them under a memory quota. Same-kernel jobs coalesce into packed
//! launches — also jobs whose maps differ only in their `float` literals,
//! which are per-job data — and the serving trace at the end shows how
//! many launches that saved.
//!
//! Run with `cargo run --example serving`.

use skelcl::prelude::*;
use skelcl_serving::{Priority, ServeError, Server, ServerConfig, TenantConfig};

fn main() -> skelcl_serving::Result<()> {
    let rt = skelcl::init_gpus(2);
    let server = Server::with_config(
        rt.clone(),
        ServerConfig {
            coalescing: true,
            coalesce_cap: 32,
            max_queue_depth: 256,
            ..ServerConfig::default()
        },
    );

    server.add_tenant(
        "dashboard",
        TenantConfig {
            priority: Priority::High,
            ..TenantConfig::default()
        },
    )?;
    server.add_tenant("nightly-etl", TenantConfig::weighted(3))?;
    server.add_tenant(
        "best-effort",
        TenantConfig {
            weight: 1,
            quota_bytes: Some(64 << 10),
            max_pending: 16,
            ..TenantConfig::default()
        },
    )?;

    let normalize =
        Map::<f32, f32>::from_source("float func(float x) { return (x - 0.5f) * 2.0f; }");
    // The best-effort tenant's variant differs only in its literals: one
    // packed shape with `normalize`, so one program.
    let rescale =
        Map::<f32, f32>::from_source("float func(float x) { return (x - 0.25f) * 4.0f; }");
    let sum = Reduce::<f32>::from_source("float func(float a, float b) { return a + b; }");

    // Batch tenants enqueue a backlog of small same-kernel jobs...
    let mut batch_jobs = Vec::new();
    for (tenant, map) in [("nightly-etl", &normalize), ("best-effort", &rescale)] {
        let session = server.session(tenant)?;
        for i in 0..24u32 {
            let v = Vector::from_vec(
                &rt,
                (0..256).map(|k| ((k + i) % 97) as f32 / 97.0).collect(),
            );
            match session.try_submit_vec(&v.lazy().map(map)) {
                Ok(handle) => batch_jobs.push(handle),
                Err(ServeError::WouldBlock) | Err(ServeError::QuotaExceeded { .. }) => {
                    // Backpressure: this tenant is at its watermark or
                    // quota; a real client would retry after a completion.
                    break;
                }
                Err(e) => return Err(e),
            }
        }
    }

    // ...and the interactive tenant's reduction still jumps the queue.
    let dashboard = server.session("dashboard")?;
    let v = Vector::from_vec(
        &rt,
        (0..4096).map(|k| (k % 31) as f32).collect::<Vec<f32>>(),
    );
    let (total, report) = dashboard.submit_scalar(&v.lazy().reduce(&sum))?.wait()?;
    println!(
        "dashboard reduction = {total} (job #{}, virtual latency {:?})",
        report.job_id,
        report.latency()
    );

    server.flush();
    let mut completed = 0usize;
    for handle in batch_jobs {
        let (out, report) = handle.wait()?;
        assert_eq!(out.len(), 256);
        completed += 1;
        if report.batch_jobs > 1 && completed == 1 {
            println!(
                "batch jobs ran coalesced: {} jobs shared one launch on device {:?}",
                report.batch_jobs, report.device
            );
        }
    }

    let trace = server.trace();
    println!(
        "served {} jobs in {} batches ({} packed, {} jobs coalesced, {} rejected by backpressure)",
        trace.jobs_completed,
        trace.batches,
        trace.packed_batches,
        trace.coalesced_jobs,
        trace.would_blocks,
    );
    for usage in rt.context().ledger().usages() {
        println!(
            "tenant {:<12} peak {:>6} B  launches {:>3}  transfers {:>3} ({} B)",
            usage.tag, usage.peak_bytes, usage.launches, usage.transfers, usage.transfer_bytes
        );
    }
    server.shutdown();

    // Two plan shapes were submitted (the map, in two literal variants,
    // and the bare reduction), however many jobs carried them: each lowers
    // and builds once. (Eager source calls would count as well; every job
    // here is a plan.)
    let exec = rt.exec_trace();
    println!("{}", exec.lowering_line());
    println!("Programs built: {}", exec.programs_built);
    if exec.plan_lowerings > 2 || exec.programs_built > 2 {
        eprintln!(
            "error: 2 distinct plan shapes were submitted, but more were lowered or built \
             (do the two literal variants of the map build two programs?)"
        );
        std::process::exit(1);
    }
    Ok(())
}
