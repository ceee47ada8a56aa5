//! Heat diffusion: an explicit 5-point finite-difference solver for the 2-D
//! heat equation, expressed as an iterative MapOverlap (stencil) skeleton.
//!
//! `u' = u + α · (u_north + u_south + u_west + u_east − 4u)` with a constant
//! (Dirichlet) boundary of 0. The iterative driver `run_iter(n)` keeps every
//! device's rows on the device across all sweeps and re-exchanges only the
//! halo rows in between.
//!
//! Run with `cargo run --example heat_diffusion`.

use skelcl::prelude::*;

const HEAT_STEP: &str = r#"
    float func(float u, float alpha) {
        return u + alpha * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u);
    }
"#;

fn main() -> Result<()> {
    let rt = skelcl::init_gpus(4);
    println!("SkelCL initialised on {} devices", rt.device_count());

    // A 128×128 plate, cold everywhere except a hot spot in the middle.
    let (rows, cols) = (128usize, 128usize);
    let plate = Matrix::from_fn(&rt, rows, cols, |r, c| {
        if (56..72).contains(&r) && (56..72).contains(&c) {
            100.0f32
        } else {
            0.0
        }
    });
    let initial_heat: f32 = plate.with_host(|h| h.iter().sum())?;

    let step = MapOverlap::<f32, f32>::from_source(HEAT_STEP)
        .with_halo(1)
        .with_boundary(Boundary::Constant(0.0));

    rt.drain_events();
    let sweeps = 200;
    let diffused = step.run(&plate).arg(0.2f32).run_iter(sweeps)?;

    let centre = diffused.get(64, 64)?;
    let corner = diffused.get(0, 0)?;
    let remaining: f32 = diffused.with_host(|h| h.iter().sum())?;
    println!("after {sweeps} sweeps: centre {centre:.3}, corner {corner:.6}");
    println!(
        "heat: initial {initial_heat:.0}, remaining {remaining:.1} \
         (the Dirichlet boundary drains heat once the front reaches the edge)"
    );

    let trace = rt.exec_trace();
    println!(
        "halo traffic between sweeps: {} exchanges, {:.1} KiB; buffer pool hits: {}",
        trace.halo_transfers(),
        trace.halo_bytes() as f64 / 1024.0,
        trace.buffer_pool_hits,
    );
    println!("virtual time: {:?}", rt.now());

    // The generated stencil kernel must stay on the native tier: a replayed
    // batch means it fell back to interpreter speed (CI runs this example).
    println!("{}", trace.tier_line());
    if trace.replayed_batches() > 0 || trace.bailed_launches() > 0 {
        eprintln!("error: a stencil launch replayed or bailed off the native tier");
        std::process::exit(1);
    }
    Ok(())
}
