//! Gaussian blur: the classic 3×3 image filter as a MapOverlap (stencil)
//! skeleton over a [`skelcl::Matrix`].
//!
//! The user-defined function reads its neighbours with the `get(dx, dy)`
//! builtin; each device owns a block of image rows plus one halo row from
//! each neighbour ([`Distribution::Block`] with `halo_rows() == 1`), and repeated blurs
//! chain on the devices with halo-only exchanges in between.
//!
//! Run with `cargo run --example gaussian_blur`.

use skelcl::prelude::*;

const GAUSSIAN_BLUR: &str = r#"
    float func(float x) {
        float acc = 4.0f * x;
        acc += 2.0f * (get(-1, 0) + get(1, 0) + get(0, -1) + get(0, 1));
        acc += get(-1, -1) + get(1, -1) + get(-1, 1) + get(1, 1);
        return acc / 16.0f;
    }
"#;

fn main() -> Result<()> {
    let rt = skelcl::init_gpus(4);
    println!("SkelCL initialised on {} devices", rt.device_count());

    // A synthetic 256×256 test image: a bright square on a dark background.
    let (rows, cols) = (256usize, 256usize);
    let image = Matrix::from_fn(&rt, rows, cols, |r, c| {
        if (96..160).contains(&r) && (96..160).contains(&c) {
            255.0f32
        } else {
            16.0
        }
    });

    let blur = MapOverlap::<f32, f32>::from_source(GAUSSIAN_BLUR)
        .with_halo(1)
        .with_boundary(Boundary::Clamp);

    // One pass: every device blurs its rows; the halo rows provide the
    // neighbours across part boundaries.
    let once = blur.run(&image).exec()?;
    println!(
        "one pass:   edge pixel (96, 128) {} -> {}",
        image.get(96, 128)?,
        once.get(96, 128)?
    );

    // Ten iterated passes with the iterative driver: between sweeps only the
    // halo rows travel between devices, never whole parts.
    rt.drain_events();
    let soft = blur.run(&image).run_iter(10)?;
    println!(
        "ten passes: edge pixel (96, 128) -> {:.2}",
        soft.get(96, 128)?
    );

    let trace = rt.exec_trace();
    println!(
        "halo traffic: {} exchanges, {:.1} KiB total ({} bytes per halo row)",
        trace.halo_transfers(),
        trace.halo_bytes() as f64 / 1024.0,
        cols * 4,
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
