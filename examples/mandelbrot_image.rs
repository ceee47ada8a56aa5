//! Render a small Mandelbrot set with the map skeleton and print it as ASCII
//! art — the benchmark application referenced in the paper's conclusion.
//!
//! Run with `cargo run --example mandelbrot_image`.

use mandelbrot::{render_skelcl, MandelbrotConfig};

fn main() {
    let config = MandelbrotConfig {
        width: 96,
        height: 32,
        max_iterations: 80,
        center_re: -0.5,
        center_im: 0.0,
        view_width: 3.2,
    };
    let rt = skelcl::init_gpus(4);
    let image = render_skelcl(&rt, &config).expect("rendering");

    let palette = [b' ', b'.', b':', b'-', b'=', b'+', b'*', b'#', b'%', b'@'];
    for row in 0..config.height {
        let mut line = String::with_capacity(config.width);
        for col in 0..config.width {
            let it = image[row * config.width + col];
            let idx = (it as usize * (palette.len() - 1)) / config.max_iterations as usize;
            line.push(palette[idx] as char);
        }
        println!("{line}");
    }
    println!(
        "{}x{} pixels rendered on {} simulated GPUs in {:.3} simulated ms",
        config.width,
        config.height,
        rt.device_count(),
        rt.now().as_secs_f64() * 1e3
    );

    // The escape loop must stay on the native tier under lane masks: a
    // replayed batch means it fell back to interpreter speed (CI runs this
    // example).
    let trace = rt.exec_trace();
    println!("{}", trace.tier_line());
    if trace.replayed_batches() > 0 || trace.bailed_launches() > 0 {
        eprintln!("error: a render launch replayed or bailed off the native tier");
        std::process::exit(1);
    }
}
