//! # mandelbrot — the Mandelbrot benchmark application
//!
//! The paper's conclusion reports that the SkelCL findings for list-mode
//! OSEM (greatly reduced programming effort, small performance overhead)
//! also hold for a Mandelbrot benchmark application, evaluated in the
//! companion paper \[6\]. This crate provides that application: a SkelCL
//! version built on the map skeleton with additional arguments, a low-level
//! version written directly against the simulated OpenCL runtime, and a
//! sequential reference.

use std::sync::Arc;

use skelcl::prelude::*;
use skelcl::SkelCl;

use oclsim::{ApiModel, Context, CostHint, KernelArg, NativeKernelDef, Program};

/// Parameters of a Mandelbrot rendering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MandelbrotConfig {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Iteration limit.
    pub max_iterations: u32,
    /// Centre of the view (real axis).
    pub center_re: f32,
    /// Centre of the view (imaginary axis).
    pub center_im: f32,
    /// Width of the view in the complex plane.
    pub view_width: f32,
}

impl MandelbrotConfig {
    /// A small configuration for tests.
    pub fn test_scale() -> MandelbrotConfig {
        MandelbrotConfig {
            width: 64,
            height: 48,
            max_iterations: 100,
            center_re: -0.5,
            center_im: 0.0,
            view_width: 3.0,
        }
    }

    /// The benchmark configuration (a 2048×2048 rendering).
    pub fn benchmark_scale() -> MandelbrotConfig {
        MandelbrotConfig {
            width: 2048,
            height: 2048,
            max_iterations: 1000,
            ..MandelbrotConfig::test_scale()
        }
    }

    /// Number of pixels.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// Per-pixel cost hint for the virtual-time model, used by the low-level
    /// (native-kernel) rendering: an author-provided estimate that assumes
    /// roughly half the pixels run to the iteration limit. The SkelCL version
    /// is charged the cost the interpreter *measures* instead, so the two
    /// renderings bracket the true data-dependent cost from opposite sides.
    pub fn cost_hint(&self) -> CostHint {
        CostHint::new(8.0 * self.max_iterations as f64 * 0.5, 8.0)
    }
}

/// The escape-time computation for one pixel index.
pub fn escape_time(config: &MandelbrotConfig, pixel: usize) -> u32 {
    let x = (pixel % config.width) as f32;
    let y = (pixel / config.width) as f32;
    let scale = config.view_width / config.width as f32;
    let c_re = config.center_re + (x - config.width as f32 / 2.0) * scale;
    let c_im = config.center_im + (y - config.height as f32 / 2.0) * scale;
    let mut z_re = 0.0f32;
    let mut z_im = 0.0f32;
    let mut i = 0;
    while i < config.max_iterations && z_re * z_re + z_im * z_im <= 4.0 {
        let new_re = z_re * z_re - z_im * z_im + c_re;
        z_im = 2.0 * z_re * z_im + c_im;
        z_re = new_re;
        i += 1;
    }
    i
}

/// Sequential reference rendering.
pub fn render_sequential(config: &MandelbrotConfig) -> Vec<u32> {
    (0..config.pixels())
        .map(|p| escape_time(config, p))
        .collect()
}

/// The kernel-language source of the per-pixel user function used by the
/// SkelCL version: the pixel index is the map input, the image geometry and
/// iteration limit arrive as additional (scalar) arguments.
pub const MANDELBROT_UDF: &str = r#"
int func(int pixel, int width, int height, float center_re, float center_im,
         float view_width, int max_iter) {
    float x = pixel % width;
    float y = pixel / width;
    float scale = view_width / width;
    float c_re = center_re + (x - width / 2.0f) * scale;
    float c_im = center_im + (y - height / 2.0f) * scale;
    float z_re = 0.0f;
    float z_im = 0.0f;
    int i = 0;
    while (i < max_iter && z_re * z_re + z_im * z_im <= 4.0f) {
        float new_re = z_re * z_re - z_im * z_im + c_re;
        z_im = 2.0f * z_re * z_im + c_im;
        z_re = new_re;
        i = i + 1;
    }
    return i;
}
"#;

/// Render with SkelCL: an index-map skeleton over the pixel indices (no input
/// vector is stored or uploaded), customised with [`MANDELBROT_UDF`] and the
/// view parameters as additional arguments.
pub fn render_skelcl(runtime: &Arc<SkelCl>, config: &MandelbrotConfig) -> Result<Vec<u32>> {
    let map = Map::<i32, i32>::from_source(MANDELBROT_UDF);
    let out = map
        .run_index(runtime, config.pixels())
        .args(skelcl::args![
            config.width as i32,
            config.height as i32,
            config.center_re,
            config.center_im,
            config.view_width,
            config.max_iterations as i32
        ])
        .exec()?;
    Ok(out.to_vec()?.into_iter().map(|v| v as u32).collect())
}

/// Render with the low-level simulated-OpenCL path: explicit context, queue
/// and buffer management, one launch per device over a manually computed
/// pixel range, non-blocking reads joined once per queue. Returns the image
/// and the rendering's virtual runtime in seconds (launches through
/// download).
pub fn render_lowlevel(
    num_gpus: usize,
    config: &MandelbrotConfig,
) -> oclsim::Result<(Vec<u32>, f64)> {
    let context = Context::new(
        vec![oclsim::DeviceProfile::tesla_c1060(); num_gpus],
        ApiModel::opencl(),
    );
    let cfg = *config;
    let kernel_def = NativeKernelDef::new("mandelbrot", config.cost_hint(), move |ctx| {
        let n = ctx.global_size();
        let offset = ctx.scalar_usize(1)?;
        let mut views = ctx.arg_views();
        let out = views[0]
            .as_slice_mut::<u32>()
            .ok_or("output must be a buffer")?;
        for i in 0..n {
            out[i] = escape_time(&cfg, offset + i);
        }
        Ok(())
    });
    let program = Program::from_native([kernel_def]);
    let kernel = program.kernel("mandelbrot")?;

    let pixels = config.pixels();
    let per_gpu = pixels.div_ceil(num_gpus.max(1));
    let t0 = context.host_now();
    let mut launches = Vec::new();
    for gpu in 0..num_gpus {
        let start = (gpu * per_gpu).min(pixels);
        let end = ((gpu + 1) * per_gpu).min(pixels);
        if start == end {
            continue;
        }
        let queue = context.queue(gpu)?;
        let buffer = context.create_buffer::<u32>(gpu, end - start)?;
        queue.enqueue_kernel(
            &kernel,
            end - start,
            &[
                KernelArg::Buffer(buffer.clone()),
                KernelArg::Scalar(oclsim::Value::Uint(start as u32)),
            ],
        )?;
        let read = queue.enqueue_read_buffer_region_nb::<u32>(&buffer, 0, end - start)?;
        launches.push((queue, buffer, read, start..end));
    }
    // Join every queue before claiming any part, so a failed launch returns
    // its error and never a partly rendered image.
    for (queue, ..) in &launches {
        queue.finish_checked()?;
    }
    let seconds = (context.host_now() - t0).as_secs_f64();
    let mut image = vec![0u32; pixels];
    for (_, buffer, read, range) in &launches {
        read.wait_into(&mut image[range.clone()])?;
        context.release_buffer(buffer)?;
    }
    Ok((image, seconds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_time_known_points() {
        let cfg = MandelbrotConfig::test_scale();
        // The centre pixel maps near -0.5 + 0i, inside the set.
        let centre = (cfg.height / 2) * cfg.width + cfg.width / 2;
        assert_eq!(escape_time(&cfg, centre), cfg.max_iterations);
        // The corner pixels are far outside and escape quickly.
        assert!(escape_time(&cfg, 0) < 10);
    }

    #[test]
    fn skelcl_rendering_matches_sequential_on_multiple_gpus() {
        let cfg = MandelbrotConfig::test_scale();
        let reference = render_sequential(&cfg);
        for devices in [1usize, 2, 4] {
            let rt = skelcl::init_gpus(devices);
            let image = render_skelcl(&rt, &cfg).unwrap();
            assert_eq!(image, reference, "devices = {devices}");
        }
    }

    #[test]
    fn lowlevel_rendering_matches_sequential() {
        let cfg = MandelbrotConfig::test_scale();
        let reference = render_sequential(&cfg);
        for devices in [1usize, 3] {
            assert_eq!(render_lowlevel(devices, &cfg).unwrap().0, reference);
        }
    }

    #[test]
    fn skelcl_mandelbrot_stays_within_2x_of_lowlevel() {
        // At this size (64×48) fixed per-device overheads dominate, so the
        // bound is loose and multi-GPU scaling is not asserted.
        let cfg = MandelbrotConfig::test_scale();
        for gpus in [1usize, 2, 4] {
            let rt = skelcl::init_gpus(gpus);
            // Warm-up so runtime kernel compilation is excluded, as in the
            // paper.
            render_skelcl(&rt, &cfg).unwrap();
            let t0 = rt.finish_all();
            render_skelcl(&rt, &cfg).unwrap();
            let skelcl_s = (rt.finish_all() - t0).as_secs_f64();
            let (_, lowlevel_s) = render_lowlevel(gpus, &cfg).unwrap();
            assert!(
                skelcl_s < lowlevel_s * 2.0,
                "SkelCL {skelcl_s} s vs low-level {lowlevel_s} s at {gpus} GPUs"
            );
        }
    }

    #[test]
    fn config_helpers() {
        let cfg = MandelbrotConfig::benchmark_scale();
        assert_eq!(cfg.pixels(), 2048 * 2048);
        assert!(cfg.cost_hint().flops_per_item > 100.0);
    }
}
