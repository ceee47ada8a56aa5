//! The low-level OpenCL-style host program for list-mode OSEM.
//!
//! This implementation uses the simulated OpenCL runtime (`oclsim`) directly,
//! the way the paper's hand-written OpenCL version does: explicit platform
//! and device selection, explicit buffer management, explicit splitting of
//! the event stream across GPUs with offset arithmetic, explicit download /
//! merge / re-upload of the images between the two steps, and explicit
//! synchronisation. The verbosity is the point — Figure 4a compares exactly
//! this host code against Listing 3.
//!
//! The device kernels themselves (`crate::kernels`) are shared by all three
//! implementations, as in the paper where the kernel code is essentially
//! identical across CUDA, OpenCL and SkelCL.

use oclsim::{
    ApiModel, Buffer, CommandQueue, Context, DeviceType, KernelArg, NativeKernelDef, Program,
};

use crate::config::ReconstructionConfig;
use crate::events::Event;
use crate::geometry::Volume;
use crate::kernels::{self, step1_cost, step2_cost};

/// Errors of the low-level implementations are the simulator's errors.
pub type OclResult<T> = oclsim::Result<T>;

/// The OpenCL-style implementation of list-mode OSEM.
pub struct OpenClOsem {
    context: Context,
    queues: Vec<CommandQueue>,
    num_gpus: usize,
    volume: Volume,
    config: ReconstructionConfig,
    compute_c_kernel: oclsim::Kernel,
    update_kernel: oclsim::Kernel,
}

impl OpenClOsem {
    /// Set up the OpenCL-style reconstruction on `num_gpus` GPUs.
    pub fn new(num_gpus: usize, config: ReconstructionConfig) -> OclResult<OpenClOsem> {
        // LOC: host-single begin
        // Platform and device selection boilerplate: enumerate platforms,
        // pick the first one exposing enough GPU devices, and collect their
        // descriptors — the ceremony the paper attributes much of the OpenCL
        // host-code length to.
        let platforms = oclsim::default_platforms();
        let mut selected = None;
        for platform in &platforms {
            let gpus = platform.devices_of_type(DeviceType::Gpu);
            if gpus.len() >= num_gpus {
                selected = Some(gpus.into_iter().take(num_gpus).collect::<Vec<_>>());
                break;
            }
        }
        let Some(device_profiles) = selected else {
            return Err(oclsim::OclError::NoSuchDevice {
                index: num_gpus,
                available: platforms
                    .iter()
                    .map(|p| p.devices_of_type(DeviceType::Gpu).len())
                    .max()
                    .unwrap_or(0),
            });
        };
        // Create the context and one in-order command queue per device.
        let context = Context::new(device_profiles, ApiModel::opencl());
        let mut queues = Vec::with_capacity(num_gpus);
        for device_index in 0..context.device_count() {
            queues.push(context.queue(device_index)?);
        }

        // Build the device programs. OpenCL compiles kernels at runtime; the
        // actual kernel bodies live in `crate::kernels` (shared across the
        // implementations), registered here as native kernels with the cost
        // hints of the real code. A representative source program is built
        // through the runtime compiler so this implementation pays the same
        // one-time compilation cost a real OpenCL host program would (the
        // paper excludes this cost from its measurements, and so do the
        // benchmark harnesses).
        let volume = config.volume;
        context.build_program(
            "__kernel void computeC(__global float* f, __global float* c, int n) {\
                 int i = get_global_id(0); if (i < n) { c[i] = f[i]; } }",
        )?;
        let step1 = step1_cost(&volume);
        let step2 = step2_cost();
        let compute_c_def = NativeKernelDef::new("computeC", step1, move |ctx| {
            let n = ctx.global_size();
            let mut views = ctx.arg_views();
            let (events_view, rest) = views.split_first_mut().ok_or("missing events argument")?;
            let (f_view, rest) = rest.split_first_mut().ok_or("missing f argument")?;
            let (c_view, _) = rest.split_first_mut().ok_or("missing c argument")?;
            let events = events_view
                .as_slice::<Event>()
                .ok_or("events must be a buffer")?;
            let f = f_view.as_slice::<f32>().ok_or("f must be a buffer")?;
            let c = c_view.as_slice_mut::<f32>().ok_or("c must be a buffer")?;
            kernels::compute_error_image(&volume, &events[..n], f, c);
            Ok(())
        });
        let update_def = NativeKernelDef::new("updateImage", step2, move |ctx| {
            let n = ctx.global_size();
            let mut views = ctx.arg_views();
            let (f_view, rest) = views.split_first_mut().ok_or("missing f argument")?;
            let (c_view, _) = rest.split_first_mut().ok_or("missing c argument")?;
            let f = f_view.as_slice_mut::<f32>().ok_or("f must be a buffer")?;
            let c = c_view.as_slice::<f32>().ok_or("c must be a buffer")?;
            kernels::update_image(&mut f[..n], &c[..n]);
            Ok(())
        });
        let program = Program::from_native([compute_c_def, update_def]);
        let compute_c_kernel = program.kernel("computeC")?;
        let update_kernel = program.kernel("updateImage")?;
        // LOC: host-single end

        Ok(OpenClOsem {
            context,
            queues,
            num_gpus,
            volume,
            config,
            compute_c_kernel,
            update_kernel,
        })
    }

    /// The underlying context (used by harnesses to read the virtual clock).
    pub fn context(&self) -> &Context {
        &self.context
    }

    /// Process one subset, updating the host-resident reconstruction image.
    pub fn process_subset(&self, events: &[Event], f: &mut [f32]) -> OclResult<()> {
        let nvox = self.volume.voxel_count();
        // LOC: host-single begin
        // LOC: multi-gpu begin
        // Split the subset into per-GPU sub-subsets with explicit offset and
        // length arithmetic (PSD for step 1).
        let per_gpu = events.len().div_ceil(self.num_gpus.max(1));
        let mut chunks: Vec<&[Event]> = Vec::with_capacity(self.num_gpus);
        for gpu in 0..self.num_gpus {
            let start = (gpu * per_gpu).min(events.len());
            let end = ((gpu + 1) * per_gpu).min(events.len());
            chunks.push(&events[start..end]);
        }
        // LOC: multi-gpu end

        // Upload: one sub-subset, a full copy of f and a zeroed error image
        // per GPU; then launch step 1 on every GPU.
        let mut event_buffers: Vec<Option<Buffer>> = Vec::with_capacity(self.num_gpus);
        let mut f_buffers: Vec<Buffer> = Vec::with_capacity(self.num_gpus);
        let mut c_buffers: Vec<Buffer> = Vec::with_capacity(self.num_gpus);
        for gpu in 0..self.num_gpus {
            let queue = &self.queues[gpu];
            let f_buf = self.context.create_buffer::<f32>(gpu, nvox)?;
            queue.enqueue_write_buffer(&f_buf, f)?;
            let c_buf = self.context.create_buffer::<f32>(gpu, nvox)?;
            queue.enqueue_write_buffer(&c_buf, &vec![0.0f32; nvox])?;
            let ev_buf = if chunks[gpu].is_empty() {
                None
            } else {
                let b = self
                    .context
                    .create_buffer::<Event>(gpu, chunks[gpu].len())?;
                queue.enqueue_write_buffer(&b, chunks[gpu])?;
                Some(b)
            };
            event_buffers.push(ev_buf);
            f_buffers.push(f_buf);
            c_buffers.push(c_buf);
        }
        for gpu in 0..self.num_gpus {
            let Some(ev_buf) = &event_buffers[gpu] else {
                continue;
            };
            self.queues[gpu].enqueue_kernel(
                &self.compute_c_kernel,
                chunks[gpu].len(),
                &[
                    KernelArg::Buffer(ev_buf.clone()),
                    KernelArg::Buffer(f_buffers[gpu].clone()),
                    KernelArg::Buffer(c_buffers[gpu].clone()),
                ],
            )?;
        }

        // LOC: multi-gpu begin
        // Download every GPU's error image with non-blocking reads so the
        // transfers overlap, wait for all queues (surfacing any failed
        // command), then merge the parts on the host by element-wise
        // addition.
        let mut c_reads = Vec::with_capacity(self.num_gpus);
        for (queue, c_buf) in self.queues.iter().zip(&c_buffers) {
            c_reads.push(queue.enqueue_read_buffer_region_nb::<f32>(c_buf, 0, nvox)?);
        }
        for queue in &self.queues {
            queue.finish_checked()?;
        }
        let mut c_merged = vec![0.0f32; nvox];
        let mut c_part = vec![0.0f32; nvox];
        for read in &c_reads {
            read.wait_into(&mut c_part)?;
            for (acc, x) in c_merged.iter_mut().zip(&c_part) {
                *acc += *x;
            }
        }
        // Partition the images for step 2 (ISD): compute per-GPU voxel
        // ranges, release the step-1 buffers and upload the parts.
        let per_gpu_vox = nvox.div_ceil(self.num_gpus.max(1));
        let mut ranges = Vec::with_capacity(self.num_gpus);
        for gpu in 0..self.num_gpus {
            let start = (gpu * per_gpu_vox).min(nvox);
            let end = ((gpu + 1) * per_gpu_vox).min(nvox);
            ranges.push(start..end);
        }
        for gpu in 0..self.num_gpus {
            if let Some(b) = &event_buffers[gpu] {
                self.context.release_buffer(b)?;
            }
            self.context.release_buffer(&f_buffers[gpu])?;
            self.context.release_buffer(&c_buffers[gpu])?;
        }
        let mut f_part_buffers = Vec::with_capacity(self.num_gpus);
        let mut c_part_buffers = Vec::with_capacity(self.num_gpus);
        for gpu in 0..self.num_gpus {
            let range = ranges[gpu].clone();
            if range.is_empty() {
                f_part_buffers.push(None);
                c_part_buffers.push(None);
                continue;
            }
            let queue = &self.queues[gpu];
            let f_buf = self.context.create_buffer::<f32>(gpu, range.len())?;
            queue.enqueue_write_buffer(&f_buf, &f[range.clone()])?;
            let c_buf = self.context.create_buffer::<f32>(gpu, range.len())?;
            queue.enqueue_write_buffer(&c_buf, &c_merged[range])?;
            f_part_buffers.push(Some(f_buf));
            c_part_buffers.push(Some(c_buf));
        }
        // LOC: multi-gpu end

        // Step 2: update each image part, then download and merge into f.
        for gpu in 0..self.num_gpus {
            let (Some(f_buf), Some(c_buf)) = (&f_part_buffers[gpu], &c_part_buffers[gpu]) else {
                continue;
            };
            self.queues[gpu].enqueue_kernel(
                &self.update_kernel,
                ranges[gpu].len(),
                &[
                    KernelArg::Buffer(f_buf.clone()),
                    KernelArg::Buffer(c_buf.clone()),
                ],
            )?;
        }
        // LOC: multi-gpu begin
        // Read the updated parts back without blocking, wait for all queues,
        // and only then write them into f: a failed command leaves f as it
        // was.
        let mut f_reads = Vec::with_capacity(self.num_gpus);
        for ((queue, f_buf), range) in self.queues.iter().zip(&f_part_buffers).zip(&ranges) {
            if let Some(f_buf) = f_buf {
                let read = queue.enqueue_read_buffer_region_nb::<f32>(f_buf, 0, range.len())?;
                f_reads.push((read, range.clone()));
            }
        }
        for queue in &self.queues {
            queue.finish_checked()?;
        }
        for (read, range) in f_reads {
            read.wait_into(&mut f[range])?;
        }
        for buffer in f_part_buffers.iter().chain(&c_part_buffers).flatten() {
            self.context.release_buffer(buffer)?;
        }
        // LOC: multi-gpu end
        // LOC: host-single end
        Ok(())
    }

    /// Run a reconstruction over pre-generated subsets.
    pub fn reconstruct_subsets(&self, subsets: &[Vec<Event>]) -> OclResult<Vec<f32>> {
        let mut f = vec![1.0f32; self.volume.voxel_count()];
        for subset in subsets {
            self.process_subset(subset, &mut f)?;
        }
        Ok(f)
    }

    /// Process one subset and return its virtual runtime in seconds.
    pub fn time_one_subset(&self, events: &[Event]) -> OclResult<(f64, Vec<f32>)> {
        let mut f = vec![1.0f32; self.volume.voxel_count()];
        let t0 = self.context.host_now();
        self.process_subset(events, &mut f)?;
        let t1 = self.context.host_now();
        Ok(((t1 - t0).as_secs_f64(), f))
    }

    /// The reconstruction configuration.
    pub fn config(&self) -> &ReconstructionConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential;

    #[test]
    fn opencl_style_reconstruction_matches_sequential() {
        let config = ReconstructionConfig::test_scale();
        let subsets = sequential::generate_subsets(&config);
        let mut reference = vec![1.0f32; config.volume.voxel_count()];
        for s in &subsets {
            sequential::process_subset(&config, s, &mut reference);
        }
        for gpus in [1usize, 2, 4] {
            let osem = OpenClOsem::new(gpus, config.clone()).unwrap();
            let image = osem.reconstruct_subsets(&subsets).unwrap();
            for (i, (a, b)) in image.iter().zip(&reference).enumerate() {
                let denom = a.abs().max(b.abs()).max(1e-3);
                assert!(
                    (a - b).abs() / denom < 1e-3,
                    "gpus {gpus}, voxel {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn requesting_more_gpus_than_available_fails() {
        let config = ReconstructionConfig::test_scale();
        assert!(OpenClOsem::new(9, config).is_err());
    }

    #[test]
    fn device_memory_is_released_after_each_subset() {
        let config = ReconstructionConfig::test_scale();
        let subsets = sequential::generate_subsets(&config);
        let osem = OpenClOsem::new(2, config.clone()).unwrap();
        let mut f = vec![1.0f32; config.volume.voxel_count()];
        osem.process_subset(&subsets[0], &mut f).unwrap();
        for d in 0..2 {
            assert_eq!(osem.context().device(d).unwrap().allocated_bytes(), 0);
        }
    }
}
