//! The CUDA-style host program for list-mode OSEM.
//!
//! CUDA's host API is more compact than OpenCL's: there is no platform /
//! device-selection ceremony and no runtime kernel compilation (kernels are
//! compiled offline by `nvcc`). This implementation therefore goes straight
//! from "number of GPUs" to contexts and launches, and registers its kernels
//! as natively-compiled code. It still has to do all the multi-GPU data
//! management by hand — splitting the events, copying the image to every
//! GPU, merging the error images, partitioning for step 2 — which is what
//! the paper counts as the extra multi-GPU lines of the CUDA version.
//!
//! Device-code (`crate::kernels`) is shared with the other implementations.

use oclsim::{ApiModel, Buffer, CommandQueue, Context, KernelArg, NativeKernelDef, Program};

use crate::config::ReconstructionConfig;
use crate::events::Event;
use crate::geometry::Volume;
use crate::kernels::{self, step1_cost, step2_cost};
use crate::opencl_impl::OclResult;

/// The CUDA-style implementation of list-mode OSEM.
pub struct CudaOsem {
    context: Context,
    queues: Vec<CommandQueue>,
    num_gpus: usize,
    volume: Volume,
    config: ReconstructionConfig,
    compute_c_kernel: oclsim::Kernel,
    update_kernel: oclsim::Kernel,
}

impl CudaOsem {
    /// Set up the CUDA-style reconstruction on `num_gpus` GPUs.
    pub fn new(num_gpus: usize, config: ReconstructionConfig) -> OclResult<CudaOsem> {
        // LOC: host-single begin
        // cudaSetDevice-style initialisation: one context over the GPUs, one
        // stream (queue) per GPU, under the CUDA cost model.
        let context = Context::with_gpus_api(num_gpus, ApiModel::cuda());
        let mut queues = Vec::with_capacity(num_gpus);
        for device in 0..context.device_count() {
            queues.push(context.queue(device)?);
        }
        // Kernels are compiled offline; register the (shared) kernel bodies.
        let volume = config.volume;
        let step1 = step1_cost(&volume);
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
        let update_def = NativeKernelDef::new("updateImage", step2_cost(), move |ctx| {
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
        Ok(CudaOsem {
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
        // Split events across GPUs (cudaMemcpyAsync per device in real CUDA).
        let per_gpu = events.len().div_ceil(self.num_gpus.max(1));
        let chunks: Vec<&[Event]> = (0..self.num_gpus)
            .map(|g| {
                let start = (g * per_gpu).min(events.len());
                let end = ((g + 1) * per_gpu).min(events.len());
                &events[start..end]
            })
            .collect();
        // LOC: multi-gpu end

        // Upload and launch step 1 on every GPU.
        let mut buffers: Vec<(Option<Buffer>, Buffer, Buffer)> = Vec::with_capacity(self.num_gpus);
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
            if let Some(ev) = &ev_buf {
                queue.enqueue_kernel(
                    &self.compute_c_kernel,
                    chunks[gpu].len(),
                    &[
                        KernelArg::Buffer(ev.clone()),
                        KernelArg::Buffer(f_buf.clone()),
                        KernelArg::Buffer(c_buf.clone()),
                    ],
                )?;
            }
            buffers.push((ev_buf, f_buf, c_buf));
        }

        // LOC: multi-gpu begin
        // Copy the error images back asynchronously (cudaMemcpyAsync), sync
        // every stream, merge them on the host, repartition for step 2.
        let mut c_reads = Vec::with_capacity(self.num_gpus);
        for (queue, (_, _, c_buf)) in self.queues.iter().zip(&buffers) {
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
        for (ev, f_buf, c_buf) in &buffers {
            if let Some(ev) = ev {
                self.context.release_buffer(ev)?;
            }
            self.context.release_buffer(f_buf)?;
            self.context.release_buffer(c_buf)?;
        }
        let per_gpu_vox = nvox.div_ceil(self.num_gpus.max(1));
        let ranges: Vec<std::ops::Range<usize>> = (0..self.num_gpus)
            .map(|g| (g * per_gpu_vox).min(nvox)..((g + 1) * per_gpu_vox).min(nvox))
            .collect();
        // LOC: multi-gpu end

        // Step 2: per-GPU update of the image parts, then gather.
        let mut part_buffers = Vec::with_capacity(self.num_gpus);
        for gpu in 0..self.num_gpus {
            let range = ranges[gpu].clone();
            if range.is_empty() {
                part_buffers.push(None);
                continue;
            }
            let queue = &self.queues[gpu];
            let f_buf = self.context.create_buffer::<f32>(gpu, range.len())?;
            queue.enqueue_write_buffer(&f_buf, &f[range.clone()])?;
            let c_buf = self.context.create_buffer::<f32>(gpu, range.len())?;
            queue.enqueue_write_buffer(&c_buf, &c_merged[range.clone()])?;
            queue.enqueue_kernel(
                &self.update_kernel,
                range.len(),
                &[
                    KernelArg::Buffer(f_buf.clone()),
                    KernelArg::Buffer(c_buf.clone()),
                ],
            )?;
            part_buffers.push(Some((f_buf, c_buf)));
        }
        // LOC: multi-gpu begin
        // Gather asynchronously and sync every stream before touching f, so
        // a failed launch leaves f as it was.
        let mut f_reads = Vec::with_capacity(self.num_gpus);
        for ((queue, part), range) in self.queues.iter().zip(&part_buffers).zip(&ranges) {
            if let Some((f_buf, _)) = part {
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
        for (f_buf, c_buf) in part_buffers.iter().flatten() {
            self.context.release_buffer(f_buf)?;
            self.context.release_buffer(c_buf)?;
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
    fn cuda_style_reconstruction_matches_sequential() {
        let config = ReconstructionConfig::test_scale();
        let subsets = sequential::generate_subsets(&config);
        let mut reference = vec![1.0f32; config.volume.voxel_count()];
        for s in &subsets {
            sequential::process_subset(&config, s, &mut reference);
        }
        for gpus in [1usize, 2, 4] {
            let osem = CudaOsem::new(gpus, config.clone()).unwrap();
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
    fn a_failed_kernel_fails_the_subset_and_leaves_the_image_untouched() {
        // Both baselines, with the step-1 and then the step-2 launch of GPU 1
        // failing: the error must reach the caller, and no part of f may be
        // overwritten with a stale or partial result.
        let config = ReconstructionConfig::test_scale();
        let events = &sequential::generate_subsets(&config)[0];
        let failed_untouched =
            |result: OclResult<()>, f: &[f32]| result.is_err() && f.iter().all(|&x| x == 1.0);
        for first_op in [1, 5] {
            let plan = oclsim::FaultPlan::new().transient_launch_at_op(1, first_op);
            let cuda = CudaOsem::new(2, config.clone()).unwrap();
            cuda.context().inject_faults(&plan);
            let mut f = vec![1.0f32; config.volume.voxel_count()];
            assert!(
                failed_untouched(cuda.process_subset(events, &mut f), &f),
                "CUDA, fault from op {first_op}"
            );
            let opencl = crate::opencl_impl::OpenClOsem::new(2, config.clone()).unwrap();
            opencl.context().inject_faults(&plan);
            let mut f = vec![1.0f32; config.volume.voxel_count()];
            assert!(
                failed_untouched(opencl.process_subset(events, &mut f), &f),
                "OpenCL, fault from op {first_op}"
            );
        }
    }
}
