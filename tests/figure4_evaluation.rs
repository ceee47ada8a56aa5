//! Figure 4 of the paper (Section IV-B and IV-C): the programming effort
//! (4a, lines of code) and the runtime (4b) of the SkelCL, OpenCL and CUDA
//! implementations of list-mode OSEM.
//!
//! Runtime is virtual time from the device simulator: each implementation's
//! own transfers, launches and synchronisations, charged against profiles of
//! the paper's Tesla hardware. Absolute seconds differ from the paper's
//! testbed; the relationships it reports are asserted with two-sided bounds:
//! SkelCL costs 0–5 % over OpenCL, CUDA is 10–30 % faster than OpenCL (paper:
//! about 20 %), and every implementation gets faster from 1 to 2 to 4 GPUs.
//!
//! `cargo test --release --test figure4_evaluation -- --nocapture` prints
//! both figures as tables.

use osem::{
    figure_4a, sequential, CudaOsem, Implementation, OpenClOsem, ReconstructionConfig, SkelclOsem,
};

/// Runtime of one subset iteration of each implementation at one GPU count.
struct RuntimeRow {
    gpus: usize,
    skelcl_s: f64,
    opencl_s: f64,
    cuda_s: f64,
}

impl RuntimeRow {
    fn skelcl_overhead_pct(&self) -> f64 {
        (self.skelcl_s / self.opencl_s - 1.0) * 100.0
    }

    fn cuda_advantage_pct(&self) -> f64 {
        (self.opencl_s / self.cuda_s - 1.0) * 100.0
    }
}

/// Time one subset on `gpus` GPUs with all three implementations, kernel
/// compilation excluded and each clock running until the image is on the
/// host, and check that the three images agree.
fn measure(config: &ReconstructionConfig, subset: &[osem::Event], gpus: usize) -> RuntimeRow {
    let skel = SkelclOsem::new(skelcl::init_gpus(gpus), config.clone());
    let (skelcl_s, skel_img) = skel.time_one_subset(subset).unwrap();
    let ocl = OpenClOsem::new(gpus, config.clone()).unwrap();
    let (opencl_s, ocl_img) = ocl.time_one_subset(subset).unwrap();
    let cuda = CudaOsem::new(gpus, config.clone()).unwrap();
    let (cuda_s, cuda_img) = cuda.time_one_subset(subset).unwrap();

    assert!(osem::max_relative_difference(&skel_img, &ocl_img) < 1e-3);
    assert!(osem::max_relative_difference(&ocl_img, &cuda_img) < 1e-3);
    RuntimeRow {
        gpus,
        skelcl_s,
        opencl_s,
        cuda_s,
    }
}

#[test]
fn figure_4b_skelcl_overhead_cuda_advantage_and_gpu_scaling() {
    // Many events on the scaled-down volume keep step 1 (per-event path
    // tracing) dominant over the image transfers, as in the paper's
    // workload of ~10^6 events per subset.
    let config = ReconstructionConfig::benchmark_scale().with_events_per_subset(50_000);
    let subset = &sequential::generate_subsets(&config)[0];
    let rows: Vec<RuntimeRow> = [1, 2, 4].map(|gpus| measure(&config, subset, gpus)).into();

    println!("Figure 4b: one OSEM subset iteration, simulated ms");
    println!("GPUs |  SkelCL |  OpenCL |    CUDA | SkelCL overhead | CUDA faster");
    for r in &rows {
        println!(
            "{:>4} | {:>7.3} | {:>7.3} | {:>7.3} | {:>13.2} % | {:>9.2} %",
            r.gpus,
            r.skelcl_s * 1e3,
            r.opencl_s * 1e3,
            r.cuda_s * 1e3,
            r.skelcl_overhead_pct(),
            r.cuda_advantage_pct()
        );
    }

    for r in &rows {
        let overhead = r.skelcl_overhead_pct();
        assert!(
            (0.0..5.0).contains(&overhead),
            "SkelCL overhead over OpenCL at {} GPUs is {overhead:.2} %, paper: below 5 %",
            r.gpus
        );
        let advantage = r.cuda_advantage_pct();
        assert!(
            advantage > 10.0 && advantage < 30.0,
            "CUDA advantage over OpenCL at {} GPUs is {advantage:.2} %, paper: about 20 %",
            r.gpus
        );
    }
    for pair in rows.windows(2) {
        let (fewer, more) = (&pair[0], &pair[1]);
        for (name, t_fewer, t_more) in [
            ("SkelCL", fewer.skelcl_s, more.skelcl_s),
            ("OpenCL", fewer.opencl_s, more.opencl_s),
            ("CUDA", fewer.cuda_s, more.cuda_s),
        ] {
            assert!(
                t_more < t_fewer,
                "{name} must get faster from {} to {} GPUs: {t_fewer:.6} s -> {t_more:.6} s",
                fewer.gpus,
                more.gpus
            );
        }
    }
}

#[test]
fn figure_4a_loc_breakdown_orders_the_implementations_as_the_paper_does() {
    let rows = figure_4a();
    // The paper's host-program sizes (single GPU, multi GPU), Section IV-B.
    let paper = [(18, 26), (206, 243), (88, 130)];
    println!("Figure 4a: host lines of code (kernel code is shared)");
    println!("impl   | single | multi | kernel || paper single | multi");
    for ((imp, loc), (p_single, p_multi)) in rows.iter().zip(paper) {
        println!(
            "{:<6} | {:>6} | {:>5} | {:>6} || {:>12} | {:>5}",
            imp.name(),
            loc.host_single,
            loc.host_multi_total(),
            loc.kernel,
            p_single,
            p_multi
        );
    }

    let find = |imp: Implementation| rows.iter().find(|(i, _)| *i == imp).unwrap().1;
    let skel = find(Implementation::SkelCl);
    let ocl = find(Implementation::OpenCl);
    let cuda = find(Implementation::Cuda);

    // SkelCL is by far the shortest host program, OpenCL the longest.
    assert!(skel.host_single * 2 < cuda.host_single && cuda.host_single < ocl.host_single);
    assert!(skel.host_multi_total() < cuda.host_multi_total());
    // The multi-GPU delta of SkelCL is a handful of lines, while the
    // low-level versions need tens of additional lines.
    assert!(
        skel.host_multi_extra <= 12,
        "SkelCL multi-GPU delta is a few lines, got {}",
        skel.host_multi_extra
    );
    assert!(
        ocl.host_multi_extra >= 20,
        "OpenCL needs explicit multi-GPU code, got {}",
        ocl.host_multi_extra
    );
    assert!(
        cuda.host_multi_extra >= 20,
        "CUDA needs explicit multi-GPU code, got {}",
        cuda.host_multi_extra
    );
}
