//! The simulator referees the exchange cadence `Launch::run_iter` chooses
//! (how many sweeps run between two halo exchanges): virtual time is
//! deterministic, so running every forced ghost depth is an exact oracle
//! for "which depth is fastest". On every fixture row the chosen depth's measured virtual time
//! must be within 5 % of the best forced depth's (the *regret*) and never
//! above depth 1's — the per-sweep exchange of PR 16. The rows sit on both
//! sides of the choice: few sweeps over host-bound parts, where the deepest
//! block wins, and many sweeps of a wide stencil, where the redundant rows
//! outgrow the saved exchanges and the best depth is well below the cap.
//!
//! The same rows also hold the paper's Figure 4b shape for stencils: no row
//! takes longer on `d` devices than on `d − 1`, except the host-bound steps
//! listed in [`KNOWN_SLOWER_STEPS`] at their listed times.
//!
//! Both tables are printed
//! (`cargo test --test stencil_depth_referee -- --nocapture`).

use std::sync::Arc;

use dopencl::{Cluster, ClusterTier};
use skelcl::prelude::*;
use skelcl::SkelCl;

const HEAT: &str = "float func(float u, float alpha) { return u + alpha * (get(0, -1) + get(0, 1) + get(-1, 0) + get(1, 0) - 4.0f * u); }";
const GAUSSIAN_BLUR: &str = r#"
    float func(float x) {
        float acc = 4.0f * x;
        acc += 2.0f * (get(-1, 0) + get(1, 0) + get(0, -1) + get(0, 1));
        acc += get(-1, -1) + get(1, -1) + get(-1, 1) + get(1, 1);
        return acc / 16.0f;
    }
"#;

/// The halo-width rows' workload: a vertical box average over `2 · halo + 1`
/// rows (wider halos read further and move more bytes per exchange).
fn vertical_box(halo: usize) -> String {
    let mut taps = String::from("x");
    for dy in 1..=halo {
        taps.push_str(&format!(" + get(0, -{dy}) + get(0, {dy})"));
    }
    let norm = (2 * halo + 1) as f32;
    format!("float func(float x) {{ return ({taps}) / {norm:.1}f; }}")
}

fn image(rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| ((i * 37 + 11) % 251) as f32 * 0.25)
        .collect()
}

/// One fixture row: a stencil over a `rows × cols` image on some runtime.
struct Fixture<'a> {
    name: String,
    runtime: &'a dyn Fn() -> (Arc<SkelCl>, Option<ClusterTier>),
    src: &'a str,
    halo: usize,
    boundary: Boundary<f32>,
    alpha: Option<f32>,
    rows: usize,
    cols: usize,
    sweeps: usize,
    checkpoint_every: usize,
    /// Whether the image is uploaded by a warm-up sweep before the clock
    /// starts (the 512² rows, `cluster_recover`) or inside the timed
    /// region, gather included (`stencil_iter`).
    resident: bool,
    /// Whether the best depth is expected strictly inside `1..cap` (the
    /// compute-bound side of the choice): the chosen depth must then be
    /// below the cap, and the cap itself measurably (> 5 %) slower.
    interior: bool,
}

/// The forced depths a row with `sweeps` sweeps is refereed against: all of
/// them for a short run, a sample dense at the shallow end for a long one.
fn forced_depths(sweeps: usize) -> Vec<usize> {
    let sample = [1, 2, 3, 4, 6, 8, 12, 16, 24];
    match sweeps {
        0..=16 => (1..=sweeps).collect(),
        _ => sample
            .into_iter()
            .filter(|&d| d < sweeps)
            .chain([sweeps])
            .collect(),
    }
}

impl Fixture<'_> {
    /// Virtual nanoseconds of the run, the ghost depth the result is stored
    /// with and its bits, at a forced ghost depth or the chosen one.
    /// `settle` joins the warm-up before the clock starts; without it the
    /// timed sweeps queue behind the warm-up sweep still in flight.
    fn run(&self, depth: Option<usize>, settle: bool) -> (u64, usize, Vec<u32>) {
        let (rt, _tier) = (self.runtime)();
        let st = MapOverlap::<f32, f32>::from_source(self.src)
            .with_halo(self.halo)
            .with_boundary(self.boundary);
        let launch = |m: &Matrix<f32>| {
            let l = st.run(m).checkpoint_every(self.checkpoint_every);
            match self.alpha {
                Some(a) => l.arg(a),
                None => l,
            }
        };
        let m = Matrix::from_vec(&rt, self.rows, self.cols, image(self.rows, self.cols)).unwrap();
        let warm = if self.resident {
            m.clone()
        } else {
            Matrix::from_vec(&rt, 8, 8, image(8, 8)).unwrap()
        };
        launch(&warm).exec().unwrap();
        if settle {
            rt.finish_all();
        }
        let t0 = rt.now();
        let out = match depth {
            Some(depth) => launch(&m).run_iter_at_depth(self.sweeps, depth),
            None => launch(&m).run_iter(self.sweeps),
        }
        .unwrap();
        let bits = |out: &Matrix<f32>| -> Vec<u32> {
            out.to_vec().unwrap().iter().map(|x| x.to_bits()).collect()
        };
        // The gather is part of what is timed unless the upload was not.
        let gathered = (!self.resident).then(|| bits(&out));
        let ns = (rt.finish_all() - t0).as_nanos();
        (
            ns,
            out.ghost_depth(),
            gathered.unwrap_or_else(|| bits(&out)),
        )
    }

    /// Referee one row and print its table line.
    fn referee(&self) {
        let (chosen, chosen_depth, bits) = self.run(None, true);
        let forced: Vec<(usize, u64)> = forced_depths(self.sweeps)
            .into_iter()
            .map(|depth| {
                let (ns, stored, forced_bits) = self.run(Some(depth), true);
                assert_eq!(
                    forced_bits, bits,
                    "{}: depth {depth} changed the result",
                    self.name
                );
                (stored, ns)
            })
            .collect();
        let depth_1 = forced[0].1;
        let &(cap_depth, cap) = forced.last().unwrap();
        let &(best_depth, best) = forced.iter().min_by_key(|&&(_, ns)| ns).unwrap();
        let regret = chosen as f64 / best as f64 - 1.0;
        let line = format!(
            "{:<34} depth 1 {:>9.3} µs | best {:>9.3} µs (depth {best_depth:>2}) | cap {:>9.3} µs (depth {cap_depth:>2}) | chosen {:>9.3} µs (depth {chosen_depth:>2}) | regret {:>5.2} %",
            self.name,
            depth_1 as f64 / 1e3,
            best as f64 / 1e3,
            cap as f64 / 1e3,
            chosen as f64 / 1e3,
            100.0 * regret
        );
        println!("{line}");
        assert!(regret <= 0.05, "{line}");
        assert!(
            chosen <= depth_1,
            "slower than an exchange every sweep: {line}"
        );
        if self.interior {
            assert!(
                1 < best_depth && best_depth < cap_depth && cap as f64 > 1.05 * best as f64,
                "not a row whose best depth is interior: {line}"
            );
            assert!(
                chosen_depth < cap_depth,
                "the deepest block was chosen where a shallower one wins: {line}"
            );
        }
    }
}

fn gpus(devices: usize) -> impl Fn() -> (Arc<SkelCl>, Option<ClusterTier>) {
    move || (skelcl::init_gpus(devices), None)
}

/// The 512² rows of one workload, on 2 and 4 devices.
fn referee_bench_rows(workload: &str, src: &str, halo: usize, alpha: Option<f32>) {
    for devices in [2, 4] {
        Fixture {
            name: format!("{workload} 512² x10, {devices} devices"),
            runtime: &gpus(devices),
            src,
            halo,
            boundary: Boundary::Clamp,
            alpha,
            rows: 512,
            cols: 512,
            sweeps: 10,
            checkpoint_every: 0,
            resident: true,
            interior: false,
        }
        .referee();
    }
}

/// The repo benchmark's two stencil workloads: `stencil_iter` on 4 devices
/// and `cluster_recover`'s fault-free run on the 8-GPU lab cluster.
#[test]
fn the_chosen_depth_is_within_5_percent_of_the_best_on_the_benchmark_workloads() {
    Fixture {
        name: "stencil_iter 192² x4, 4 devices".into(),
        runtime: &gpus(4),
        src: HEAT,
        halo: 1,
        boundary: Boundary::Clamp,
        alpha: Some(0.2),
        rows: 192,
        cols: 192,
        sweeps: 4,
        checkpoint_every: 0,
        resident: false,
        interior: false,
    }
    .referee();
    let lab = || {
        let tier = ClusterTier::launch_gpus(&Cluster::lab_cluster());
        (tier.runtime().clone(), Some(tier))
    };
    Fixture {
        name: "cluster_recover 128² x16, lab".into(),
        runtime: &lab,
        src: HEAT,
        halo: 1,
        boundary: Boundary::Constant(0.0),
        alpha: Some(0.2),
        rows: 128,
        cols: 128,
        sweeps: 16,
        checkpoint_every: 2,
        resident: true,
        interior: false,
    }
    .referee();
}

#[test]
fn the_chosen_depth_is_within_5_percent_of_the_best_on_the_halo_width_rows() {
    for halo in [1, 2, 4] {
        let name = format!("vertical_box halo {halo}");
        referee_bench_rows(&name, &vertical_box(halo), halo, None);
    }
}

#[test]
fn the_chosen_depth_is_within_5_percent_of_the_best_on_the_example_rows() {
    referee_bench_rows("gaussian_blur", GAUSSIAN_BLUR, 1, None);
    referee_bench_rows("heat_diffusion", HEAT, 1, Some(0.2));
}

/// The other side of the choice: many sweeps of a 9-row stencil, where a
/// block as deep as the run recomputes more rows than its exchanges cost —
/// the scaling table's long row on 2 devices, smaller parts on 4, and a wide
/// matrix whose ghost rows are a sixteenth of a part each.
#[test]
fn a_shallower_depth_is_chosen_where_the_redundant_rows_outgrow_the_exchanges() {
    let src = vertical_box(4);
    for (devices, rows, cols, sweeps) in [(2, 512, 512, 40), (4, 256, 1024, 24), (2, 128, 2048, 24)]
    {
        Fixture {
            name: format!("vertical_box halo 4 {rows}x{cols} x{sweeps}, {devices} dev"),
            runtime: &gpus(devices),
            src: &src,
            halo: 4,
            boundary: Boundary::Clamp,
            alpha: None,
            rows,
            cols,
            sweeps,
            checkpoint_every: 0,
            resident: true,
            interior: true,
        }
        .referee();
    }
}

/// The steps `d − 1 → d` devices known to take longer, as `(workload, halo,
/// d, virtual ms on d)`: all three are host-bound (the host's enqueues outlast
/// the busiest device), so only cheaper host submissions remove them — a
/// sweep's refresh and kernel recorded once and replayed as one command
/// buffer. Any other slower step, or one of these above its listed time,
/// fails the scaling test below.
const KNOWN_SLOWER_STEPS: [(&str, usize, usize, f64); 3] = [
    ("stencil_iter", 1, 3, 0.177),
    ("stencil_iter", 1, 4, 0.198),
    ("vertical_box", 1, 4, 0.465),
];

/// Every row on 1–4 devices at the depth the driver chooses: the 512² halo
/// and example rows, a 40-sweep run of the widest stencil, and the repo
/// benchmark's `stencil_iter` shape. Unlike the referee's runs, a resident
/// row does not join its warm-up before the clock starts: that is how the
/// listed times were measured.
#[test]
fn no_stencil_is_slower_on_more_devices_but_the_known_host_bound_steps() {
    let [box1, box2, box4] = [1, 2, 4].map(vertical_box);
    // (workload, source, halo, alpha, image side, sweeps, resident)
    let rows = [
        ("vertical_box", box1.as_str(), 1, None, 512, 10, true),
        ("vertical_box", &box2, 2, None, 512, 10, true),
        ("vertical_box", &box4, 4, None, 512, 10, true),
        ("vertical_box_long", &box4, 4, None, 512, 40, true),
        ("gaussian_blur", GAUSSIAN_BLUR, 1, None, 512, 10, true),
        ("stencil_iter", HEAT, 1, Some(0.2), 192, 4, false),
        ("heat_diffusion", HEAT, 1, Some(0.2), 512, 10, true),
    ];
    let mut slower = Vec::new();
    for (workload, src, halo, alpha, side, sweeps, resident) in rows {
        let mut fewer: Option<f64> = None;
        for devices in 1..=4 {
            let (ns, depth, _) = Fixture {
                name: workload.into(),
                runtime: &gpus(devices),
                src,
                halo,
                boundary: Boundary::Clamp,
                alpha,
                rows: side,
                cols: side,
                sweeps,
                checkpoint_every: 0,
                resident,
                interior: false,
            }
            .run(None, !resident);
            let ms = ns as f64 / 1e6;
            let line = format!(
                "{workload:<17} {side}² x{sweeps:<2} halo {halo} {devices} devices  depth {depth:<2} virtual {ms:.3} ms"
            );
            let known = KNOWN_SLOWER_STEPS
                .iter()
                .find(|&&(w, h, d, _)| (w, h, d) == (workload, halo, devices));
            match fewer {
                Some(before) if ms > before => match known {
                    // Listed to the printed precision.
                    Some(&(.., listed)) if ms < listed + 0.0005 => {
                        println!("{line}  known: slower than {before:.3} ms, listed at {listed:.3}")
                    }
                    _ => slower.push(format!("{line}, {before:.3} ms on {}", devices - 1)),
                },
                _ => println!("{line}"),
            }
            fewer = Some(ms);
        }
    }
    assert!(
        slower.is_empty(),
        "slower on more devices:\n{}",
        slower.join("\n")
    );
}
