//! The reduce skeleton's canonical association order, pinned against a host
//! reference: per device a left fold inside each chunk, then one left fold
//! over all partials in device-then-chunk order — on 1–4 devices, every
//! distribution, vectors and matrices, default geometry and `.chunks(k)`.
//! The operators here are deliberately *not* associative in `f32`, so only
//! the documented order reproduces the device result bit for bit.

use skelcl::prelude::*;
use skelcl::{reduce_partials, StaticScheduler};

/// `a ⊕ b = a + 0.75·b`: every re-association changes the bits.
const SKEWED: &str = "float func(float a, float b) { return a + b * 0.75f; }";

fn skewed(a: f32, b: f32) -> f32 {
    a + b * 0.75
}

fn data(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 37 + 11) % 101) as f32 * 0.37 - 18.0)
        .collect()
}

/// The documented order over parts of the given sizes. `chunks` is what
/// `.chunks(k)` asked for (`None`: the default geometry).
fn reference(
    data: &[f32],
    part_sizes: &[usize],
    chunks: Option<usize>,
    op: fn(f32, f32) -> f32,
) -> (f32, usize) {
    let mut partials = Vec::new();
    let mut offset = 0;
    for &n in part_sizes.iter().filter(|&&n| n > 0) {
        let part = &data[offset..offset + n];
        offset += n;
        let requested = chunks.map_or_else(|| reduce_partials(n), |k| k.min(n));
        for chunk in part.chunks(n.div_ceil(requested)) {
            partials.push(chunk[1..].iter().fold(chunk[0], |acc, x| op(acc, *x)));
        }
    }
    assert_eq!(offset, data.len(), "the parts cover the input");
    let value = partials[1..].iter().fold(partials[0], |acc, x| op(acc, *x));
    (value, partials.len())
}

fn distributions(devices: usize) -> Vec<Distribution> {
    let weights: Vec<f64> = (0..devices).map(|d| 1.0 + d as f64).collect();
    vec![
        Distribution::Block,
        Distribution::block_weighted(&weights),
        Distribution::Single(devices - 1),
        Distribution::Copy,
    ]
}

#[test]
fn vector_reduce_folds_in_the_documented_order() {
    let source = Reduce::<f32>::from_source(SKEWED);
    let closure = Reduce::<f32>::new(skewed);
    for devices in 1..=4 {
        for len in [1usize, 2, 255, 256, 257, 1000, 5000, 40_000] {
            let input = data(len);
            for dist in distributions(devices) {
                for chunks in [None, Some(1), Some(3), Some(64), Some(200)] {
                    let what = format!("{devices} device(s), n={len}, {dist:?}, chunks {chunks:?}");
                    for sum in [&source, &closure] {
                        let rt = skelcl::init_gpus(devices);
                        let v = Vector::from_vec(&rt, input.clone());
                        v.set_distribution(dist.clone()).unwrap();
                        let launch = sum.run(&v);
                        let launch = match chunks {
                            Some(k) => launch.chunks(k),
                            None => launch,
                        };
                        let (value, plan) = launch.scalar_with_plan().unwrap();
                        // Copy inputs were coerced to disjoint blocks.
                        let (expected, partials) = reference(&input, &v.sizes(), chunks, skewed);
                        assert_eq!(value.to_bits(), expected.to_bits(), "{what}");
                        assert_eq!(plan.intermediate_results, partials, "{what}");
                        assert!(plan.final_on_cpu, "{what}");
                    }
                }
            }
        }
    }
}

#[test]
fn matrix_reduce_folds_in_the_documented_order() {
    let sum = Reduce::<f32>::from_source(SKEWED);
    for devices in 1..=4 {
        for (rows, cols) in [(1usize, 1usize), (3, 5), (37, 29), (250, 160)] {
            let input = data(rows * cols);
            for dist in [Distribution::Block, Distribution::Copy] {
                let what = format!("{devices} device(s), {rows}x{cols}, {dist:?}");
                let rt = skelcl::init_gpus(devices);
                let m = Matrix::from_vec(&rt, rows, cols, input.clone()).unwrap();
                m.set_distribution(dist).unwrap();
                let (value, plan) = sum.run(&m).scalar_with_plan().unwrap();
                let (expected, partials) =
                    reference(&input, &Container::part_sizes(&m), None, skewed);
                assert_eq!(value.to_bits(), expected.to_bits(), "{what}");
                assert_eq!(plan.intermediate_results, partials, "{what}");
            }
        }
    }
}

/// A scheduler only moves the final fold; wherever it runs, it is the same
/// left fold over the same partials.
#[test]
fn scheduler_placed_final_fold_keeps_the_order() {
    let sum = Reduce::<f32>::from_source(SKEWED);
    for devices in 1..=4 {
        let input = data(30_000);
        let rt = skelcl::init_gpus(devices);
        let scheduler = StaticScheduler::analytical(&rt);
        let v = Vector::from_vec(&rt, input.clone());
        let (value, plan) = sum
            .run(&v)
            .scheduler(&scheduler)
            .chunks(8)
            .scalar_with_plan()
            .unwrap();
        // An all-GPU runtime has no CPU device to prefer.
        assert!(!plan.final_on_cpu);
        let (expected, partials) = reference(&input, &v.sizes(), Some(8), skewed);
        assert_eq!(value.to_bits(), expected.to_bits(), "{devices} device(s)");
        assert_eq!(plan.intermediate_results, partials);
    }
}

/// Associative, non-commutative operators are exact under the order: the
/// projections equal the sequential fold on every device count, with many
/// partials per device, fewer elements than one chunk, and one element.
#[test]
fn projections_equal_the_sequential_fold_on_every_device_count() {
    let first = Reduce::<f32>::from_source("float func(float a, float b) { return a; }");
    let last = Reduce::<f32>::from_source("float func(float a, float b) { return b; }");
    for devices in 1..=4 {
        for len in [1usize, 3, 200, 255, 70_000] {
            let input = data(len);
            let rt = skelcl::init_gpus(devices);
            let v = Vector::from_vec(&rt, input.clone());
            assert_eq!(v.reduce(&first).unwrap(), input[0], "{devices}, n={len}");
            assert_eq!(
                v.reduce(&last).unwrap(),
                input[len - 1],
                "{devices}, n={len}"
            );
        }
    }
}

#[test]
fn empty_inputs_are_rejected_before_any_launch() {
    let sum = Reduce::<f32>::from_source(SKEWED);
    for devices in 1..=4 {
        let rt = skelcl::init_gpus(devices);
        let v = Vector::from_vec(&rt, Vec::<f32>::new());
        assert!(matches!(v.reduce(&sum), Err(SkelError::EmptyInput)));
        assert!(matches!(
            sum.run(&v).chunks(4).scalar_with_plan(),
            Err(SkelError::EmptyInput)
        ));
        let events: usize = rt.drain_events().iter().map(Vec::len).sum();
        assert_eq!(events, 0, "nothing was enqueued");
    }
}
