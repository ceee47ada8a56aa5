//! The order in which a redistribution folds the replicas of a
//! copy-distributed vector, pinned against a host reference: Copy → Block
//! under a user combine function is `((r0 ⊕ r1) ⊕ r2) ⊕ r3` per element, in
//! device order, on 1–4 devices. The combines here are deliberately not
//! commutative (a left projection) or not associative in `f32` (an addition
//! that cancels), so only that order reproduces the result bit for bit —
//! the order a reduce-scatter that folds the replicas on the devices, not on
//! the host, must keep.
//! Twin of `reduce_order.rs`.

use std::sync::Arc;

use skelcl::prelude::*;

type CombineFn = fn(&mut [f32], &[f32]);

/// `a ⊕ b = a`: the fold of any sequence is its first member.
fn keep_left(_acc: &mut [f32], _other: &[f32]) {}

/// `a ⊕ b = b`: the fold of any sequence is its last member.
fn keep_right(acc: &mut [f32], other: &[f32]) {
    acc.copy_from_slice(other);
}

/// Plain `f32` addition, which the replicas below make order-sensitive.
fn add(acc: &mut [f32], other: &[f32]) {
    for (a, b) in acc.iter_mut().zip(other) {
        *a += *b;
    }
}

/// Device `d`'s replica. Across the devices element `i` reads
/// `big, small, -big, small'`: in device order the first small term is
/// absorbed by `big` before `-big` cancels it; in most other orders it is
/// not.
fn replica(device: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let big = 1.0e8 + (i % 7) as f32 * 1.0e7;
            let small = 1.0 + (i % 5) as f32 * 0.25;
            match device {
                0 => big,
                1 => small,
                2 => -big,
                _ => small + 0.5,
            }
        })
        .collect()
}

/// Replicate a vector over `devices` devices, let every device hold its own
/// [`replica`], and switch to block under `combine`.
fn combined(devices: usize, len: usize, combine: CombineFn) -> Vector<f32> {
    let rt = skelcl::init_gpus(devices);
    let v = Vector::from_vec(&rt, vec![0.0f32; len]);
    v.set_copy_distribution_with(Combine::Func(Arc::new(combine)))
        .unwrap();
    v.copy_data_to_devices().unwrap();
    for d in 0..devices {
        let buffer = v.buffer_of(d).unwrap();
        rt.queue(d)
            .enqueue_write_buffer(&buffer, &replica(d, len))
            .unwrap();
    }
    v.mark_device_modified();
    v.set_distribution(Distribution::Block).unwrap();
    v
}

/// The documented order: a left fold over the replicas `order` names.
fn reference(order: &[usize], len: usize, combine: CombineFn) -> Vec<u32> {
    let mut acc = replica(order[0], len);
    for &d in &order[1..] {
        combine(&mut acc, &replica(d, len));
    }
    acc.iter().map(|x| x.to_bits()).collect()
}

fn bits(v: &Vector<f32>) -> Vec<u32> {
    v.to_vec().unwrap().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn copy_to_block_folds_the_replicas_in_device_order() {
    let combines: [(&str, CombineFn); 3] = [
        ("keep left", keep_left),
        ("keep right", keep_right),
        ("cancelling add", add),
    ];
    for devices in 1..=4 {
        let in_order: Vec<usize> = (0..devices).collect();
        for len in [1usize, 7, 64, 1000] {
            for (name, combine) in combines {
                let what = format!("{name}, {devices} device(s), n={len}");
                let v = combined(devices, len, combine);
                assert_eq!(v.distribution(), Distribution::Block, "{what}");
                assert_eq!(bits(&v), reference(&in_order, len, combine), "{what}");
                // What the devices are handed under the new layout is the
                // folded vector too, not one replica's block.
                let id = Map::<f32, f32>::from_source("float func(float x) { return x; }");
                let through_devices = v.map(&id).unwrap();
                assert_eq!(
                    bits(&through_devices),
                    reference(&in_order, len, combine),
                    "{what}"
                );
            }
        }
    }
}

/// The references above tell orders apart: with these replicas every other
/// association or permutation the test could silently accept gives other
/// bits.
#[test]
fn the_replicas_make_every_other_order_visible() {
    let len = 64;
    let in_order = reference(&[0, 1, 2, 3], len, add);
    for other in [[3, 2, 1, 0], [1, 0, 3, 2], [0, 2, 1, 3], [1, 3, 0, 2]] {
        assert_ne!(reference(&other, len, add), in_order, "{other:?}");
    }
    // Pairwise (tree) association: (r0 + r1) + (r2 + r3).
    let mut left = replica(0, len);
    add(&mut left, &replica(1, len));
    let mut right = replica(2, len);
    add(&mut right, &replica(3, len));
    add(&mut left, &right);
    let tree: Vec<u32> = left.iter().map(|x| x.to_bits()).collect();
    assert_ne!(tree, in_order);
    assert_ne!(
        reference(&[0, 1, 2, 3], len, keep_left),
        reference(&[1, 0, 2, 3], len, keep_left)
    );
    assert_ne!(
        reference(&[0, 1, 2, 3], len, keep_right),
        reference(&[0, 1, 3, 2], len, keep_right)
    );
}
