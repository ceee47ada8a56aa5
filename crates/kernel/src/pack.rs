//! Packing many small jobs into one NDRange launch.
//!
//! The serving layer coalesces same-kernel jobs from many tenants into a
//! single launch: each job's elements are laid out back to back in one
//! buffer per kernel argument, the kernel runs once over the combined
//! element count, and each job's result is sliced back out of the packed
//! output by its element span. [`JobSpans`] is the bookkeeping for that
//! layout: it records where each job starts in the packed range and how
//! many elements it owns.
//!
//! The payoff is the same one the native tier gets from
//! [`crate::native::BATCH_LANES`]-wide execution: launching one kernel over
//! `total` elements fills whole lanes, while launching each small job on
//! its own pays per-launch overhead and leaves lanes idle.
//! [`JobSpans::batches_packed`] / [`JobSpans::batches_separate`] quantify
//! exactly that difference in units of lane batches.

use crate::native::BATCH_LANES;

/// Element layout of jobs packed back to back into one NDRange.
///
/// Built by pushing each job's element count in submission order; the span
/// of job `i` is `[offset(i), offset(i) + len(i))` within the packed range.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobSpans {
    offsets: Vec<usize>,
    lens: Vec<usize>,
    total: usize,
}

impl JobSpans {
    /// An empty layout.
    pub fn new() -> Self {
        JobSpans::default()
    }

    /// Build a layout from per-job element counts, in submission order.
    pub fn from_lens(lens: impl IntoIterator<Item = usize>) -> Self {
        let mut spans = JobSpans::new();
        for len in lens {
            spans.push(len);
        }
        spans
    }

    /// Append a job of `len` elements; returns its element offset within
    /// the packed range.
    pub fn push(&mut self, len: usize) -> usize {
        let offset = self.total;
        self.offsets.push(offset);
        self.lens.push(len);
        self.total += len;
        offset
    }

    /// Number of jobs in the layout.
    pub fn jobs(&self) -> usize {
        self.lens.len()
    }

    /// Whether the layout holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Total packed element count — the NDRange global size of the one
    /// coalesced launch.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The element span `(offset, len)` of job `index`.
    pub fn span(&self, index: usize) -> (usize, usize) {
        (self.offsets[index], self.lens[index])
    }

    /// Slice job `index`'s elements out of the packed output.
    pub fn slice<'a, T>(&self, index: usize, packed: &'a [T]) -> &'a [T] {
        let (offset, len) = self.span(index);
        &packed[offset..offset + len]
    }

    /// Split the packed output into one owned `Vec` per job, in job order.
    /// Consumes the packed buffer; panics if its length is not
    /// [`JobSpans::total`].
    pub fn unpack<T: Clone>(&self, packed: Vec<T>) -> Vec<Vec<T>> {
        assert_eq!(
            packed.len(),
            self.total,
            "packed output length must equal the layout total"
        );
        (0..self.jobs())
            .map(|i| self.slice(i, &packed).to_vec())
            .collect()
    }

    /// Lane batches needed to execute the jobs as ONE packed launch:
    /// `ceil(total / BATCH_LANES)`.
    pub fn batches_packed(&self) -> usize {
        self.total.div_ceil(BATCH_LANES)
    }

    /// Lane batches needed to execute each job as its OWN launch:
    /// `sum(ceil(len_i / BATCH_LANES))`. Each separate launch rounds its
    /// tail batch up on its own, so this is never smaller than
    /// [`JobSpans::batches_packed`].
    pub fn batches_separate(&self) -> usize {
        self.lens.iter().map(|&len| len.div_ceil(BATCH_LANES)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_contiguous_and_in_order() {
        let spans = JobSpans::from_lens([3, 5, 2]);
        assert_eq!(spans.jobs(), 3);
        assert_eq!(spans.total(), 10);
        assert_eq!(spans.span(0), (0, 3));
        assert_eq!(spans.span(1), (3, 5));
        assert_eq!(spans.span(2), (8, 2));
    }

    #[test]
    fn slicing_recovers_each_jobs_elements() {
        let spans = JobSpans::from_lens([2, 3]);
        let packed = vec![10, 11, 20, 21, 22];
        assert_eq!(spans.slice(0, &packed), &[10, 11]);
        assert_eq!(spans.slice(1, &packed), &[20, 21, 22]);
        assert_eq!(spans.unpack(packed), vec![vec![10, 11], vec![20, 21, 22]]);
    }

    #[test]
    fn packed_launch_needs_no_more_batches_than_separate_ones() {
        // 64 one-element jobs: packed they fill exactly one lane batch,
        // separate each pays a whole batch of its own.
        let spans = JobSpans::from_lens(vec![1; BATCH_LANES]);
        assert_eq!(spans.batches_packed(), 1);
        assert_eq!(spans.batches_separate(), BATCH_LANES);

        // Mixed sizes: packed rounds up once, separate rounds up per job.
        let spans = JobSpans::from_lens([BATCH_LANES / 2, BATCH_LANES / 2, 1]);
        assert_eq!(spans.batches_packed(), 2);
        assert_eq!(spans.batches_separate(), 3);
    }

    #[test]
    fn empty_layout_is_well_formed() {
        let spans = JobSpans::new();
        assert!(spans.is_empty());
        assert_eq!(spans.total(), 0);
        assert_eq!(spans.batches_packed(), 0);
        assert_eq!(spans.batches_separate(), 0);
        assert_eq!(spans.unpack(Vec::<i32>::new()), Vec::<Vec<i32>>::new());
    }

    #[test]
    fn push_returns_the_jobs_offset() {
        let mut spans = JobSpans::new();
        assert_eq!(spans.push(4), 0);
        assert_eq!(spans.push(2), 4);
        assert_eq!(spans.push(7), 6);
    }
}
