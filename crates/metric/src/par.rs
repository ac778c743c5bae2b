//! Scoped-thread fork-join, the one thread pattern behind the
//! workspace's data-parallel scans and its query-serving workers.
//!
//! [`fork_join`] runs one scoped worker per item and returns the results
//! in item order.  A data-parallel scan splits its input into at most
//! `threads` contiguous chunks of near-equal size ([`worker_chunks`])
//! and combines the per-chunk results in chunk order, so the combined
//! result never depends on the thread count.  Batch query serving
//! (`dp_index::serve`) starts its workers through [`fork_join`] too;
//! there each worker claims queries from a shared cursor instead of
//! owning a fixed chunk.

/// Length of each contiguous chunk when `n` items split across at most
/// `threads` workers; 0 for an empty input.
///
/// `threads = 0` counts as one worker and `threads > n` as `n` workers,
/// so every chunk of the split is non-empty.
pub fn chunk_len(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.clamp(1, n.max(1)))
}

/// The contiguous chunks `threads` workers scan `items` in, an item
/// being `row_len` consecutive values (1 for a slice of points, the
/// dimension for flat row-major vectors): the whole input as one
/// chunk, scanned inline, at `threads ≤ 1` or below 1024 items, and
/// [`chunk_len`] items a chunk otherwise.
///
/// Every permutation scan splits its work by this one rule: the
/// per-point and flat counters and the flat index build.
pub fn worker_chunks<T>(items: &[T], row_len: usize, threads: usize) -> Vec<&[T]> {
    let row_len = row_len.max(1);
    let n = items.len() / row_len;
    if threads <= 1 || n < 1024 {
        return vec![items];
    }
    items.chunks(chunk_len(n, threads) * row_len).collect()
}

/// Runs `work` once per item, one scoped worker thread per item, and
/// returns the results in item order.
///
/// Zero or one item runs inline on the calling thread without spawning.
/// A worker panic is re-raised on the caller with the worker's own
/// payload, so the caller sees the original panic message.
pub fn fork_join<T, R, F>(items: impl IntoIterator<Item = T>, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let items: Vec<T> = items.into_iter().collect();
    if items.len() <= 1 {
        return items.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            items.into_iter().map(|item| scope.spawn(move || work(item))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splits `input` across `workers` with [`chunk_len`], doubles each
    /// chunk on its own worker and concatenates the per-chunk results.
    fn doubled(input: &[u64], workers: usize) -> Vec<u64> {
        let chunk = chunk_len(input.len(), workers).max(1);
        fork_join(input.chunks(chunk), |part| part.iter().map(|x| 2 * x).collect::<Vec<_>>())
            .concat()
    }

    #[test]
    fn any_worker_count_matches_one_worker() {
        let input: Vec<u64> = (0..37).collect();
        let one = doubled(&input, 1);
        assert_eq!(one, input.iter().map(|x| 2 * x).collect::<Vec<_>>());
        for workers in [0, 1, 4, input.len(), input.len() + 1] {
            assert_eq!(doubled(&input, workers), one, "workers = {workers}");
        }
    }

    #[test]
    fn empty_input_returns_no_results() {
        for workers in [0, 1, 2] {
            assert!(doubled(&[], workers).is_empty(), "workers = {workers}");
        }
        assert!(fork_join(Vec::<u8>::new(), |x| x).is_empty());
    }

    #[test]
    fn chunk_len_never_produces_empty_chunks() {
        for n in [0usize, 1, 2, 5, 64] {
            for threads in [0usize, 1, 2, n, n + 1, 1000] {
                let chunk = chunk_len(n, threads);
                if n == 0 {
                    assert_eq!(chunk, 0);
                    continue;
                }
                assert!(chunk >= 1, "n={n} threads={threads}");
                // At most `threads.max(1)` chunks, each non-empty.
                let chunks = n.div_ceil(chunk);
                assert!(chunks <= threads.max(1).min(n));
                assert!(chunk * chunks >= n);
            }
        }
    }

    #[test]
    fn worker_chunks_split_only_from_1024_items_and_keep_every_item() {
        for row_len in [1usize, 3] {
            for n in [0usize, 5, 1023, 1024, 1031] {
                let items: Vec<usize> = (0..n * row_len).collect();
                for threads in [0usize, 1, 2, 5, n + 1] {
                    let chunks = worker_chunks(&items, row_len, threads);
                    let tag = format!("n = {n}, row_len = {row_len}, threads = {threads}");
                    let workers = if threads <= 1 || n < 1024 { 1 } else { threads.min(n) };
                    assert_eq!(chunks.len(), workers, "{tag}");
                    assert!(chunks.iter().all(|c| c.len() % row_len == 0), "{tag}");
                    assert!(n == 0 || chunks.iter().all(|c| !c.is_empty()), "{tag}");
                    assert_eq!(chunks.concat(), items, "{tag}");
                }
            }
        }
    }

    #[test]
    fn worker_panic_keeps_its_message() {
        let caught = std::panic::catch_unwind(|| {
            fork_join([1u32, 2, 3], |x| {
                assert!(x != 2, "item {x} rejected");
                x
            })
        })
        .expect_err("worker 2 panics");
        let message = caught.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("item 2 rejected"));
    }
}
