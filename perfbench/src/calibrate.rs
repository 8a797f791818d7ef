//! Host-speed calibration.
//!
//! The benchmark's host is a shared virtual machine whose speed moves by
//! up to 1.8× with its neighbours' load (see README.md, "Noise"). This
//! kernel is a fixed amount of graph work — breadth-first searches over a
//! fixed synthetic graph, with a bitset of visited nodes — owned by the
//! benchmark and sharing no code with the program, so no change to the
//! program moves it. Timed around every rep, it tells how fast the host
//! was running at that moment; the end-to-end times are reported scaled
//! to `REFERENCE_S`, the kernel's time on an idle host of the kind the
//! benchmark was tuned on.

use std::sync::OnceLock;
use std::time::Instant;

/// The kernel's seconds on the reference host: reported times are scaled
/// as if every rep had run at that speed.
pub const REFERENCE_S: f64 = 0.012;

const NODES: usize = 50_000;
const DEGREE: usize = 4;
const ROOTS: u32 = 12;

/// Compressed adjacency of the fixed graph: offsets, then targets.
fn graph() -> &'static (Vec<u32>, Vec<u32>) {
    static GRAPH: OnceLock<(Vec<u32>, Vec<u32>)> = OnceLock::new();
    GRAPH.get_or_init(|| {
        let mut x: u64 = 12_345;
        let mut offsets = Vec::with_capacity(NODES + 1);
        let mut targets = Vec::with_capacity(NODES * DEGREE);
        for v in 0..NODES {
            offsets.push((v * DEGREE) as u32);
            for _ in 0..DEGREE {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                targets.push((x % NODES as u64) as u32);
            }
        }
        offsets.push((NODES * DEGREE) as u32);
        (offsets, targets)
    })
}

/// Runs the kernel once and returns its wall time in seconds.
pub fn kernel_seconds() -> f64 {
    let (offsets, targets) = graph();
    let started = Instant::now();
    let mut seen = vec![0u64; NODES.div_ceil(64)];
    let mut queue = Vec::with_capacity(NODES);
    let mut reached = 0usize;
    for root in 0..ROOTS {
        seen.fill(0);
        queue.clear();
        queue.push(root);
        seen[root as usize / 64] |= 1 << (root % 64);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &t in &targets[offsets[v as usize] as usize..offsets[v as usize + 1] as usize] {
                let (word, bit) = (t as usize / 64, t % 64);
                if seen[word] & (1 << bit) == 0 {
                    seen[word] |= 1 << bit;
                    queue.push(t);
                }
            }
        }
        reached += queue.len();
    }
    std::hint::black_box(reached);
    started.elapsed().as_secs_f64()
}
