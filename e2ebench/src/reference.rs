//! The machine-speed reference: a fixed kernel built from the standard
//! library alone (allocation, string formatting, `BTreeMap` inserts and
//! lookups, sorting). It calls no repository code, so no change to the
//! program can make it faster or slower; only the machine can. Passes of
//! it interleaved with the workload give the factor that converts raw wall
//! time into time at nominal machine speed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Mean kernel time on the machine the nominal figures are quoted for
/// (a 2-vCPU x86-64 cloud VM), in nanoseconds. A run whose kernel takes
/// twice as long has its timings halved, so results read as "µs at
/// nominal machine speed".
pub const NOMINAL_KERNEL_NS: f64 = 1_000_000.0;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One pass of the fixed kernel. Returns a checksum so the work cannot be
/// optimised away.
pub fn kernel() -> u64 {
    let mut x = black_box(0x5EED_u64);
    let mut map: BTreeMap<u64, String> = BTreeMap::new();
    for _ in 0..1_200 {
        let k = splitmix(&mut x) % 50_000;
        map.insert(k, format!("node-{k:x}-{}", k % 97));
    }
    let mut hits = 0u64;
    for _ in 0..1_200 {
        let k = splitmix(&mut x) % 50_000;
        if let Some(v) = map.get(&k) {
            hits += v.len() as u64;
        }
    }
    let mut names: Vec<String> = map.values().cloned().collect();
    names.sort_unstable_by(|a, b| b.cmp(a));
    let mut nums: Vec<u64> = (0..4_000).map(|_| splitmix(&mut x)).collect();
    nums.sort_unstable();
    let tree: Vec<Box<[u64; 4]>> = nums.iter().take(1_000).map(|&n| Box::new([n; 4])).collect();
    let folded = tree.iter().fold(0u64, |acc, b| acc ^ b[3]);
    black_box(hits ^ folded ^ names.len() as u64 ^ nums[nums.len() / 2])
}

/// Times one kernel pass, ns.
pub fn sample() -> u64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_nanos() as u64
}

/// Factor converting wall time into nominal time, from the kernel passes
/// interleaved with that wall time: nominal ÷ their mean (above 1 when
/// this machine ran faster than nominal).
pub fn factor(samples: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = samples.fold((0u32, 0.0), |(n, s), x| (n + 1, s + x));
    if n == 0 {
        1.0
    } else {
        NOMINAL_KERNEL_NS * f64::from(n) / sum
    }
}
