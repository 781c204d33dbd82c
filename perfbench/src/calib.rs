//! Machine-speed calibration.
//!
//! The program's work is pinned (the fingerprint check proves it), but
//! the speed of a shared machine drifts by 10–40% between runs. Three
//! fixed kernels of ordinary integer code are timed between ops, each
//! after an untimed warm pass so that they measure the machine rather
//! than what the previous op left in the cache: sorting 32 Ki keys,
//! building and probing a hash map, and four independent branchy
//! xorshift chains. A sample is the geometric mean of the three times.
//! Times are divided by the median of a run's samples: single samples are
//! too noisy to scale single ops, but the run's median follows the slow
//! drift and removes most of it. The kernels live only in this file so
//! that a change to the program cannot change them.
//!
//! Why these kernels: the compiler's time is mostly SAT search, branchy
//! code with a working set that fits in L2. Their run medians tracked its
//! drift (correlation 0.88–0.98 with the per-program geomean over runs)
//! where a dependent random walk over a 4 MiB table, which measures
//! memory latency, caught only a third of a 40% swing (see `NOTES.md`).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Keys sorted and hashed per sample (256 KiB, inside a core's L2).
const KEYS: usize = 1 << 15;
/// Keys inserted into the hash map per sample; every key is then probed.
const MAP_KEYS: usize = 1 << 13;
/// Rounds of the four xorshift chains per sample.
const CHAIN_ROUNDS: usize = 1 << 18;
/// The calibration time of the reference machine. A calibrated time is
/// the op's time on a machine whose calibration sample takes this long.
pub const REFERENCE_MS: f64 = 1.1;

type Map = HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>;

/// The calibration kernels and their buffers, allocated once at set-up.
pub struct Calibrator {
    keys: Vec<u64>,
    scratch: Vec<u64>,
    map: Map,
    samples: Vec<f64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let keys: Vec<u64> = (0..KEYS).map(|_| xorshift(&mut x)).collect();
        Calibrator {
            scratch: keys.clone(),
            keys,
            map: Map::with_capacity_and_hasher(MAP_KEYS, Default::default()),
            samples: Vec::new(),
        }
    }

    /// Time one pass of the kernels, in milliseconds, and keep the
    /// sample.
    pub fn sample(&mut self) -> f64 {
        let kernels: [fn(&mut Calibrator); 3] = [Self::sort, Self::hash, Self::chains];
        let mut log_sum = 0.0;
        for kernel in kernels {
            kernel(self);
            let t0 = Instant::now();
            kernel(self);
            log_sum += (t0.elapsed().as_secs_f64() * 1e3).ln();
        }
        let ms = (log_sum / kernels.len() as f64).exp();
        self.samples.push(ms);
        ms
    }

    fn sort(&mut self) {
        self.scratch.copy_from_slice(&self.keys);
        self.scratch.sort_unstable();
        std::hint::black_box(&self.scratch);
    }

    fn hash(&mut self) {
        self.map.clear();
        for (i, k) in self.keys[..MAP_KEYS].iter().enumerate() {
            self.map.insert(k >> 3, i as u32);
        }
        let mut hits = 0u64;
        for k in &self.keys {
            if let Some(&i) = self.map.get(&(k >> 3)) {
                hits += u64::from(i);
            }
        }
        std::hint::black_box(hits);
    }

    fn chains(&mut self) {
        let mut x = [1u64, 2, 3, 4].map(|s| s.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut acc = 0u64;
        for _ in 0..CHAIN_ROUNDS {
            for c in x.iter_mut() {
                let v = xorshift(c);
                if v & 1 == 0 {
                    acc = acc.wrapping_add(v >> 3);
                } else {
                    acc ^= v.rotate_left(11);
                }
            }
        }
        std::hint::black_box(acc);
    }

    /// Every sample taken so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Scale a raw time by a run's calibration median to reference-machine
/// time.
pub fn calibrated(raw_ms: f64, calib_ms: f64) -> f64 {
    raw_ms * REFERENCE_MS / calib_ms
}
