//! The seeded request mix of `serve_open`: Poisson arrivals of sim
//! request lines, a pure function of (seed, rate, count).
//!
//! About [`REPEAT_SHARE`] of the requests repeat a shape from a fixed
//! popular set of [`POPULAR`] shapes, drawn Zipf; the rest are novel
//! shapes, each with a fresh top-level `rtos_cycles`, so they miss the
//! session pool and the trace cache and charge live. Mappings are
//! uniform over the 243 mappings and `nframes` over [`FRAMES`].
//!
//! Platform parameters are written as top-level keys: the protocol
//! ignores unknown keys, so a nested `"platform"` object would silently
//! turn every novel request into a repeat.

use scperf_dse::{all_mappings, Target};

/// Shapes in the popular set the repeats are drawn from.
pub const POPULAR: usize = 32;
/// Share of requests that repeat a popular shape.
pub const REPEAT_SHARE: f64 = 0.8;
/// Zipf exponent over the popular set's ranks.
const ZIPF_S: f64 = 1.0;
/// Frame counts a request may ask for.
pub const FRAMES: [usize; 3] = [2, 4, 8];

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// When it is due, in nanoseconds after the stream starts.
    pub due_ns: u64,
    pub id: String,
    pub line: String,
    /// Whether it repeats a popular shape.
    pub repeat: bool,
}

/// splitmix64: a small, seedable, portable generator.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1_u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// A scenario shape: mapping index, frame count and, for novel shapes,
/// the RTOS overhead that makes them novel.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shape {
    mapping: usize,
    nframes: usize,
    rtos_cycles: Option<f64>,
}

/// Seed of the popular set, the same for every run.
const POPULAR_SEED: u64 = 0x5eed_f00d;

/// The popular set: [`POPULAR`] distinct default-platform shapes, the
/// same in every run. Most repeats land on the first few Zipf ranks, so
/// a set drawn from the run's seed would make the work per request, and
/// with it the measured latency, hang on the seed. The frame count
/// cycles with the rank.
fn popular() -> Vec<Shape> {
    let mut rng = Rng(POPULAR_SEED);
    let mut set: Vec<Shape> = Vec::with_capacity(POPULAR);
    while set.len() < POPULAR {
        let shape = Shape {
            mapping: rng.below(243),
            nframes: FRAMES[set.len() % FRAMES.len()],
            rtos_cycles: None,
        };
        if !set.contains(&shape) {
            set.push(shape);
        }
    }
    set
}

/// One line per popular shape, for warming a service before it is
/// measured.
pub fn warmup() -> Vec<Req> {
    let mappings = all_mappings();
    popular()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let id = format!("w{i}");
            Req {
                due_ns: 0,
                line: line(&id, &mappings[s.mapping], s),
                id,
                repeat: true,
            }
        })
        .collect()
}

/// `count` requests arriving as a Poisson process at `rate` per second.
pub fn stream(seed: u64, rate: f64, count: usize) -> Vec<Req> {
    assert!(rate > 0.0, "rate must be positive");
    let mappings = all_mappings();
    let popular = popular();
    let weights: Vec<f64> = (1..=POPULAR).map(|k| (k as f64).powf(-ZIPF_S)).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ rate.to_bits());
    let mut t = 0.0_f64;
    (0..count)
        .map(|i| {
            t += -(1.0 - rng.unit()).ln() / rate;
            let repeat = rng.unit() < REPEAT_SHARE;
            let shape = if repeat {
                let mut u = rng.unit() * total;
                let rank = weights
                    .iter()
                    .position(|w| {
                        u -= w;
                        u < 0.0
                    })
                    .unwrap_or(POPULAR - 1);
                popular[rank]
            } else {
                // 10 integer and 43 fraction bits: exact in an f64,
                // printed and parsed back bit for bit, and distinct with
                // overwhelming odds.
                let r = rng.next() >> 11;
                Shape {
                    mapping: rng.below(243),
                    nframes: FRAMES[rng.below(FRAMES.len())],
                    rtos_cycles: Some(50.0 + r as f64 / (1_u64 << 43) as f64),
                }
            };
            let id = format!("r{i}");
            Req {
                due_ns: (t * 1e9) as u64,
                line: line(&id, &mappings[shape.mapping], &shape),
                id,
                repeat,
            }
        })
        .collect()
}

fn line(id: &str, mapping: &[Target; 5], shape: &Shape) -> String {
    let targets: Vec<String> = mapping
        .iter()
        .map(|t| format!("\"{}\"", t.label()))
        .collect();
    let rtos = shape
        .rtos_cycles
        .map(|r| format!(",\"rtos_cycles\":{r:?}"))
        .unwrap_or_default();
    format!(
        "{{\"id\":\"{id}\",\"mapping\":[{}],\"nframes\":{}{rtos}}}",
        targets.join(","),
        shape.nframes
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scperf_core::{InstanceLimits, SessionPool};
    use scperf_dse::SegmentCostCache;
    use scperf_serve::{engine, json, PlatformParams, Request};

    fn scenario(line: &str) -> scperf_serve::Scenario {
        let v = json::parse(line).expect("generated lines are JSON");
        match Request::from_json(&v).expect("generated lines are valid") {
            Request::Sim { scenario, .. } => scenario,
            other => panic!("expected a sim request, got {other:?}"),
        }
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_other_stream() {
        let a = stream(7, 300.0, 500);
        assert_eq!(a, stream(7, 300.0, 500));
        let b = stream(8, 300.0, 500);
        assert_ne!(
            a.iter().map(|r| &r.line).collect::<Vec<_>>(),
            b.iter().map(|r| &r.line).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(|r| r.due_ns).collect::<Vec<_>>(),
            b.iter().map(|r| r.due_ns).collect::<Vec<_>>()
        );
        assert_eq!(warmup(), warmup());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    }

    #[test]
    fn arrivals_and_repeat_share_follow_the_configuration() {
        let s = stream(3, 400.0, 4000);
        let repeats = s.iter().filter(|r| r.repeat).count() as f64 / s.len() as f64;
        assert!(
            (repeats - REPEAT_SHARE).abs() < 0.03,
            "repeat share {repeats}"
        );
        let rate = s.len() as f64 / (s.last().expect("non-empty").due_ns as f64 / 1e9);
        assert!((rate / 400.0 - 1.0).abs() < 0.06, "offered rate {rate}");
    }

    #[test]
    fn platform_params_are_top_level_keys() {
        let s = stream(5, 100.0, 400);
        let default = PlatformParams::default();
        for r in &s {
            assert!(!r.line.contains("platform"), "{}", r.line);
            let sc = scenario(&r.line);
            assert_eq!(sc.params.clock_ns, default.clock_ns);
            assert_eq!(sc.params.hw_k, default.hw_k);
            if r.repeat {
                assert_eq!(sc.params.rtos_cycles, default.rtos_cycles, "{}", r.line);
            } else {
                assert_ne!(sc.params.rtos_cycles, default.rtos_cycles, "{}", r.line);
                assert!(r.line.contains("\"rtos_cycles\":"), "{}", r.line);
            }
        }
    }

    /// Once the popular set is warm, a repeat is a pool hit and a novel
    /// shape a miss, so the measured hit ratio is the stream's repeat
    /// share.
    #[test]
    fn pool_hit_ratio_tracks_the_repeat_share() {
        let pool = SessionPool::new(
            InstanceLimits {
                max_sessions: 2,
                ..InstanceLimits::default()
            },
            engine::pool_factory(0),
        );
        let cache = SegmentCostCache::new();
        let exec = |line: &str| {
            engine::execute_pooled(&scenario(line), &pool, Some(&cache), None, 0)
                .expect("request simulates");
        };
        for r in warmup() {
            exec(&r.line);
        }
        let before = pool.stats();
        let s = stream(11, 200.0, 60);
        for r in &s {
            exec(&r.line);
        }
        let after = pool.stats();
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        let repeats = s.iter().filter(|r| r.repeat).count() as u64;
        assert_eq!(hits, repeats);
        assert_eq!(misses, s.len() as u64 - repeats);
    }
}
