//! Latency samples, percentiles, spans and the self-time arithmetic of
//! the per-layer peel.

use std::time::Instant;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Raw nanosecond samples, sorted once when the phase has ended.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sort(&mut self) {
        self.0.sort_unstable();
    }

    /// The `q`-quantile (nearest rank) of the sorted samples in
    /// microseconds, or `None` when fewer than [`MIN_SAMPLES_BEYOND`]
    /// samples lie beyond it.
    pub fn percentile_us(&self, q: f64) -> Option<f64> {
        debug_assert!(self.0.windows(2).all(|w| w[0] <= w[1]), "sort first");
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= MIN_SAMPLES_BEYOND).then(|| self.0[rank - 1] as f64 / 1e3)
    }

    /// The 99th percentile — or, below a thousand samples, the highest
    /// percentile that still has [`MIN_SAMPLES_BEYOND`] samples beyond it
    /// (the largest sample when there are fewer than twenty) — in
    /// microseconds, with the percentile it is. A window too short for
    /// the 99th reports a shallower tail, so tails compare only between
    /// windows whose percentiles agree.
    pub fn tail_us(&self) -> (f64, f64) {
        let n = self.0.len().max(1) as f64;
        let q = (1.0 - MIN_SAMPLES_BEYOND as f64 / n).clamp(0.5, 0.99);
        match self.percentile_us(q) {
            Some(us) => (us, q),
            None => (self.0.last().map_or(0.0, |&ns| ns as f64 / 1e3), 1.0),
        }
    }

    /// Median in microseconds; 0 for no samples.
    pub fn median_us(&self) -> f64 {
        match self.0.len() {
            0 => 0.0,
            n => self.0[(n - 1) / 2] as f64 / 1e3,
        }
    }

    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<u64>() as f64 / self.0.len() as f64 / 1e3
    }
}

/// Latencies of one counted window with the time each request completed
/// (nanoseconds after the warm-up ended), so the window can be cut into
/// slices.
///
/// A shared sandbox slows down for a second or so every few seconds
/// (a plain counting loop took 210 to 360 ms here, an fsync 180 to
/// 480 us). A statistic taken per slice and reported as the
/// median over the slices ignores those seconds as long as they stay in
/// the minority; a statistic over the whole window would carry them.
#[derive(Debug, Clone, Default)]
pub struct Series {
    done_at: Vec<u64>,
    latency: Vec<u64>,
}

impl Series {
    pub fn with_capacity(n: usize) -> Self {
        Series {
            done_at: Vec::with_capacity(n),
            latency: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, done_at_ns: u64, latency_ns: u64) {
        self.done_at.push(done_at_ns);
        self.latency.push(latency_ns);
    }

    pub fn extend(&mut self, other: &Series) {
        self.done_at.extend(&other.done_at);
        self.latency.extend(&other.latency);
    }

    pub fn len(&self) -> usize {
        self.latency.len()
    }

    /// All latencies, sorted.
    pub fn samples(&self) -> Samples {
        let mut all = Samples(self.latency.clone());
        all.sort();
        all
    }

    /// The window of `window_ns` cut into `k` slices of equal length, each
    /// holding the sorted latencies of the requests that completed in it.
    pub fn slices(&self, window_ns: u64, k: usize) -> Vec<Samples> {
        let mut slices = vec![Samples::default(); k];
        for (&at, &ns) in self.done_at.iter().zip(&self.latency) {
            if at < window_ns {
                slices[(at as u128 * k as u128 / window_ns as u128) as usize].push(ns);
            }
        }
        slices.iter_mut().for_each(Samples::sort);
        slices
    }
}

/// Slices per counted window: about four a second, at least four and at
/// most sixteen.
pub fn slice_count(window_s: f64) -> usize {
    ((window_s * 4.0).round() as usize).clamp(4, 16)
}

/// The median over the window's slices of `stat(slice)`; slices for
/// which `stat` has no value (too few samples) are left out.
pub fn median_over_slices(
    series: &Series,
    window_s: f64,
    stat: impl Fn(&Samples) -> Option<f64>,
) -> f64 {
    let k = slice_count(window_s);
    let mut values: Vec<f64> = series
        .slices((window_s * 1e9) as u64, k)
        .iter()
        .filter_map(stat)
        .collect();
    if values.is_empty() {
        return 0.0;
    }
    median_f64(&mut values)
}

/// Requests completed per second, as the median over the slices.
pub fn rate_per_s(series: &Series, window_s: f64, per_request: usize) -> f64 {
    let per_slice_s = window_s / slice_count(window_s) as f64;
    median_over_slices(series, window_s, |slice| {
        Some((slice.len() * per_request) as f64 / per_slice_s)
    })
}

/// Median latency in microseconds, as the median over the slices.
pub fn p50_us(series: &Series, window_s: f64) -> f64 {
    median_over_slices(series, window_s, |slice| {
        (slice.len() > 0).then(|| slice.median_us())
    })
}

/// Times `f` over each item and returns the sorted samples.
pub fn time_each<T>(items: impl IntoIterator<Item = T>, mut f: impl FnMut(T)) -> Samples {
    let mut samples = Samples::default();
    for item in items {
        let started = Instant::now();
        f(item);
        samples.push(started.elapsed().as_nanos() as u64);
    }
    samples.sort();
    samples
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[(values.len() - 1) / 2]
}

/// One span of the traced run: recorded by the driver around its own
/// call into a layer. `parent` indexes the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

/// In-memory span store of one thread; merged and written at exit.
#[derive(Debug, Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    /// Records a span that began at `start` and ends now; returns its
    /// index, for spans it causes to name as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        epoch: Instant,
        start: Instant,
        request: u64,
        parent: Option<u32>,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns: (start - epoch).as_nanos() as u64,
            end_ns: epoch.elapsed().as_nanos() as u64,
            parent,
            request,
        });
        self.spans.len() as u32 - 1
    }

    pub fn extend(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.request
                )
            })
            .collect();
        format!("[{}]", rows.join(",\n"))
    }
}

/// A node of the peel: one layer's median time for a request, with the
/// layers it calls. The same inputs are replayed at each depth of the
/// stack, so a layer's self time is its own median minus its children's.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    pub name: &'static str,
    pub median_us: f64,
    pub children: Vec<Layer>,
}

impl Layer {
    pub fn leaf(name: &'static str, median_us: f64) -> Layer {
        Layer {
            name,
            median_us,
            children: Vec::new(),
        }
    }

    pub fn self_us(&self) -> f64 {
        self.median_us - self.children.iter().map(|c| c.median_us).sum::<f64>()
    }

    /// `(name, self time)` of every node, depth first.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut out = vec![(self.name, self.self_us())];
        for child in &self.children {
            out.extend(child.self_times());
        }
        out
    }

    pub fn find(&self, name: &str) -> Option<&Layer> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: nearest-rank percentile on a sorted vector.
    fn oracle(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.max(1) - 1]
    }

    fn samples(n: u64) -> Samples {
        // A permutation of 1000, 2000, …, n·1000 ns.
        let mut s = Samples::default();
        for i in 0..n {
            s.push(((i * 7919) % n + 1) * 1000);
        }
        s.sort();
        s
    }

    #[test]
    fn percentiles_match_a_sorted_vector_oracle() {
        let s = samples(5000);
        let sorted: Vec<u64> = (1..=5000).map(|i| i * 1000).collect();
        for q in [0.5, 0.9, 0.99, 0.995] {
            assert_eq!(
                s.percentile_us(q),
                Some(oracle(&sorted, q) as f64 / 1e3),
                "q = {q}"
            );
        }
        assert_eq!(s.median_us(), 2500.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond.
        assert!(samples(1000).percentile_us(0.99).is_some());
        assert!(samples(999).percentile_us(0.99).is_none());
        // p50 needs 20 samples.
        assert!(samples(20).percentile_us(0.5).is_some());
        assert!(samples(19).percentile_us(0.5).is_none());
        assert!(Samples::default().percentile_us(0.5).is_none());
    }

    #[test]
    fn the_tail_names_the_percentile_the_samples_support() {
        // 5000 samples: p99. 200: the 190th (p95). 12: the largest.
        assert_eq!(samples(5000).tail_us(), (4950.0, 0.99));
        assert_eq!(samples(200).tail_us(), (190.0, 0.95));
        assert_eq!(samples(12).tail_us(), (12.0, 1.0));
        assert_eq!(Samples::default().tail_us(), (0.0, 1.0));
    }

    #[test]
    fn slice_medians_ignore_a_slow_minority() {
        // Four seconds at one request per millisecond and 100 us each,
        // but the second second runs at a fifth of the rate and 900 us.
        let mut series = Series::default();
        for ms in 0..4000u64 {
            let slow = (1000..2000).contains(&ms);
            if !slow || ms % 5 == 0 {
                series.push(ms * 1_000_000, if slow { 900_000 } else { 100_000 });
            }
        }
        assert_eq!(slice_count(4.0), 16);
        assert_eq!(rate_per_s(&series, 4.0, 1), 1000.0);
        assert_eq!(rate_per_s(&series, 4.0, 32), 32_000.0);
        assert_eq!(p50_us(&series, 4.0), 100.0);
        // The whole window's mean rate would have carried the slow second.
        assert_eq!(series.len(), 3200);
        // Completions past the window are in no slice.
        series.push(4_000_000_000, 1);
        assert_eq!(
            series
                .slices(4_000_000_000, 16)
                .iter()
                .map(Samples::len)
                .sum::<usize>(),
            3200
        );
        assert_eq!(slice_count(0.5), 4);
        assert_eq!(slice_count(60.0), 16);
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let tree = Layer {
            name: "net",
            median_us: 250.0,
            children: vec![Layer {
                name: "ingest",
                median_us: 200.0,
                children: vec![
                    Layer::leaf("wal.append", 10.0),
                    Layer::leaf("wal.fsync", 150.0),
                    Layer {
                        name: "core.apply",
                        median_us: 12.0,
                        children: vec![Layer::leaf("index.upsert", 9.0)],
                    },
                ],
            }],
        };
        let selfs = tree.self_times();
        assert_eq!(
            selfs,
            vec![
                ("net", 50.0),
                ("ingest", 28.0),
                ("wal.append", 10.0),
                ("wal.fsync", 150.0),
                ("core.apply", 3.0),
                ("index.upsert", 9.0),
            ]
        );
        // Self times add up to the root: nothing is lost or counted twice.
        let total: f64 = selfs.iter().map(|(_, us)| us).sum();
        assert_eq!(total, tree.median_us);
        assert_eq!(tree.find("core.apply").unwrap().self_us(), 3.0);
        assert!(tree.find("nope").is_none());
    }
}
