//! Zero-dependency sampling harness: order statistics, operation
//! accounting, per-process scratch directories, peak memory, and a
//! minimal JSON reader/writer for the run records.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// First quartile, median and third quartile of `values`, computed the
/// way Python's `statistics.quantiles(values, n=4)` does (its default
/// "exclusive" method), so the spread this program reports is the
/// spread an external script computes from the same numbers.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return None,
        1 => return Some((v[0], v[0], v[0])),
        _ => {}
    }
    let m = n as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// The highest percentile that still has at least `beyond` samples
/// above it, as `(percentile, value)`; `None` when there are too few
/// samples for any. With 1000 samples and `beyond = 10` this is p99.
pub fn tail(values: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= beyond {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - beyond - 1;
    Some((100.0 * (k + 1) as f64 / n as f64, v[k]))
}

/// Median and quartiles of one metric's samples, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// The samples' median and quartiles; NaN (written as JSON `null`)
    /// when there are none.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        Summary {
            median,
            q1,
            q3,
            n: values.len(),
        }
    }

    /// The smallest sample, for a short deterministic computation whose
    /// only noise is other work slowing it down: the minimum is its
    /// cost when nothing interferes. The quartiles are the minimum too.
    pub fn min_of(values: &[f64]) -> Summary {
        let min = values.iter().copied().fold(f64::NAN, f64::min);
        Summary {
            median: min,
            q1: min,
            q3: min,
            n: values.len(),
        }
    }

    /// A single measurement (a count, or a value taken once per run).
    pub fn one(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Every sample scaled by `k` (unit conversion).
    pub fn scaled(self, k: f64) -> Summary {
        Summary {
            median: self.median * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            n: self.n,
        }
    }

    /// `k / x` for every sample: a rate from per-sample times. The
    /// quartiles swap, since the map reverses order.
    pub fn reciprocal(self, k: f64) -> Summary {
        Summary {
            median: k / self.median,
            q1: k / self.q3,
            q3: k / self.q1,
            n: self.n,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, summary: Summary) -> Metric {
        Metric {
            name,
            unit,
            summary,
        }
    }
}

/// Operations attempted and failed in one run, plus the correctness
/// checks that did not hold. An operation is a capture, shard capture,
/// merge, submission, query or lease request; it fails on an `Err`, an
/// extra retry attempt, or a capture report that is not clean.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub broken: Vec<String>,
}

impl Tally {
    /// Count one operation; a failed one is described on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("  operation failed: {}", what());
        }
    }

    /// Record a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("  CHECK FAILED: {what}");
            self.broken.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.broken.is_empty()
    }

    /// Failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// A scratch directory private to this process, under `.bench_work/`
/// in the current directory, removed when dropped, so concurrent runs
/// never share journals and a run leaves nothing behind.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Create `.bench_work/<pid>-<n>-<tag>`, `n` counting the work
    /// directories this process made, emptying any stale copy.
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        static MADE: AtomicU64 = AtomicU64::new(0);
        // A unique suffix, not published data: Relaxed is enough.
        let n = MADE.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(".bench_work").join(format!("{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// An empty subdirectory `name`, recreated if it already exists.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Time one run of the reference kernel: a fixed floating-point sum,
/// `(d + 0.5)^-2.1` over 2^20 degrees, the shape of one Zipf–Mandelbrot
/// evaluation. It belongs to the benchmark, not the program, so no
/// change under test moves it; what moves it is how fast the host runs
/// at the moment, which on a shared host drifts by a quarter for
/// minutes at a time.
pub fn reference_s() -> f64 {
    let exponent = std::hint::black_box(-2.1f64);
    let t0 = Instant::now();
    let sum: f64 = (1..=1u32 << 20)
        .map(|d| (f64::from(d) + 0.5).powf(exponent))
        .sum();
    std::hint::black_box(sum);
    t0.elapsed().as_secs_f64()
}

/// Heap bytes currently allocated through [`CountingAlloc`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most [`LIVE`] has been.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live heap bytes and their peak.
///
/// The benchmark measures memory as peak live heap rather than peak
/// resident set: with a thread per connection and per capture, glibc
/// spreads allocations over per-thread arenas and keeps what they
/// freed, so the resident peak of the same run varies by a quarter
/// with thread timing. The counters are statistics that publish no
/// other data, so every update is `Relaxed`.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting around each
// call touches only two atomics and never the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (so from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and that `new_size` is non-zero and does not
        // overflow when rounded up to `layout.align()`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }
}

/// The peak live heap since the process started, in MiB (0 unless
/// [`CountingAlloc`] is the global allocator).
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// A JSON value: enough to write run records and to read them (and
/// `BENCHMARK.json`) back.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.at));
        }
        Ok(value)
    }
}

impl std::fmt::Display for Json {
    /// Compact, single-line JSON. Numbers print with every digit Rust
    /// needs to round-trip them; non-finite numbers become `null`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
                f.write_str(&out)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.at += 1;
                let mut pairs = Vec::new();
                if self.peek() == Some(b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                    match self.peek() {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(&self.bytes[self.at..]).map_err(|e| e.to_string())?;
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.at += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or("unterminated escape")?;
                    self.at += 1;
                    match e {
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let hex = rest.get(2..6).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        other => out.push(other),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[4.0]), Some((4.0, 4.0, 4.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_is_the_middle_value_or_the_mean_of_the_two() {
        assert_eq!(Summary::of(&[5.0, 1.0, 3.0]).median, 3.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((99.0, 990.0)));
        let beyond = v.iter().filter(|&&x| x > 990.0).count();
        assert_eq!(beyond, 10);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((50.0, 10.0)));
        assert_eq!(tail(&v[..10], 10), None);
    }

    #[test]
    fn reciprocal_swaps_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 4.0]);
        let r = s.reciprocal(8.0);
        assert_eq!(r.median, 4.0);
        assert!(r.q1 <= r.median && r.median <= r.q3);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        t.op(true, String::new);
        t.op(true, String::new);
        t.op(false, || "submission retried".to_string());
        t.op(true, String::new);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.fail_ratio(), 0.25);
        assert!(t.correct());
        t.check(false, || "digest differs".to_string());
        assert!(!t.correct());
    }

    #[test]
    fn json_round_trips() {
        let doc = Json::obj([
            ("a", Json::Num(1.25)),
            ("b", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("c", Json::Str("x\"y\\z\n".to_string())),
            ("d", Json::obj([("e", Json::Num(-3e-7))])),
        ]);
        let text = doc.to_string();
        assert!(!text.contains('\n'));
        assert_eq!(Json::parse(&text), Ok(doc));
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn counting_allocator_tracks_the_heap_peak() {
        // Other tests allocate concurrently, so only the lower bound is
        // certain.
        let big = std::hint::black_box(vec![1u8; 16 << 20]);
        assert!(peak_heap_mib() >= 16.0);
        drop(big);
    }

    #[test]
    fn work_dir_is_removed_on_drop() {
        let dir = WorkDir::new("harness-test").expect("create work dir");
        let sub = dir.fresh("x").expect("create subdir");
        std::fs::write(sub.join("f"), b"1").expect("write");
        let path = dir.path().to_path_buf();
        drop(dir);
        assert!(!path.exists());
    }
}
