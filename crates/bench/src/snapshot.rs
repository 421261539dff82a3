//! The one writer behind every `BENCH_*.json` snapshot.
//!
//! A snapshot experiment builds a [`Json`] tree that opens with [`header`],
//! times its variants through [`best_of`], and hands the tree and its gates
//! to [`finish`], which writes the file and reports every failed gate. The
//! `repro` binary turns an `Err` into exit code 1.

use cd_gpusim::{DeviceConfig, Profile};
use cd_workloads::Scale;
use std::path::Path;

/// A JSON value. Object keys keep their insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact unsigned integer (counts, bytes, sizes).
    Int(u64),
    /// A float; non-finite values are written as `null`.
    Num(f64),
    /// A string, escaped per RFC 8259 on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Builds a [`Json::Obj`] from `key => value` pairs, converting each value
/// with `Json::from`.
macro_rules! obj {
    ($($k:expr => $v:expr),* $(,)?) => {
        $crate::snapshot::Json::Obj(vec![$((String::from($k), $crate::snapshot::Json::from($v))),*])
    };
}
pub(crate) use obj;

/// Builds [`finish`]'s gate list from `condition => "error message"` pairs;
/// each message is a format string that may name variables in scope.
macro_rules! gates {
    ($($ok:expr => $msg:literal),* $(,)?) => {
        [$(($ok, format!($msg))),*]
    };
}
pub(crate) use gates;

/// `From` conversions for the scalar types snapshots record.
macro_rules! from_scalar {
    ($($t:ty => |$x:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($x: $t) -> Self {
                $e
            }
        })*
    };
}
from_scalar! {
    bool => |b| Json::Bool(b), u64 => |i| Json::Int(i), usize => |i| Json::Int(i as u64),
    f64 => |x| Json::Num(x), &str => |s| Json::Str(s.to_string()), String => |s| Json::Str(s),
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Appends the fields of the object `more` to the object `self`.
    ///
    /// # Panics
    /// If either is not an object — a bug in the experiment building it.
    pub fn extend(&mut self, more: Json) {
        match (self, more) {
            (Json::Obj(fields), Json::Obj(more)) => fields.extend(more),
            (a, b) => panic!("Json::extend needs two objects, got {a:?} and {b:?}"),
        }
    }

    /// The value pretty-printed with two-space indents and a final newline.
    /// Arrays of scalars stay on one line; objects and arrays holding
    /// containers put one element per line.
    pub fn pretty(&self) -> String {
        self.render(0) + "\n"
    }

    fn render(&self, depth: usize) -> String {
        let lines = |open: &str, items: Vec<String>, close: &str| {
            if items.is_empty() {
                return format!("{open}{close}");
            }
            let pad = "  ".repeat(depth + 1);
            let body: Vec<_> = items.iter().map(|item| format!("{pad}{item}")).collect();
            format!("{open}\n{}\n{}{close}", body.join(",\n"), "  ".repeat(depth))
        };
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Int(i) => i.to_string(),
            // Rounded to 15 significant digits (the most every f64 holds
            // exactly), so sums and products print without binary noise;
            // `{:?}` then gives the shortest text for that value, in
            // exponent form for very small or large magnitudes.
            Json::Num(x) if x.is_finite() => {
                let rounded: f64 = format!("{x:.14e}").parse().expect("a formatted f64 parses");
                format!("{rounded:?}")
            }
            Json::Num(_) => "null".into(),
            Json::Str(text) => quote(text),
            Json::Arr(items) if items.iter().any(|i| matches!(i, Json::Arr(_) | Json::Obj(_))) => {
                lines("[", items.iter().map(|i| i.render(depth + 1)).collect(), "]")
            }
            Json::Arr(items) => {
                format!(
                    "[{}]",
                    items.iter().map(|i| i.render(depth)).collect::<Vec<_>>().join(", ")
                )
            }
            Json::Obj(fields) => {
                let items =
                    fields.iter().map(|(k, v)| format!("{}: {}", quote(k), v.render(depth + 1)));
                lines("{", items.collect(), "}")
            }
        }
    }
}

/// `text` as a JSON string literal (RFC 8259 §7): quote, backslash and
/// control characters escaped.
fn quote(text: &str) -> String {
    let mut s = String::from('"');
    for c in text.chars() {
        match c {
            '"' | '\\' => s.extend(['\\', c]),
            c if u32::from(c) < 0x20 => s.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => s.push(c),
        }
    }
    s + "\""
}

/// The fields every snapshot opens with: which experiment, at what scale,
/// under which execution profile, on how many worker threads, on how many
/// host cores. `profile` is the profile the experiment's runs use unless
/// they pin one per run.
pub fn header(experiment: &str, scale: Scale, profile: Profile) -> Json {
    let threads = DeviceConfig::tesla_k40m().with_profile(profile).effective_threads();
    obj! {
        "experiment" => experiment, "scale" => format!("{scale:?}"),
        "profile" => profile.to_string(), "threads" => threads, "host_cores" => host_cores(),
    }
}

/// The host's core count (1 when it cannot be read).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Repetitions per variant in every best-of timing.
pub const REPS: usize = 3;

/// One variant's fastest run out of a [`best_of`] series.
pub struct Best<T> {
    /// The fastest run's output.
    pub run: T,
    /// The fastest run's time, in seconds.
    pub seconds: f64,
    /// Slowest minus fastest time over the repetitions, in seconds.
    pub spread: f64,
}

/// Runs every variant `reps` times, round-robin (A, B, A, B, ...) so slow
/// drift in host load lands on every variant alike, and keeps each
/// variant's fastest run. A variant returns its measured seconds with its
/// output.
///
/// # Panics
/// If `reps` is zero.
pub fn best_of<T, const N: usize>(
    reps: usize,
    mut variants: [&mut dyn FnMut() -> (f64, T); N],
) -> [Best<T>; N] {
    let mut best: [Option<Best<T>>; N] = std::array::from_fn(|_| None);
    let mut slowest = [f64::MIN; N];
    for _ in 0..reps {
        for (i, variant) in variants.iter_mut().enumerate() {
            let (seconds, run) = variant();
            slowest[i] = slowest[i].max(seconds);
            if best[i].as_ref().is_none_or(|b| seconds < b.seconds) {
                best[i] = Some(Best { run, seconds, spread: 0.0 });
            }
        }
    }
    let mut i = 0;
    best.map(|b| {
        let mut b = b.expect("best_of needs at least one repetition");
        b.spread = slowest[i] - b.seconds;
        i += 1;
        b
    })
}

/// Wall time of `f` in seconds, with its output.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = std::time::Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// What a snapshot experiment returns: `Err` carries one message per
/// failure (a write that failed, then each failed gate, in order).
pub type Outcome = Result<(), Vec<String>>;

/// Creates the output directory.
pub fn create_out_dir(out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("could not create {}: {e}", out.display()))
}

/// Writes `json` to `out/file` and checks the gates, each an `(ok, error
/// message)` pair. Returns every failure, not only the first.
pub fn finish(
    out: &Path,
    file: &str,
    json: &Json,
    gates: impl IntoIterator<Item = (bool, String)>,
) -> Outcome {
    let path = out.join(file);
    let written = create_out_dir(out).and_then(|()| {
        std::fs::write(&path, json.pretty())
            .map_err(|e| format!("could not write {}: {e}", path.display()))
    });
    if written.is_ok() {
        println!("wrote {}", path.display());
    }
    let failed = gates.into_iter().filter(|(ok, _)| !ok).map(|(_, msg)| msg);
    let errors: Vec<_> = written.err().into_iter().chain(failed).collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_to_15_digits_and_non_finite_is_null() {
        let j = Json::from(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 1e-7, 0.1 + 0.2]);
        assert_eq!(j.pretty(), "[null, null, null, -0.5, 1e-7, 0.3]\n");
    }

    #[test]
    fn strings_are_escaped_per_rfc_8259() {
        let j = Json::from("say \"hi\" \\ tab\t nl\n bell\u{7} é");
        assert_eq!(j.pretty(), "\"say \\\"hi\\\" \\\\ tab\\u0009 nl\\u000a bell\\u0007 é\"\n");
    }

    #[test]
    fn nesting_and_key_order() {
        let mut j = obj! { "z" => 1usize, "a" => vec![obj! { "k" => true }], "m" => Json::Null };
        j.extend(obj! { "e" => obj! {} });
        assert_eq!(
            j.pretty(),
            "{\n  \"z\": 1,\n  \"a\": [\n    {\n      \"k\": true\n    }\n  ],\n  \
             \"m\": null,\n  \"e\": {}\n}\n"
        );
    }

    #[test]
    fn best_of_interleaves_and_keeps_fastest_with_spread() {
        let mut order = Vec::new();
        let times = std::cell::RefCell::new(vec![3.0, 2.0, 1.0, 5.0, 4.0, 6.0].into_iter());
        let next = || times.borrow_mut().next().expect("six runs");
        let [a, b] = best_of(
            3,
            [
                &mut || {
                    order.push('a');
                    let t = next();
                    (t, t * 10.0)
                },
                &mut || (next(), 0.0),
            ],
        );
        assert_eq!(order, ['a', 'a', 'a']);
        assert_eq!((a.seconds, a.run, a.spread), (1.0, 10.0, 3.0));
        assert_eq!((b.seconds, b.spread), (2.0, 4.0));
    }

    #[test]
    fn a_failed_write_is_an_error() {
        let dir = std::env::temp_dir().join(format!("cd-bench-snapshot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("regular-file");
        std::fs::write(&file, "not a directory").unwrap();
        let res = finish(&file.join("out"), "BENCH_x.json", &obj! {}, []);
        std::fs::remove_dir_all(&dir).unwrap();
        let errors = res.unwrap_err();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].starts_with("could not create"), "{errors:?}");
    }

    #[test]
    fn every_failed_gate_is_returned() {
        let dir = std::env::temp_dir().join(format!("cd-bench-gates-{}", std::process::id()));
        let gates =
            [(false, "first".to_string()), (true, "passes".into()), (false, "third".into())];
        let res = finish(&dir, "BENCH_x.json", &obj! { "ok" => false }, gates);
        let written = std::fs::read_to_string(dir.join("BENCH_x.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(res, Err(vec!["first".to_string(), "third".to_string()]));
        assert_eq!(written, "{\n  \"ok\": false\n}\n");
    }
}
