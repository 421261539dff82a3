//! `serve-mixed`: a `cd_serve::Server` under an open-loop, seeded Poisson
//! stream of cache reads and delta writes, sent by one submitter thread.

use crate::check::{exactly_once, same_answer, verify_answer, Answer, Checks};
use crate::metrics::Values;
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::Tracer;
use crate::{answer_device, gpu_config, peak_rss_mb, Opts, Outcome};
use cd_core::louvain_gpu;
use cd_gpusim::{Device, Profile};
use cd_graph::{apply_delta, modularity, Csr, DeltaBatch};
use cd_serve::{
    structural_hash, DeltaBase, ExecPath, JobId, JobOptions, JobOutcome, LatencyStats, Server,
    ServerConfig,
};
use cd_workloads::{churn, load, Scale};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The base graphs, in the order their cold jobs run: one per family (web,
/// road, clustered, KKT channel, KKT), all of 0.45M–0.71M arcs, so reads
/// fall into two close hash-time groups rather than far-apart modes.
const GRAPHS: [&str; 5] = ["cnr2000", "road-usa", "com-dblp", "channel", "nlpkkt"];
const COLD_METRICS: [&str; 5] = [
    "serve.cold_ms.cnr2000",
    "serve.cold_ms.road-usa",
    "serve.cold_ms.com-dblp",
    "serve.cold_ms.channel",
    "serve.cold_ms.nlpkkt",
];
/// Request keys: every base graph with pruning off and on.
const KEYS: usize = 2 * GRAPHS.len();
const RATE_PER_S: f64 = 24.0;
/// Set-ups per run. Each one loads five Medium graphs and runs ten cold
/// jobs, about 4 s on a 2-core host.
const SETUPS: u64 = 2;
/// Rounds (one request per key) in every ten that are writes.
const WRITE_ROUNDS_PER_10: usize = 3;
const PERTURB_CHURN: f64 = 1e-4;
const WRITE_CHURN: f64 = 1e-3;
/// Large enough that nothing is evicted in a run; the run checks this.
const CACHE_BYTES: usize = 512 << 20;
/// Schedule length of `--scale tiny`.
const TINY_SECONDS: f64 = 2.0;

/// SplitMix64 — the schedule's own generator, independent of the program.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    pub at: Duration,
    pub key: usize,
    pub write: bool,
}

/// `n` requests arriving as a Poisson process of `rate` per second. The mix
/// is fixed and only its order and the gaps depend on the seed: requests
/// cycle through the keys, and three rounds in every ten are writes, so every
/// key gets the same reads and writes. With reads faster than writes, the
/// overall p50 falls near the 70th percentile of the reads and the p90 near
/// the 67th of the writes — inside groups, not on a boundary between them
/// that would jump from seed to seed.
pub fn schedule(seed: u64, n: usize, rate: f64) -> Vec<Arrival> {
    let mut rng = SplitMix(seed ^ 0x5345_5256_452D_4D49);
    let mut mix: Vec<(usize, bool)> = (0..n)
        .map(|i| (i % KEYS, (i / KEYS * WRITE_ROUNDS_PER_10) % 10 < WRITE_ROUNDS_PER_10))
        .collect();
    for i in (1..mix.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        mix.swap(i, j);
    }
    let mut t = 0.0f64;
    mix.into_iter()
        .map(|(key, write)| {
            t += -(1.0 - rng.unit()).ln() / rate;
            Arrival { at: Duration::from_secs_f64(t), key, write }
        })
        .collect()
}

struct Base {
    graph: Arc<Csr>,
    options: JobOptions,
    job: JobId,
    answer: Answer,
}

struct Setup {
    server: Server,
    bases: Vec<Base>,
    deck: Vec<Arrival>,
    /// The pre-generated batch of every write, by request index.
    deltas: Vec<Option<DeltaBatch>>,
    /// Latency of each key's cold base job.
    cold_ms: Vec<f64>,
    build_s: f64,
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        num_devices: 2,
        device: answer_device(1),
        cache_bytes: CACHE_BYTES,
        ..ServerConfig::default()
    }
}

fn setup(opts: &Opts, tracer: &Tracer, checks: &mut Checks, i: u64) -> (Setup, f64) {
    tracer.span("bench.setup", None, i, |p| {
        let t0 = Instant::now();
        let scale = opts.scale(Scale::Medium);
        let graphs: Vec<Arc<Csr>> = GRAPHS
            .iter()
            .enumerate()
            .map(|(gi, name)| {
                let g = tracer
                    .span("workloads.load", p, gi as u64, |_| load(name, scale))
                    .expect("suite graph names resolve")
                    .graph;
                if opts.seed == 0 {
                    return Arc::new(g);
                }
                let delta = churn(&g, opts.seed, PERTURB_CHURN);
                let (g, _) = tracer
                    .span("graph.apply_delta", p, gi as u64, |_| apply_delta(&g, &delta))
                    .expect("churn draws batches that apply to their graph");
                Arc::new(g)
            })
            .collect();
        let build_s = t0.elapsed().as_secs_f64();
        let server = Server::new(server_config());

        let mut bases = Vec::with_capacity(KEYS);
        let mut cold_ms = Vec::with_capacity(KEYS);
        for key in 0..KEYS {
            let graph = Arc::clone(&graphs[key / 2]);
            let mut options = JobOptions::default().with_profile(Profile::Parallel);
            options.config = gpu_config(scale);
            let options = options.with_pruning(key % 2 == 1);
            let t = Instant::now();
            let job = tracer
                .span("serve.submit", p, key as u64, |_| server.submit(Arc::clone(&graph), options))
                .expect("an idle server admits a cold job");
            let outcome =
                tracer.span("serve.await_result", p, key as u64, |_| server.await_result(job));
            cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let answer = match outcome.result() {
                Some(r) => {
                    let answer = Answer::of(r.partition.as_slice(), r.modularity);
                    let q = tracer.span("graph.modularity", p, key as u64, |_| {
                        modularity(&graph, &r.partition)
                    });
                    let what = format!("cold {} key {key}", GRAPHS[key / 2]);
                    checks.op(verify_answer(&what, graph.num_vertices(), &answer, q));
                    answer
                }
                None => {
                    checks.op(vec![format!("cold base job {key} ended {:?}", outcome.status())]);
                    Answer::of(&[], f64::NAN)
                }
            };
            bases.push(Base { graph, options, job, answer });
        }

        let seconds = if opts.tiny { TINY_SECONDS } else { opts.seconds };
        let deck = schedule(opts.seed, (RATE_PER_S * seconds).round() as usize, RATE_PER_S);
        let deltas = deck
            .iter()
            .enumerate()
            .map(|(i, a)| {
                a.write.then(|| {
                    let seed = opts.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
                    churn(&bases[a.key].graph, seed, WRITE_CHURN)
                })
            })
            .collect();
        let setup = Setup { server, bases, deck, deltas, cold_ms, build_s };
        (setup, t0.elapsed().as_secs_f64())
    })
}

/// What the submitter saw for one request.
struct Sent {
    late_ms: f64,
    submit_ms: f64,
    job: Option<JobId>,
}

/// Clears the "still submitting" flag when the submitter is done.
struct Done<'a>(&'a AtomicBool);

impl Drop for Done<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// Mean of the samples a `LatencyStats` gained between two snapshots.
fn window_mean(before: &LatencyStats, after: &LatencyStats) -> f64 {
    let n = after.count.saturating_sub(before.count) as f64;
    ratio(after.mean_ms * after.count as f64 - before.mean_ms * before.count as f64, n)
}

pub fn run(opts: &Opts) -> Outcome {
    let tracer = Tracer::new(opts.traced);
    let mut checks = Checks::default();
    let (s, secs) = setup(opts, &tracer, &mut checks, 0);
    let mut setup_s = vec![secs];
    let mut build_s = vec![s.build_s];
    let mut cold_ms: Vec<Vec<f64>> = s.cold_ms.chunks(2).map(|pair| vec![mean(pair)]).collect();
    let server = &s.server;

    let before = server.metrics();
    let pending: Mutex<Vec<(usize, JobId)>> = Mutex::new(Vec::new());
    let settled: Mutex<Vec<(usize, JobId, Instant, JobOutcome)>> = Mutex::new(Vec::new());
    let submitting = AtomicBool::new(true);
    let mut sent: Vec<Sent> = Vec::with_capacity(s.deck.len());
    let spans_before = tracer.spans().len();
    let start = Instant::now();
    tracer.span("bench.measure", None, 0, |mp| {
        std::thread::scope(|scope| {
            // Lets the collector finish even if the submitter below panics.
            let _done = Done(&submitting);
            // Collector: polls outstanding jobs so each settle is timed near
            // the instant it happens, whatever the completion order.
            scope.spawn(|| loop {
                let outstanding = std::mem::take(&mut *pending.lock().expect("collector lock"));
                let mut still = Vec::new();
                for (idx, job) in outstanding {
                    match server.try_result(job) {
                        Some(o) => settled.lock().expect("collector lock").push((
                            idx,
                            job,
                            Instant::now(),
                            o,
                        )),
                        None => still.push((idx, job)),
                    }
                }
                let mut p = pending.lock().expect("collector lock");
                p.append(&mut still);
                if p.is_empty() && !submitting.load(Ordering::SeqCst) {
                    return;
                }
                drop(p);
                std::thread::sleep(Duration::from_millis(1));
            });

            for (idx, a) in s.deck.iter().enumerate() {
                let due = start + a.at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let late_ms = due.elapsed().as_secs_f64() * 1e3;
                let base = &s.bases[a.key];
                let t = Instant::now();
                let res = match &s.deltas[idx] {
                    None => tracer.span("serve.submit", mp, idx as u64, |_| {
                        server.submit(Arc::clone(&base.graph), base.options)
                    }),
                    Some(delta) => tracer.span("serve.submit_delta", mp, idx as u64, |_| {
                        server.submit_delta(DeltaBase::Job(base.job), delta, base.options)
                    }),
                };
                let submit_ms = t.elapsed().as_secs_f64() * 1e3;
                let job = match res {
                    Ok(job) => {
                        match server.try_result(job) {
                            Some(o) => settled.lock().expect("settle lock").push((
                                idx,
                                job,
                                Instant::now(),
                                o,
                            )),
                            None => pending.lock().expect("pending lock").push((idx, job)),
                        }
                        Some(job)
                    }
                    Err(e) => {
                        checks.op(vec![format!("request {idx} rejected: {e}")]);
                        None
                    }
                };
                sent.push(Sent { late_ms, submit_ms, job });
            }
        });
    });
    let stream_s = start.elapsed().as_secs_f64();
    // The stream's peak, before the checks below patch every graph again.
    let peak_rss = peak_rss_mb();
    let after = server.metrics();
    let measured_spans = tracer.spans().len() - spans_before;
    let settled = settled.into_inner().expect("collector finished");

    // Exactly-once accounting, client side and server side.
    let admitted: Vec<u64> = sent.iter().filter_map(|r| r.job.map(JobId::as_u64)).collect();
    let settled_ids: Vec<u64> = settled.iter().map(|(_, j, _, _)| j.as_u64()).collect();
    if let Some(problem) = exactly_once(&admitted, &settled_ids) {
        checks.fail(problem);
    }
    let terminal = |m: &cd_serve::ServeMetrics| m.completed + m.failed + m.cancelled + m.expired;
    let server_settled = terminal(&after) - terminal(&before);
    if after.submitted - before.submitted != admitted.len() as u64
        || server_settled != admitted.len() as u64
    {
        checks.fail(format!(
            "server counted {} admitted and {server_settled} settled for {} admitted requests",
            after.submitted - before.submitted,
            admitted.len()
        ));
    }
    if after.cache.evictions != 0 {
        checks.fail(format!(
            "{} cache evictions; the cache must hold every result",
            after.cache.evictions
        ));
    }

    let (mut all_ms, mut read_ms, mut write_ms, mut qs) = (vec![], vec![], vec![], vec![]);
    let mut apply_ms = Vec::new();
    tracer.span("bench.verify", None, 0, |p| {
        for (idx, _, at, outcome) in &settled {
            let a = &s.deck[*idx];
            let base = &s.bases[a.key];
            let what =
                format!("request {idx} ({} key {})", if a.write { "write" } else { "read" }, a.key);
            let JobOutcome::Completed { result, path } = outcome else {
                checks.op(vec![format!("{what} ended {:?}", outcome.status())]);
                continue;
            };
            let latency = at.duration_since(start + a.at).as_secs_f64() * 1e3;
            all_ms.push(latency);
            qs.push(result.modularity);
            let answer = Answer::of(result.partition.as_slice(), result.modularity);
            let problems = match &s.deltas[*idx] {
                None => {
                    read_ms.push(latency);
                    let mut problems = same_answer(&what, &base.answer, &answer);
                    if *path != ExecPath::CacheHit {
                        problems.push(format!(
                            "{what} was served by {} instead of the cache",
                            path.label()
                        ));
                    }
                    problems
                }
                Some(delta) => {
                    write_ms.push(latency);
                    let t = Instant::now();
                    let (patched, _) = tracer
                        .span("graph.apply_delta", p, *idx as u64, |_| {
                            apply_delta(&base.graph, delta)
                        })
                        .expect("pre-generated batches apply to their base");
                    apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let q = tracer.span("graph.modularity", p, *idx as u64, |_| {
                        modularity(&patched, &result.partition)
                    });
                    verify_answer(&what, patched.num_vertices(), &answer, q)
                }
            };
            checks.op(problems);
        }
    });

    let mut layer = Values::new();
    if opts.traced {
        let reads = read_ms.len() as f64;
        let writes = write_ms.len() as f64;
        let submit = |write: bool| {
            let v: Vec<f64> = s
                .deck
                .iter()
                .zip(&sent)
                .filter(|(a, _)| a.write == write)
                .map(|(_, r)| r.submit_ms)
                .collect();
            median(&v)
        };
        let late: Vec<f64> = sent.iter().map(|r| r.late_ms).collect();
        let mut hash_ms = Vec::new();
        for round in 0..3u64 {
            for key in (0..KEYS).step_by(2) {
                let g = &s.bases[key].graph;
                let t = Instant::now();
                std::hint::black_box(
                    tracer.span("serve.structural_hash", None, round, |_| structural_hash(g)),
                );
                hash_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        let diff = |a: u64, b: u64| a.saturating_sub(b) as f64;
        layer.extend([
            ("serve.read_p50_ms", median(&read_ms)),
            ("serve.read_p90_ms", percentile(&read_ms, 0.9)),
            ("serve.write_p50_ms", median(&write_ms)),
            ("serve.write_p90_ms", percentile(&write_ms, 0.9)),
            ("serve.read_submit_ms", submit(false)),
            ("serve.write_submit_ms", submit(true)),
            ("serve.hash_ms", median(&hash_ms)),
            ("serve.queue_wait_ms.mean", window_mean(&before.queue_wait, &after.queue_wait)),
            ("serve.exec_ms.mean", window_mean(&before.exec, &after.exec)),
            ("serve.cache_hit_ratio", ratio(diff(after.cache.hits, before.cache.hits), reads)),
            (
                "serve.warm_start_ratio",
                ratio(diff(after.warm_started_jobs, before.warm_started_jobs), writes),
            ),
            ("serve.coalesced", diff(after.cache.coalesced, before.cache.coalesced)),
            ("serve.evictions", diff(after.cache.evictions, before.cache.evictions)),
            ("serve.max_queue_depth", after.max_queue_depth as f64),
            ("serve.max_in_flight", after.max_in_flight as f64),
            ("serve.rejected", diff(after.rejected, before.rejected)),
            ("serve.expired", diff(after.expired, before.expired)),
            ("serve.failed", diff(after.failed, before.failed)),
            ("loadgen.offered", s.deck.len() as f64),
            ("loadgen.completed", all_ms.len() as f64),
            ("loadgen.late_p99_ms", percentile(&late, 0.99)),
            ("loadgen.late_max_ms", percentile(&late, 1.0)),
            ("graph.apply_delta_ms", median(&apply_ms)),
            ("graph.modularity_ms", median(&tracer.durations_ms("graph.modularity"))),
            ("bench.trace_overhead_pct", Tracer::overhead_pct(measured_spans, stream_s)),
        ]);
        // The pruning-off cold jobs again as direct calls on a fresh 1-thread
        // device — what the server adds on top of the solve itself.
        let (mut cold, mut direct) = (0.0, 0.0);
        for key in (0..KEYS).step_by(2) {
            let base = &s.bases[key];
            let dev = Device::new(answer_device(1));
            let t = Instant::now();
            let _ = tracer.span("core.louvain_gpu", None, key as u64, |_| {
                louvain_gpu(&dev, &base.graph, &base.options.config)
            });
            direct += t.elapsed().as_secs_f64() * 1e3;
            cold += s.cold_ms[key];
        }
        layer.insert("serve.cold_direct_ratio", ratio(cold, direct));
    }
    let attempted = s.deck.len() as u64;
    let base_answers: Vec<Answer> = s.bases.iter().map(|b| b.answer).collect();
    drop(s);

    // The other set-ups run after the measured phase: timed for `setup_s`,
    // but leaving nothing behind that the stream or its peak sees.
    for i in 1..opts.setups(SETUPS) {
        let (again, secs) = setup(opts, &tracer, &mut checks, i);
        setup_s.push(secs);
        build_s.push(again.build_s);
        for (all, pair) in cold_ms.iter_mut().zip(again.cold_ms.chunks(2)) {
            all.push(mean(pair));
        }
        for (key, (first, base)) in base_answers.iter().zip(&again.bases).enumerate() {
            checks.op(same_answer(&format!("set-up {i} cold key {key}"), first, &base.answer));
        }
    }
    if opts.traced {
        layer.insert("graph.build_s", median(&build_s));
        for (name, ms) in COLD_METRICS.iter().zip(&cold_ms) {
            layer.insert(name, median(ms));
        }
    }

    let mut e2e = Values::new();
    e2e.insert("p50_ms", median(&all_ms));
    e2e.insert("p90_ms", percentile(&all_ms, 0.9));
    e2e.insert("modularity", mean(&qs));
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("peak_rss_mb", peak_rss);
    Outcome { e2e, layer, checks, attempted, tracer }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_keeps_its_mix() {
        let a = schedule(7, 200, RATE_PER_S);
        assert_eq!(a, schedule(7, 200, RATE_PER_S), "same seed, same schedule");
        assert_ne!(a, schedule(8, 200, RATE_PER_S), "another seed, another schedule");
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0].at < w[1].at), "arrivals are ordered");
        for key in 0..KEYS {
            let of_key =
                |write: bool| a.iter().filter(|r| r.key == key && r.write == write).count();
            assert_eq!((of_key(false), of_key(true)), (14, 6), "key {key}: 3 writes in 10");
        }
        let span = a.last().unwrap().at.as_secs_f64() * RATE_PER_S / 200.0;
        assert!((0.7..1.35).contains(&span), "200 arrivals span {span} of 200 / rate");
    }
}
