//! Traced pass of the study benchmark.
//!
//! Drives one workload's work in-process through the layers' public
//! functions, as re-exported by `rodinia_repro`, and times every call
//! from here; nothing inside the program is instrumented. The pass runs
//! in four stages:
//!
//! 1. **Captures.** Every capture the experiment drivers will ask for is
//!    made up front, one call at a time, under each capture fingerprint
//!    the drivers use. A call is attributed to capture or to store
//!    restore by the trace caches' own counters.
//! 2. **Replays.** Every GPU replay configuration the drivers use and
//!    every shared-cache capacity of the CPU corpus is replayed as one
//!    timed job of a `StudySession::run_indexed` batch submitted here,
//!    which also yields the engine's busy, idle and tail times.
//! 3. **Analysis.** The PCA fits, the clustering and the
//!    Plackett–Burman effect analyses run on the replayed results.
//! 4. **Experiments.** Each requested artifact's driver runs on the warm
//!    session and its tables are rendered exactly as `repro` prints
//!    them, so the benchmark can digest-compare them with the CLI's.
//!    The drivers must replay exactly what stage 2 replayed, as the
//!    program's own `simt.replay.*` span counts tell.
//!
//! ```text
//! studybench --scale small --artifacts all [--tables-out tables.txt] [--store DIR]
//! ```
//!
//! Without `--tables-out` the pass stops after stage 3; the benchmark
//! runs it that way a second time to check that every exact counter
//! repeats. Prints one JSON object `{"metrics": {...}, "errors": [...]}`.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use rodinia_repro::analysis::{euclidean_matrix, pb12, try_hierarchical, Linkage, PbResult, Pca};
use rodinia_repro::datasets::Scale;
use rodinia_repro::obs::{Json, Registry};
use rodinia_repro::rodinia_gpu::leukocyte::Leukocyte;
use rodinia_repro::rodinia_gpu::srad::Srad;
use rodinia_repro::rodinia_gpu::{all_benchmarks, GpuBenchmark};
use rodinia_repro::rodinia_study::comparison::ComparisonStudy;
use rodinia_repro::rodinia_study::experiments::{run_comparison, run_gpu, ExperimentId};
use rodinia_repro::rodinia_study::request::parse_scale;
use rodinia_repro::rodinia_study::suite::combined_workloads;
use rodinia_repro::rodinia_study::trace_cache::CapturedRun;
use rodinia_repro::rodinia_study::{features, sensitivity, StudyError, StudySession};
use rodinia_repro::simt::{self, GpuConfig};
use rodinia_repro::store::{fnv1a64, SweepJournal, TraceStore};
use rodinia_repro::tracekit::ProfileConfig;

/// Host times of the calls one layer received. A layer that receives
/// no call reports the clock's reading of its empty stage instead of a
/// constant zero, so every time the benchmark prints is a measurement.
#[derive(Default)]
struct Calls {
    times: Vec<Duration>,
    idle: Duration,
}

impl Calls {
    fn push(&mut self, d: Duration) {
        self.times.push(d);
    }

    /// Closes the layer's stage: with no calls, reads the clock across
    /// the (empty) stage.
    fn settle(&mut self) {
        if self.times.is_empty() {
            let t = Instant::now();
            self.idle = t.elapsed();
        }
    }

    fn count(&self) -> f64 {
        self.times.len() as f64
    }

    fn total(&self) -> Duration {
        if self.times.is_empty() {
            self.idle
        } else {
            self.times.iter().sum()
        }
    }

    fn secs(&self) -> f64 {
        self.total().as_secs_f64()
    }

    /// Nearest-rank percentile of the per-call times, in milliseconds.
    fn percentile_ms(&self, p: f64) -> f64 {
        if self.times.is_empty() {
            return self.idle.as_secs_f64() * 1e3;
        }
        let mut sorted = self.times.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1].as_secs_f64() * 1e3
    }

    /// Host nanoseconds per unit of simulated work.
    fn ns_per(&self, work: u64) -> f64 {
        self.total().as_secs_f64() * 1e9 / work.max(1) as f64
    }
}

/// What the traced run's own `run_indexed` batches cost the engine.
#[derive(Default)]
struct Engine {
    jobs: u64,
    busy: f64,
    capacity: f64,
    tail: f64,
}

impl Engine {
    /// Runs `f(0..n)` as one batch on `session`'s pool, timing each job
    /// from here. Returns the results in index order with each job's
    /// duration.
    fn batch<T: Send>(
        &mut self,
        session: &StudySession,
        n: usize,
        f: impl Fn(usize) -> Result<T, StudyError> + Sync,
    ) -> Result<Vec<(T, Duration)>, StudyError> {
        let t0 = Instant::now();
        let out = session.run_indexed(n, |i| {
            let start = t0.elapsed();
            let r = f(i)?;
            Ok((r, start, t0.elapsed(), std::thread::current().id()))
        })?;
        let wall = t0.elapsed().as_secs_f64();
        let workers = session.jobs().min(n);
        let mut last_end: HashMap<ThreadId, Duration> = HashMap::new();
        for (_, start, end, tid) in &out {
            self.busy += (*end - *start).as_secs_f64();
            let e = last_end.entry(*tid).or_default();
            *e = (*e).max(*end);
        }
        self.jobs += n as u64;
        self.capacity += wall * workers as f64;
        // From the moment the first worker found the queue empty to the
        // end of the batch.
        if let Some(first_idle) = last_end.values().min() {
            self.tail += wall - first_idle.as_secs_f64();
        }
        Ok(out.into_iter().map(|(r, s, e, _)| (r, e - s)).collect())
    }
}

/// Session workers: the benchmark's `repro` runs use `--jobs 2`.
const JOBS: usize = 2;

struct Args {
    scale: Scale,
    artifacts: Vec<ExperimentId>,
    tables_out: Option<PathBuf>,
    store: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut artifacts = Vec::new();
    let mut tables_out = None;
    let mut store = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--scale" => {
                scale = parse_scale(value).ok_or_else(|| format!("bad scale {value:?}"))?
            }
            "--artifacts" if value == "all" => artifacts = ExperimentId::all(),
            "--artifacts" => {
                for name in value.split(',') {
                    artifacts.push(
                        ExperimentId::parse(name)
                            .ok_or_else(|| format!("unknown artifact {name:?}"))?,
                    );
                }
            }
            "--tables-out" => tables_out = Some(PathBuf::from(value)),
            "--store" => store = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if artifacts.is_empty() {
        return Err("--artifacts is required".into());
    }
    Ok(Args {
        scale,
        artifacts,
        tables_out,
        store,
    })
}

/// The GPU work the experiment drivers ask for: the replay
/// configurations of each suite benchmark's default-fingerprint and
/// GTX 480 (32-bank) captures, `None` where no driver needs the capture,
/// whether Table III's variant captures are needed, and whether the
/// Plackett–Burman design points are.
#[derive(Default)]
struct GpuPlan {
    default: Option<Vec<GpuConfig>>,
    fermi: Option<Vec<GpuConfig>>,
    variants: bool,
    pb: bool,
}

fn add_replays(capture: &mut Option<Vec<GpuConfig>>, cfgs: Vec<GpuConfig>) {
    add_unique(capture.get_or_insert_with(Vec::new), cfgs);
}

fn add_unique(replays: &mut Vec<GpuConfig>, cfgs: impl IntoIterator<Item = GpuConfig>) {
    for cfg in cfgs {
        if !replays.contains(&cfg) {
            replays.push(cfg);
        }
    }
}

fn gpu_plan(artifacts: &[ExperimentId]) -> GpuPlan {
    let base = GpuConfig::gpgpusim_default();
    let mut plan = GpuPlan::default();
    for &id in artifacts {
        match id {
            ExperimentId::Fig1 => add_replays(&mut plan.default, vec![GpuConfig::gpgpusim_8sm()]),
            ExperimentId::Fig2 | ExperimentId::Fig3 => add_replays(&mut plan.default, vec![]),
            ExperimentId::Fig4 => add_replays(
                &mut plan.default,
                [4, 6, 8].map(|ch| base.with_mem_channels(ch)).to_vec(),
            ),
            ExperimentId::Table3 => plan.variants = true,
            ExperimentId::Fig5 => {
                add_replays(&mut plan.default, vec![GpuConfig::gtx280()]);
                add_replays(&mut plan.fermi, vec![GpuConfig::gtx480_l1_bias()]);
            }
            ExperimentId::PlackettBurman => {
                add_replays(&mut plan.default, vec![]);
                plan.pb = true;
            }
            _ => {}
        }
    }
    plan
}

/// The Plackett–Burman responses that the store's sweep journal already
/// holds, by job index (benchmark-major, design-point-minor). The PB
/// driver restores these instead of replaying them. The journal's key
/// and file name are spelled as `sensitivity::run` spells them; stage 4
/// checks that the driver restored exactly these.
fn journaled_pb(
    session: &StudySession,
    scale: Scale,
    benches: &[Box<dyn GpuBenchmark>],
) -> BTreeMap<usize, f64> {
    let Some(store) = session.store() else {
        return BTreeMap::new();
    };
    let abbrevs: Vec<&str> = benches.iter().map(|b| b.abbrev()).collect();
    let key = format!("pb12/{scale:?}/{}", abbrevs.join("+"));
    let name = format!("pb12-{:016x}.sweep", fnv1a64(key.as_bytes()));
    SweepJournal::open(&store.journal_path(&name), &key)
        .map_or_else(|_| BTreeMap::new(), |(_, done)| done)
}

/// GPU kernel replays the program has made so far, as its own
/// always-on `simt.replay.<kernel>` spans count them.
fn kernel_replays() -> u64 {
    let snapshot = Registry::global().snapshot_json();
    let spans = snapshot.get("spans").and_then(Json::as_obj).unwrap_or(&[]);
    spans
        .iter()
        .filter(|(name, _)| name.starts_with("simt.replay."))
        .filter_map(|(_, s)| s.get("count").and_then(Json::as_f64))
        .sum::<f64>() as u64
}

#[derive(Default)]
struct Layers {
    gpu_capture: Calls,
    gpu_restore: Calls,
    gpu_trace_bytes: u64,
    gpu_replay: Calls,
    warp_insts: u64,
    sim_cycles: u64,
    cpu_capture: Calls,
    cpu_restore: Calls,
    cpu_words: u64,
    cpu_replay: Calls,
    refs: u64,
    analysis: Calls,
    engine: Engine,
    experiments: BTreeMap<&'static str, Calls>,
    errors: Vec<String>,
}

/// Captures one GPU workload through `capture`, timing the call and
/// attributing it by the cache's own capture/restore counters.
fn gpu_capture_call(
    session: &StudySession,
    layers: &mut Layers,
    capture: impl FnOnce() -> Result<Arc<CapturedRun>, StudyError>,
) -> Result<Arc<CapturedRun>, StudyError> {
    let cache = session.cache();
    let (c0, r0) = (cache.captures(), cache.restores());
    let t = Instant::now();
    let run = capture()?;
    let d = t.elapsed();
    if cache.captures() > c0 {
        layers.gpu_capture.push(d);
        layers.gpu_trace_bytes +=
            simt::encode_capture_payload(&run.traces, run.h2d_bytes, run.d2h_bytes).len() as u64;
    } else if cache.restores() > r0 {
        layers.gpu_restore.push(d);
    }
    Ok(run)
}

/// Runs stages 1 to 3, and stage 4 when `args.tables_out` is set, whose
/// rendered tables it returns.
fn traced_pass(
    args: &Args,
    session: &StudySession,
    layers: &mut Layers,
) -> Result<Option<String>, StudyError> {
    let scale = args.scale;
    let base = GpuConfig::gpgpusim_default();
    let fermi = GpuConfig::gtx480_shared_bias();
    let plan = gpu_plan(&args.artifacts);
    let corpus_needed = args.artifacts.iter().any(|id| id.needs_corpus());
    let benches = all_benchmarks(scale);
    let design = pb12();
    let pb_cfgs: Vec<GpuConfig> = design.iter().map(sensitivity::config_for).collect();
    let nc = pb_cfgs.len();
    let journaled = if plan.pb {
        journaled_pb(session, scale, &benches)
    } else {
        BTreeMap::new()
    };

    // Stage 1: captures, one call at a time.
    let mut replay_jobs: Vec<(usize, Arc<CapturedRun>, GpuConfig)> = Vec::new();
    for (bi, b) in benches.iter().enumerate() {
        let b = b.as_ref();
        for (replays, cfg, pb) in [
            (&plan.default, &base, plan.pb),
            (&plan.fermi, &fermi, false),
        ] {
            let Some(replays) = replays else { continue };
            let run = gpu_capture_call(session, layers, || {
                session.cache().capture_benchmark(b, scale, cfg)
            })?;
            let mut replays = replays.clone();
            if pb {
                let pending = (0..nc).filter(|k| !journaled.contains_key(&(bi * nc + k)));
                add_unique(&mut replays, pending.map(|k| pb_cfgs[k].clone()));
            }
            for r in replays.into_iter().filter(|r| *r != run.capture_cfg) {
                replay_jobs.push((bi, Arc::clone(&run), r));
            }
        }
    }
    if plan.variants {
        for (family, variant) in [("SRAD", "v1"), ("SRAD", "v2"), ("LC", "v1"), ("LC", "v2")] {
            gpu_capture_call(session, layers, || {
                session
                    .cache()
                    .capture_fn(family, scale, variant, &base, |gpu| {
                        match (family, variant) {
                            ("SRAD", "v1") => Srad::v1(scale).run(gpu),
                            ("SRAD", "v2") => Srad::v2(scale).run(gpu),
                            ("LC", "v1") => Leukocyte::v1(scale).run(gpu),
                            _ => Leukocyte::v2(scale).run(gpu),
                        }
                    })
            })?;
        }
    }
    let cpu_cfg = ProfileConfig::default();
    let workloads = if corpus_needed {
        combined_workloads(scale)
    } else {
        Vec::new()
    };
    let mut cpu_captures = Vec::with_capacity(workloads.len());
    for w in &workloads {
        let cache = session.cpu_cache();
        let (c0, r0) = (cache.captures(), cache.restores());
        let t = Instant::now();
        let cap = cache.capture_workload(&w.label, w.workload.as_ref(), scale, &cpu_cfg)?;
        let d = t.elapsed();
        if cache.captures() > c0 {
            layers.cpu_capture.push(d);
            layers.cpu_words += cap.words() as u64;
        } else if cache.restores() > r0 {
            layers.cpu_restore.push(d);
        }
        cpu_captures.push(cap);
    }

    // Stage 2: replays, each a timed job of a batch submitted here.
    let planned_replays = kernel_replays();
    let gpu_results = layers.engine.batch(session, replay_jobs.len(), |i| {
        let (_, run, cfg) = &replay_jobs[i];
        run.replay(cfg)
    })?;
    for (stats, d) in &gpu_results {
        layers.gpu_replay.push(*d);
        layers.warp_insts += stats.warp_instructions;
        layers.sim_cycles += stats.cycles;
    }
    let planned_replays = kernel_replays() - planned_replays;
    let sizes = &cpu_cfg.cache_sizes;
    let per = sizes.len();
    let cpu_results = layers
        .engine
        .batch(session, cpu_captures.len() * per, |j| {
            cpu_captures[j / per]
                .replay(sizes[j % per])
                .map_err(StudyError::from)
        })?;
    let mut cache_stats = Vec::with_capacity(cpu_results.len());
    for (stats, d) in cpu_results {
        layers.cpu_replay.push(d);
        layers.refs += stats.accesses;
        cache_stats.push(stats);
    }
    let study = ComparisonStudy {
        labels: workloads.iter().map(|w| w.label.clone()).collect(),
        profiles: cpu_captures
            .iter()
            .zip(cache_stats.chunks(per.max(1)))
            .map(|(c, s)| c.profile_with(s.to_vec()))
            .collect(),
    };

    // Stage 3: analysis on the replayed results.
    if corpus_needed {
        let mut full = None;
        for features_of in [
            features::instruction_mix_features,
            features::working_set_features,
            features::sharing_features,
            features::full_features,
        ] {
            let data: Vec<Vec<f64>> = study.profiles.iter().map(features_of).collect();
            let t = Instant::now();
            full = Some(Pca::try_fit(&data)?);
            layers.analysis.push(t.elapsed());
        }
        let pca = full.expect("four fits ran");
        let dist = euclidean_matrix(&pca.truncated_scores(pca.components_for(0.9)));
        let t = Instant::now();
        try_hierarchical(&dist, Linkage::Average)?;
        layers.analysis.push(t.elapsed());
    }
    if plan.pb {
        for bi in 0..benches.len() {
            let responses: Vec<f64> = pb_cfgs
                .iter()
                .enumerate()
                .map(|(k, cfg)| match journaled.get(&(bi * nc + k)) {
                    Some(&response) => response,
                    None => {
                        let j = replay_jobs
                            .iter()
                            .position(|(b, run, c)| *b == bi && c == cfg && run.capture_cfg == base)
                            .expect("every design point the journal lacks was replayed");
                        gpu_results[j].0.cycles as f64
                    }
                })
                .collect();
            let t = Instant::now();
            PbResult::try_analyze(&sensitivity::FACTORS, &design, &responses)?;
            layers.analysis.push(t.elapsed());
        }
    }

    // Stage 4: the experiment drivers on the warm session.
    if args.tables_out.is_none() {
        return Ok(None);
    }
    let driver_replays = kernel_replays();
    let pb_restored = Registry::global().counter("store.sweep_restored");
    let mut rendered = String::new();
    for &id in &args.artifacts {
        let t = Instant::now();
        let tables = if id.needs_corpus() {
            run_comparison(id, &study)?
        } else {
            run_gpu(session, id, scale)?
        };
        layers
            .experiments
            .entry(id.name())
            .or_default()
            .push(t.elapsed());
        for table in &tables {
            rendered.push_str(&format!("{table}\n"));
        }
    }
    let driver_replays = kernel_replays() - driver_replays;
    if driver_replays != planned_replays {
        layers.errors.push(format!(
            "the experiment drivers made {driver_replays} GPU kernel replays, stage 2 made {planned_replays}"
        ));
    }
    let pb_restored = Registry::global().counter("store.sweep_restored") - pb_restored;
    if pb_restored != journaled.len() as u64 {
        layers.errors.push(format!(
            "the PB driver restored {pb_restored} responses from its journal, stage 2 expected {}",
            journaled.len()
        ));
    }
    Ok(Some(rendered))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("studybench: {e}");
            std::process::exit(2);
        }
    };
    let mut session = StudySession::new(JOBS);
    let store = args.store.as_ref().map(|dir| match TraceStore::open(dir) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("studybench: cannot open store {}: {e}", dir.display());
            std::process::exit(1);
        }
    });
    if let Some(s) = &store {
        session.attach_store(Arc::clone(s));
    }

    let mut layers = Layers::default();
    let t0 = Instant::now();
    let rendered = match traced_pass(&args, &session, &mut layers) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("studybench: {e}");
            std::process::exit(1);
        }
    };
    let traced_wall = t0.elapsed().as_secs_f64();
    if let (Some(path), Some(rendered)) = (&args.tables_out, &rendered) {
        if let Err(e) = std::fs::write(path, rendered) {
            eprintln!("studybench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    // The experiment stage must have found every capture warm: a
    // capture made there would mean the warm-up missed a key the
    // drivers use, and its time would be booked to the wrong layer.
    let cache = session.cache();
    let cpu_cache = session.cpu_cache();
    let mut errors: Vec<Json> = layers.errors.drain(..).map(Json::from).collect();
    if cache.captures() != layers.gpu_capture.times.len() as u64
        || cache.restores() != layers.gpu_restore.times.len() as u64
    {
        errors.push(Json::from(format!(
            "experiment drivers made GPU captures the warm-up missed: cache {}+{} vs timed {}+{}",
            cache.captures(),
            cache.restores(),
            layers.gpu_capture.times.len(),
            layers.gpu_restore.times.len()
        )));
    }
    if cpu_cache.captures() != layers.cpu_capture.times.len() as u64
        || cpu_cache.restores() != layers.cpu_restore.times.len() as u64
    {
        errors.push(Json::from(
            "experiment drivers made CPU captures the warm-up missed",
        ));
    }

    for c in [
        &mut layers.gpu_capture,
        &mut layers.gpu_restore,
        &mut layers.gpu_replay,
        &mut layers.cpu_capture,
        &mut layers.cpu_restore,
        &mut layers.cpu_replay,
        &mut layers.analysis,
    ] {
        c.settle();
    }
    let e = &layers.engine;
    let mut m: Vec<(String, f64)> = vec![
        ("gpu_capture.calls".into(), layers.gpu_capture.count()),
        ("gpu_capture.s".into(), layers.gpu_capture.secs()),
        (
            "gpu_capture.trace_bytes".into(),
            layers.gpu_trace_bytes as f64,
        ),
        ("gpu_replay.calls".into(), layers.gpu_replay.count()),
        ("gpu_replay.s".into(), layers.gpu_replay.secs()),
        (
            "gpu_replay.p50_ms".into(),
            layers.gpu_replay.percentile_ms(50.0),
        ),
        (
            "gpu_replay.p99_ms".into(),
            layers.gpu_replay.percentile_ms(99.0),
        ),
        ("gpu_replay.warp_insts".into(), layers.warp_insts as f64),
        ("gpu_replay.sim_cycles".into(), layers.sim_cycles as f64),
        (
            "gpu_replay.ns_per_warp_inst".into(),
            layers.gpu_replay.ns_per(layers.warp_insts),
        ),
        ("cpu_capture.calls".into(), layers.cpu_capture.count()),
        ("cpu_capture.s".into(), layers.cpu_capture.secs()),
        ("cpu_capture.words".into(), layers.cpu_words as f64),
        ("cpu_replay.calls".into(), layers.cpu_replay.count()),
        ("cpu_replay.s".into(), layers.cpu_replay.secs()),
        ("cpu_replay.refs".into(), layers.refs as f64),
        (
            "cpu_replay.ns_per_ref".into(),
            layers.cpu_replay.ns_per(layers.refs),
        ),
        ("trace_cache.gpu_captures".into(), cache.captures() as f64),
        ("trace_cache.gpu_restores".into(), cache.restores() as f64),
        (
            "trace_cache.cpu_captures".into(),
            cpu_cache.captures() as f64,
        ),
        (
            "trace_cache.cpu_restores".into(),
            cpu_cache.restores() as f64,
        ),
        ("store.gpu_restore_s".into(), layers.gpu_restore.secs()),
        ("store.cpu_restore_s".into(), layers.cpu_restore.secs()),
        (
            "store.bytes".into(),
            store.as_ref().map_or(0.0, |s| s.total_bytes() as f64),
        ),
        (
            "store.entries".into(),
            store.as_ref().map_or(0.0, |s| s.entry_count() as f64),
        ),
        (
            "store.quarantined".into(),
            store.as_ref().map_or(0.0, |s| s.quarantined_count() as f64),
        ),
        ("engine.jobs".into(), e.jobs as f64),
        ("engine.busy_s".into(), e.busy),
        ("engine.wait_s".into(), e.capacity - e.busy),
        (
            "engine.utilization".into(),
            e.busy / e.capacity.max(f64::MIN_POSITIVE),
        ),
        ("engine.tail_s".into(), e.tail),
        ("analysis.calls".into(), layers.analysis.count()),
        ("analysis.s".into(), layers.analysis.secs()),
        ("traced_wall_s".into(), traced_wall),
    ];
    for id in ExperimentId::all() {
        let calls = layers.experiments.entry(id.name()).or_default();
        calls.settle();
        m.push((format!("experiment.{}.s", id.name()), calls.secs()));
    }
    let doc = Json::obj(vec![
        (
            "metrics",
            Json::Obj(m.into_iter().map(|(k, v)| (k, Json::from(v))).collect()),
        ),
        ("errors", Json::from(errors)),
    ]);
    println!("{doc}");
}
