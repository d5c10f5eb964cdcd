//! The typed request API: one [`StudyRequest`] → [`StudyResponse`]
//! pipeline behind the `repro` CLI.
//!
//! The CLI argument parser lowers into a [`StudyRequest`]; [`execute`]
//! is the single implementation of "run a study" — journal restore,
//! corpus profiling, per-experiment checkpointing, and the
//! deterministic study-manifest write all live here.
//!
//! Worker widths are not part of a request: the caller sizes the
//! [`StudySession`] it passes in. Results are byte-identical at any
//! width of either pool (`jobs` parallelizes across replays,
//! `sim_threads` shards the SMs inside one — see
//! `rodinia_study::engine`), so neither enters
//! [`StudyRequest::study_key`].

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use datasets::Scale;
use obs::Json;
use store::{fnv1a64, Journal};

use crate::analyze::{run_analyze, AnalyzeReport};
use crate::audit::{run_audit, AuditReport};
use crate::check::{run_check, CheckReport};
use crate::comparison::ComparisonStudy;
use crate::engine::StudySession;
use crate::error::StudyError;
use crate::experiments::{run_comparison, run_gpu, ExperimentId};
use crate::manifest;
use crate::report::Table;

/// Process exit code for request misuse (bad flags, unknown artifacts,
/// `--resume` without `--store`), matching UNIX convention.
pub const EXIT_MISUSE: i32 = 2;

/// What a request asks the study engine to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyCommand {
    /// Regenerate paper artifacts (`repro fig1 table3 ...`).
    Tables {
        /// The requested artifacts, in request order.
        artifacts: Vec<ExperimentId>,
    },
    /// Run the sanitizer over the whole suite (`repro check`).
    Check,
    /// Prove symbolic access contracts over the whole suite
    /// (`repro audit`).
    Audit,
    /// Critical-path attribution across the suite (`repro analyze`).
    Analyze {
        /// Per-benchmark bottleneck chain depth.
        top_k: usize,
    },
}

/// One fully-typed study request, front-end agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyRequest {
    /// What to run.
    pub command: StudyCommand,
    /// Input scale.
    pub scale: Scale,
    /// Persistent store directory the caller asked for, if any. Only
    /// meaningful on the CLI path; [`execute`] itself uses whatever
    /// store is attached to the session.
    pub store: Option<PathBuf>,
    /// Replay the study journal before running (requires `store`).
    pub resume: bool,
}

/// Request-level misuse: everything here exits with [`EXIT_MISUSE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// `--resume` given without `--store`.
    ResumeWithoutStore,
    /// A tables request naming no artifacts.
    NoArtifacts,
    /// An analyze request with a zero bottleneck depth.
    ZeroTopK,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::ResumeWithoutStore => write!(f, "--resume requires --store <dir>"),
            RequestError::NoArtifacts => write!(f, "no artifacts requested; try `repro list`"),
            RequestError::ZeroTopK => write!(f, "top_k must be at least 1"),
        }
    }
}

impl std::error::Error for RequestError {}

/// Parses a scale token (`tiny`/`small`/`paper`, the same words the
/// CLI accepts as positionals).
pub fn parse_scale(s: &str) -> Option<Scale> {
    match s {
        "tiny" => Some(Scale::Tiny),
        "small" => Some(Scale::Small),
        "paper" => Some(Scale::Paper),
        _ => None,
    }
}

impl StudyRequest {
    /// A plain tables request with defaults everywhere else.
    pub fn tables(artifacts: Vec<ExperimentId>, scale: Scale) -> StudyRequest {
        StudyRequest {
            command: StudyCommand::Tables { artifacts },
            scale,
            store: None,
            resume: false,
        }
    }

    /// Checks cross-field invariants. Every violation is misuse
    /// ([`EXIT_MISUSE`]).
    ///
    /// # Errors
    ///
    /// [`RequestError`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), RequestError> {
        if self.resume && self.store.is_none() {
            return Err(RequestError::ResumeWithoutStore);
        }
        match &self.command {
            StudyCommand::Tables { artifacts } if artifacts.is_empty() => {
                Err(RequestError::NoArtifacts)
            }
            StudyCommand::Analyze { top_k } if *top_k == 0 => {
                Err(RequestError::ZeroTopK)
            }
            _ => Ok(()),
        }
    }

    /// The canonical identity of this request: what the study journal
    /// binds to. `store`/`resume` are excluded — they are durability
    /// knobs, not study inputs.
    pub fn study_key(&self) -> String {
        match &self.command {
            StudyCommand::Tables { artifacts } => format!(
                "repro/{:?}/{}",
                self.scale,
                artifacts.iter().map(|id| id.name()).collect::<Vec<_>>().join("+")
            ),
            StudyCommand::Check => format!("check/{:?}", self.scale),
            StudyCommand::Audit => format!("audit/{:?}", self.scale),
            StudyCommand::Analyze { top_k } => format!("analyze/{:?}/k{top_k}", self.scale),
        }
    }
}

/// What [`execute`] produced, carrying the typed reports for the
/// caller to render.
#[derive(Debug)]
pub enum StudyResponse {
    /// A tables run: every requested artifact with its rendered tables,
    /// in request order.
    Tables {
        /// `(artifact name, tables)` per completed experiment.
        completed: Vec<(String, Vec<Table>)>,
    },
    /// A sanitizer run.
    Check(CheckReport),
    /// An access-contract audit run.
    Audit(AuditReport),
    /// A critical-path attribution run.
    Analyze(AnalyzeReport),
}

impl StudyResponse {
    /// The CLI exit code this result maps to: nonzero only for a check
    /// or audit run with error-severity findings.
    pub fn exit_code(&self) -> i32 {
        match self {
            StudyResponse::Check(report) => i32::from(report.error_count() > 0),
            StudyResponse::Audit(report) => i32::from(report.error_count() > 0),
            _ => 0,
        }
    }
}

/// Progress callbacks during [`execute`]: the CLI prints tables and
/// accumulates its run manifest here; tests stay [`Quiet`].
pub trait RequestObserver {
    /// A human-facing progress or warning line (CLI: stderr).
    fn note(&mut self, line: &str) {
        let _ = line;
    }

    /// One experiment finished (freshly computed or journal-restored)
    /// with its rendered tables and wall-clock duration.
    fn experiment_done(&mut self, id: &str, tables: &[Table], wall_us: u64, restored: bool) {
        let _ = (id, tables, wall_us, restored);
    }
}

/// The no-op observer.
#[derive(Debug, Default)]
pub struct Quiet;

impl RequestObserver for Quiet {}

/// Embeds a check/audit verdict as a named section of the store's
/// `STUDY_manifest.json`, so the study manifest carries sanitizer
/// status alongside the tables.
///
/// An existing manifest is updated in place — its experiments survive,
/// only the named section is replaced — so a `check` after a tables
/// run augments rather than clobbers. Without a store this is a no-op;
/// a write failure costs the artifact, never the response.
fn write_verdict_section(
    session: &StudySession,
    scale: Scale,
    name: &str,
    payload: Json,
    observer: &mut dyn RequestObserver,
) {
    let Some(s) = session.store() else { return };
    let doc = match std::fs::read_to_string(s.dir().join(manifest::STUDY_MANIFEST_FILE))
        .ok()
        .and_then(|text| Json::parse(&text).ok())
    {
        Some(Json::Obj(mut pairs)) => {
            match pairs.iter_mut().find(|(k, _)| k == name) {
                Some(p) => p.1 = payload,
                None => pairs.push((name.to_string(), payload)),
            }
            Json::Obj(pairs)
        }
        _ => manifest::study_manifest_json_with_sections(
            scale,
            &[],
            &[(name.to_string(), payload)],
        ),
    };
    match manifest::write_manifest(s.dir(), manifest::ManifestKind::Study, &doc) {
        Ok(path) => observer.note(&format!("wrote study manifest {}", path.display())),
        Err(e) => observer.note(&format!("store: {e}")),
    }
}

/// Runs a validated [`StudyRequest`] on `session`.
///
/// For tables requests this owns the full study lifecycle: the study
/// journal is opened against [`StudyRequest::study_key`] (restoring
/// completed experiments when `resume` is set), the comparison corpus
/// is profiled once if any requested artifact needs it, every freshly
/// computed experiment is checkpointed, and — when the session has a
/// store attached — the deterministic `STUDY_manifest.json` is written
/// next to it.
///
/// # Errors
///
/// Any [`StudyError`] from the drivers; the caller decides how to
/// render it (the CLI exits 1).
pub fn execute(
    session: &StudySession,
    req: &StudyRequest,
    observer: &mut dyn RequestObserver,
) -> Result<StudyResponse, StudyError> {
    let artifacts = match &req.command {
        StudyCommand::Check => {
            let report = run_check(session, req.scale)?;
            write_verdict_section(session, req.scale, "check", report.manifest_section(), observer);
            return Ok(StudyResponse::Check(report));
        }
        StudyCommand::Audit => {
            let report = run_audit(session, req.scale)?;
            write_verdict_section(session, req.scale, "audit", report.manifest_section(), observer);
            return Ok(StudyResponse::Audit(report));
        }
        StudyCommand::Analyze { top_k } => {
            return run_analyze(session, req.scale, *top_k).map(StudyResponse::Analyze)
        }
        StudyCommand::Tables { artifacts } => artifacts,
    };
    // The study journal checkpoints whole experiments (id + rendered
    // tables). With resume, completed experiments restore from it and
    // skip recomputation entirely; the sweep-level journal inside the
    // sensitivity driver resumes partially-finished experiments.
    let study_key = req.study_key();
    let mut restored: HashMap<&'static str, Vec<Table>> = HashMap::new();
    let journal = session.store().and_then(|s| {
        let name = format!("study-{:016x}.journal", fnv1a64(study_key.as_bytes()));
        match Journal::open(&s.journal_path(&name), &study_key, req.resume) {
            Ok((j, records)) => {
                for r in records {
                    let Some(id) = r.get("id").and_then(Json::as_str) else { continue };
                    let Some(doc) = r.get("tables").and_then(Json::as_arr) else { continue };
                    let Some(tables) = doc
                        .iter()
                        .map(manifest::table_from_json)
                        .collect::<Option<Vec<_>>>()
                    else {
                        continue;
                    };
                    if let Some(&known) = artifacts.iter().find(|k| k.name() == id) {
                        restored.insert(known.name(), tables);
                    }
                }
                Some(j)
            }
            Err(e) => {
                observer.note(&format!(
                    "store: study journal unavailable ({e}); running without experiment checkpoints"
                ));
                None
            }
        }
    });
    let corpus = if artifacts
        .iter()
        .any(|&id| id.needs_corpus() && !restored.contains_key(id.name()))
    {
        observer.note("profiling the 24-workload comparison corpus ...");
        Some(ComparisonStudy::run(session, req.scale)?)
    } else {
        None
    };
    let mut completed: Vec<(String, Vec<Table>)> = Vec::new();
    for &id in artifacts {
        let start = Instant::now();
        let (tables, was_restored) = if let Some(t) = restored.remove(id.name()) {
            observer.note(&format!("{}: restored from study journal", id.name()));
            (t, true)
        } else {
            let tables = if id.needs_corpus() {
                run_comparison(id, corpus.as_ref().expect("corpus built"))?
            } else {
                run_gpu(session, id, req.scale)?
            };
            if let Some(j) = &journal {
                let record = Json::obj(vec![
                    ("id", Json::from(id.name())),
                    (
                        "tables",
                        Json::from(tables.iter().map(manifest::table_to_json).collect::<Vec<_>>()),
                    ),
                ]);
                if let Err(e) = j.append(&record) {
                    observer.note(&format!("store: cannot checkpoint {}: {e}", id.name()));
                }
            }
            (tables, false)
        };
        observer.experiment_done(id.name(), &tables, start.elapsed().as_micros() as u64, was_restored);
        completed.push((id.name().to_string(), tables));
    }
    // The deterministic study manifest rides along with the store: pure
    // tables, no timings, so an interrupted-and-resumed run's file is
    // byte-identical to an uninterrupted one (the CI crash-recovery
    // gate diffs exactly this). A write failure costs the artifact,
    // never the response.
    if let Some(s) = session.store() {
        match manifest::write_study_manifest(s.dir(), req.scale, &completed) {
            Ok(path) => observer.note(&format!("wrote study manifest {}", path.display())),
            Err(e) => observer.note(&format!("store: {e}")),
        }
    }
    Ok(StudyResponse::Tables { completed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_without_store_is_misuse() {
        let mut req = StudyRequest::tables(vec![ExperimentId::Fig1], Scale::Tiny);
        req.resume = true;
        assert_eq!(req.validate(), Err(RequestError::ResumeWithoutStore));
        assert!(RequestError::ResumeWithoutStore
            .to_string()
            .contains("--resume requires --store"));
        req.store = Some(PathBuf::from("/tmp/store"));
        assert_eq!(req.validate(), Ok(()));
    }

    #[test]
    fn empty_artifact_list_is_misuse() {
        let req = StudyRequest::tables(Vec::new(), Scale::Small);
        assert_eq!(req.validate(), Err(RequestError::NoArtifacts));
    }

    #[test]
    fn study_key_spells_artifacts_and_ignores_the_store() {
        let mut req =
            StudyRequest::tables(vec![ExperimentId::PlackettBurman, ExperimentId::Fig1], Scale::Tiny);
        assert_eq!(req.study_key(), "repro/Tiny/pb+fig1");
        req.store = Some(PathBuf::from("/tmp/store"));
        req.resume = true;
        assert_eq!(req.study_key(), "repro/Tiny/pb+fig1", "the store never changes identity");
        req.command = StudyCommand::Analyze { top_k: 5 };
        assert_eq!(req.study_key(), "analyze/Tiny/k5");
        req.command = StudyCommand::Check;
        assert_eq!(req.study_key(), "check/Tiny");
        req.command = StudyCommand::Audit;
        assert_eq!(req.study_key(), "audit/Tiny");
    }

    #[test]
    fn execute_tables_completes_artifacts_in_request_order() {
        let session = StudySession::sequential();
        let req = StudyRequest::tables(
            vec![ExperimentId::Table5, ExperimentId::Table1],
            Scale::Tiny,
        );
        let resp = execute(&session, &req, &mut Quiet).expect("cheap tables run");
        let StudyResponse::Tables { completed } = &resp else {
            panic!("tables request returns a tables response");
        };
        let ids: Vec<&str> = completed.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["table5", "table1"]);
        assert!(completed.iter().all(|(_, tables)| !tables.is_empty()));
        assert_eq!(resp.exit_code(), 0);
    }
}
