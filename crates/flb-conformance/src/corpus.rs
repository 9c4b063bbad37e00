//! Replayable counterexample corpus: the `.flb` file format.
//!
//! A `.flb` file is self-describing and line-oriented:
//!
//! ```text
//! # flb-conformance counterexample
//! # check: greedy-oracle
//! # scheduler: broken-flb
//! # detail: step 1: picked t2 on p1 ...
//! procs 2
//! speeds 1 1
//! name shrunk
//! t 3
//! t 1
//! e 0 1 5
//! ```
//!
//! The graph body is exactly [`flb_graph::serialize`]'s text format; the
//! `procs`/`speeds` lines describe the machine; the header comments record
//! which check originally failed and why. Replaying a file runs the *full*
//! standard suite on its instance — the recorded check/scheduler are
//! provenance metadata, not a restriction — so the corpus keeps guarding
//! every oracle as the codebase evolves.

use crate::{run_suite, Instance, Violation};
use flb_graph::serialize;
use flb_sched::{Machine, ProcId};
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A counterexample: the instance plus the provenance of its discovery.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The (typically shrunk) failing instance.
    pub instance: Instance,
    /// Check that failed when it was found.
    pub check: String,
    /// Scheduler that failed it (`"-"` for scheduler-independent checks).
    pub scheduler: String,
    /// Human-readable description of the original failure.
    pub detail: String,
}

/// Errors from reading a corpus file.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem failure.
    Io(io::Error),
    /// A `procs`/`speeds` line or the graph body failed to parse.
    Malformed(String),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "io: {e}"),
            CorpusError::Malformed(m) => write!(f, "malformed corpus file: {m}"),
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<io::Error> for CorpusError {
    fn from(e: io::Error) -> Self {
        CorpusError::Io(e)
    }
}

impl Counterexample {
    /// Wraps a violation found on `inst` into a corpus record.
    #[must_use]
    pub fn from_violation(inst: &Instance, v: &Violation) -> Self {
        Counterexample {
            instance: inst.clone(),
            check: v.check.clone(),
            scheduler: v.scheduler.clone(),
            detail: v.detail.clone(),
        }
    }

    /// Serialises to the `.flb` text format.
    #[must_use]
    pub fn to_flb(&self) -> String {
        let mut out = String::new();
        out.push_str("# flb-conformance counterexample\n");
        writeln!(out, "# check: {}", self.check).expect("write to string");
        writeln!(out, "# scheduler: {}", self.scheduler).expect("write to string");
        // Keep the header one line per field: newlines would corrupt it.
        let detail = self.detail.replace('\n', " ");
        writeln!(out, "# detail: {detail}").expect("write to string");
        let m = &self.instance.machine;
        writeln!(out, "procs {}", m.num_procs()).expect("write to string");
        let speeds: Vec<String> = (0..m.num_procs())
            .map(|p| m.slowdown(ProcId(p)).to_string())
            .collect();
        writeln!(out, "speeds {}", speeds.join(" ")).expect("write to string");
        out.push_str(&serialize::to_text(&self.instance.graph));
        out
    }

    /// Parses the `.flb` text format.
    pub fn from_flb(text: &str) -> Result<Self, CorpusError> {
        let mut check = String::from("?");
        let mut scheduler = String::from("-");
        let mut detail = String::new();
        let mut procs: Option<usize> = None;
        let mut speeds: Option<Vec<u64>> = None;
        let mut graph_lines = String::new();

        for raw in text.lines() {
            let line = raw.trim();
            if let Some(rest) = line.strip_prefix('#') {
                let rest = rest.trim();
                if let Some(v) = rest.strip_prefix("check:") {
                    check = v.trim().to_owned();
                } else if let Some(v) = rest.strip_prefix("scheduler:") {
                    scheduler = v.trim().to_owned();
                } else if let Some(v) = rest.strip_prefix("detail:") {
                    detail = v.trim().to_owned();
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix("procs ") {
                procs = Some(
                    rest.trim()
                        .parse()
                        .map_err(|_| CorpusError::Malformed(format!("bad procs line {line:?}")))?,
                );
                continue;
            }
            if let Some(rest) = line.strip_prefix("speeds ") {
                let parsed: Result<Vec<u64>, _> =
                    rest.split_ascii_whitespace().map(str::parse).collect();
                speeds =
                    Some(parsed.map_err(|_| {
                        CorpusError::Malformed(format!("bad speeds line {line:?}"))
                    })?);
                continue;
            }
            graph_lines.push_str(raw);
            graph_lines.push('\n');
        }

        let procs = procs.ok_or_else(|| CorpusError::Malformed("missing `procs` line".into()))?;
        let machine = match speeds {
            Some(s) => {
                if s.len() != procs {
                    return Err(CorpusError::Malformed(format!(
                        "speeds lists {} processors, procs says {procs}",
                        s.len()
                    )));
                }
                Machine::related(s)
            }
            None => Machine::new(procs),
        };
        let graph = serialize::parse_text(&graph_lines)
            .map_err(|e| CorpusError::Malformed(e.to_string()))?;
        Ok(Counterexample {
            instance: Instance::new(graph, machine),
            check,
            scheduler,
            detail,
        })
    }

    /// Deterministic file name: check, scheduler, size, content hash.
    #[must_use]
    pub fn file_name(&self) -> String {
        // FNV-1a over the serialised body keeps names stable across runs.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_flb().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!(
            "{}-{}-v{}p{}-{:08x}.flb",
            self.check.replace(['/', ' '], "_"),
            self.scheduler.replace(['/', ' '], "_"),
            self.instance.graph.num_tasks(),
            self.instance.machine.num_procs(),
            h as u32
        )
    }

    /// Writes the counterexample into `dir` (created if missing), returning
    /// the path.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        fs::write(&path, self.to_flb())?;
        Ok(path)
    }

    /// Loads a counterexample from a `.flb` file.
    pub fn load(path: &Path) -> Result<Self, CorpusError> {
        Self::from_flb(&fs::read_to_string(path)?)
    }

    /// Replays the instance through the full standard suite. Violations
    /// mean the regression is back (or was never fixed).
    #[must_use]
    pub fn replay(&self) -> Vec<Violation> {
        run_suite(&self.instance)
    }
}

/// Replays every `.flb` file in `dir` (non-recursive), returning per-file
/// violations. Missing directories replay an empty corpus.
pub fn replay_dir(dir: &Path) -> Result<Vec<(PathBuf, Vec<Violation>)>, CorpusError> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "flb"))
        .collect();
    paths.sort();
    for path in paths {
        let ce = Counterexample::load(&path)?;
        let violations = ce.replay();
        out.push((path, violations));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flb_graph::paper::fig1;

    fn sample() -> Counterexample {
        Counterexample {
            instance: Instance::new(fig1(), Machine::related(vec![1, 2])),
            check: "greedy-oracle".into(),
            scheduler: "broken-flb".into(),
            detail: "step 1: diverged\nacross lines".into(),
        }
    }

    #[test]
    fn flb_roundtrip_preserves_everything() {
        let ce = sample();
        let text = ce.to_flb();
        let back = Counterexample::from_flb(&text).unwrap();
        assert_eq!(back.check, "greedy-oracle");
        assert_eq!(back.scheduler, "broken-flb");
        assert_eq!(back.detail, "step 1: diverged across lines");
        assert_eq!(back.instance.machine, ce.instance.machine);
        let (g, h) = (&ce.instance.graph, &back.instance.graph);
        assert_eq!(g.num_tasks(), h.num_tasks());
        assert_eq!(g.num_edges(), h.num_edges());
        for t in g.tasks() {
            assert_eq!(g.comp(t), h.comp(t));
            assert!(g.succs(t).eq(h.succs(t)));
        }
    }

    #[test]
    fn file_name_is_deterministic_and_descriptive() {
        let ce = sample();
        assert_eq!(ce.file_name(), ce.file_name());
        assert!(ce.file_name().starts_with("greedy-oracle-broken-flb-v8p2-"));
        assert!(ce.file_name().ends_with(".flb"));
    }

    #[test]
    fn missing_procs_line_is_rejected() {
        assert!(matches!(
            Counterexample::from_flb("t 1\n"),
            Err(CorpusError::Malformed(_))
        ));
        assert!(matches!(
            Counterexample::from_flb("procs 2\nspeeds 1\nt 1\n"),
            Err(CorpusError::Malformed(_))
        ));
    }

    #[test]
    fn replay_dir_handles_missing_directory() {
        let out = replay_dir(Path::new("/nonexistent/flb-corpus")).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn save_load_replay_roundtrip() {
        let dir = std::env::temp_dir().join("flb-conformance-corpus-test");
        let _ = fs::remove_dir_all(&dir);
        let ce = sample();
        let path = ce.save(&dir).unwrap();
        let back = Counterexample::load(&path).unwrap();
        // fig1 on a related machine passes the whole suite.
        assert!(back.replay().is_empty());
        let replayed = replay_dir(&dir).unwrap();
        assert_eq!(replayed.len(), 1);
        assert!(replayed[0].1.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
