//! Correctness checks on what the program returns. A failed check marks its
//! operation failed and makes the run incorrect.

/// Tally of a run's correctness checks.
#[derive(Debug, Default)]
pub struct Checks {
    problems: Vec<String>,
    pub failed_ops: u64,
}

impl Checks {
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// Records a run-wide problem (one that belongs to no single operation).
    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
    }

    /// Records the outcome of one operation's checks.
    pub fn op(&mut self, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed_ops += 1;
            self.problems.extend(problems);
        }
    }
}

/// FNV-1a over the labels, the benchmark's own so a change to the program
/// cannot change how its answers are compared.
pub fn labels_hash(labels: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &l in labels {
        for b in l.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The identity of one returned partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Answer {
    pub labels: u64,
    pub q_bits: u64,
    pub len: usize,
}

impl Answer {
    pub fn of(labels: &[u32], q: f64) -> Self {
        Self { labels: labels_hash(labels), q_bits: q.to_bits(), len: labels.len() }
    }

    pub fn q(&self) -> f64 {
        f64::from_bits(self.q_bits)
    }
}

/// Problems with `got`, which must equal the first answer for the same input.
pub fn same_answer(what: &str, reference: &Answer, got: &Answer) -> Vec<String> {
    let mut out = Vec::new();
    if got.labels != reference.labels || got.len != reference.len {
        out.push(format!("{what}: labels differ from the first answer for this input"));
    }
    if got.q_bits != reference.q_bits {
        out.push(format!(
            "{what}: Q {} differs from the first answer's {}",
            got.q(),
            reference.q()
        ));
    }
    out
}

/// Problems with a first answer: partition length, and Q against the
/// modularity `recomputed` independently from the graph.
pub fn verify_answer(what: &str, n: usize, answer: &Answer, recomputed: f64) -> Vec<String> {
    let mut out = Vec::new();
    if answer.len != n {
        out.push(format!("{what}: partition has {} labels for {n} vertices", answer.len));
    }
    let agrees = (answer.q() - recomputed).abs() <= 1e-12; // false for NaN
    if !agrees {
        out.push(format!(
            "{what}: returned Q {} but cd_graph::modularity gives {recomputed}",
            answer.q()
        ));
    }
    out
}

/// Problem with the settle log: every admitted job must settle exactly once.
pub fn exactly_once(admitted: &[u64], settled: &[u64]) -> Option<String> {
    let mut a = admitted.to_vec();
    let mut s = settled.to_vec();
    a.sort_unstable();
    s.sort_unstable();
    (a != s).then(|| {
        format!(
            "{} jobs admitted but {} settlements recorded (lost or doubled jobs)",
            a.len(),
            s.len()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_a_flipped_label() {
        let labels = vec![0u32, 0, 1, 1, 2];
        let reference = Answer::of(&labels, 0.5);
        let mut flipped = labels.clone();
        flipped[3] = 0;
        assert!(same_answer("rep", &reference, &Answer::of(&labels, 0.5)).is_empty());
        assert_eq!(same_answer("rep", &reference, &Answer::of(&flipped, 0.5)).len(), 1);
    }

    #[test]
    fn rejects_a_changed_q_bit() {
        let labels = vec![0u32, 1];
        let reference = Answer::of(&labels, 0.5);
        let nudged = f64::from_bits(0.5f64.to_bits() ^ 1);
        assert_eq!(same_answer("rep", &reference, &Answer::of(&labels, nudged)).len(), 1);
        // The recomputation check catches a Q that drifted from the labels.
        assert!(verify_answer("first", 2, &reference, 0.5).is_empty());
        assert_eq!(verify_answer("first", 2, &reference, 0.5 + 1e-9).len(), 1);
        assert_eq!(verify_answer("first", 3, &reference, 0.5).len(), 1);
        assert_eq!(verify_answer("first", 2, &Answer::of(&labels, f64::NAN), 0.5).len(), 1);
    }

    #[test]
    fn rejects_a_lost_or_doubled_job() {
        assert!(exactly_once(&[1, 2, 3], &[3, 1, 2]).is_none());
        assert!(exactly_once(&[1, 2, 3], &[1, 2]).is_some(), "lost job");
        assert!(exactly_once(&[1, 2, 3], &[1, 2, 3, 3]).is_some(), "doubled job");
    }

    #[test]
    fn tally_counts_failed_operations() {
        let mut c = Checks::default();
        c.op(Vec::new());
        assert!(c.ok());
        c.op(vec!["x".into(), "y".into()]);
        assert_eq!((c.ok(), c.failed_ops, c.problems().len()), (false, 1, 2));
    }
}
