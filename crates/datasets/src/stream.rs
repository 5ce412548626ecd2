//! Streaming replay of the covid workload as timestamped ingest batches.
//!
//! The paper's evaluation treats the JHU panels as static snapshots; the
//! live feeds they came from are *streams* — each day appends one batch of
//! per-location reports, and corrections occasionally rewrite an earlier
//! report (a delete of the old tuple plus an insert of the fixed one, the
//! shape real JHU history rewrites take). [`CovidStream::replay`] slices a
//! simulated [`CovidCaseStudy`] panel into exactly that: a *warm* panel of
//! the first `warmup_days` days to register with the engine, followed by one
//! [`IngestBatch`] per remaining day.
//!
//! Each daily batch adds a new `day` path to the time hierarchy and (almost
//! always) no path to the geo hierarchy.

use crate::covid::CovidCaseStudy;
use reptile_relational::{IngestBatch, Relation, Value};
use std::sync::Arc;

/// Configuration of a covid stream replay.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Days included in the initial warm panel (clamped to at least 1 so
    /// the registered relation is never empty).
    pub warmup_days: usize,
    /// Emit a correction every `correction_every`-th batch (0 disables):
    /// the previous day's first report is deleted and re-inserted 10%
    /// higher, exercising the delete path of ingest.
    pub correction_every: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            warmup_days: 14,
            correction_every: 7,
        }
    }
}

/// One timestamped batch of the stream.
#[derive(Debug, Clone)]
pub struct StreamBatch {
    /// The day this batch lands (its inserts all carry this `day` value).
    pub day: i64,
    /// The row changes: the day's reports, plus an occasional correction
    /// rewriting a report of the previous day.
    pub batch: IngestBatch,
}

/// A covid panel replayed as a stream: the warm initial panel plus the
/// ordered daily batches that grow it to the full case study.
#[derive(Debug, Clone)]
pub struct CovidStream {
    /// The panel after `warmup_days` days — what gets registered with the
    /// engine before the stream starts.
    pub warm: Arc<Relation>,
    /// The remaining days as ordered ingest batches.
    pub batches: Vec<StreamBatch>,
}

impl CovidStream {
    /// Slice `case_study`'s clean panel into a warm prefix and per-day
    /// batches according to `config`.
    pub fn replay(case_study: &CovidCaseStudy, config: StreamConfig) -> CovidStream {
        let schema = &case_study.schema;
        let relation = &case_study.clean;
        let day_attr = schema.attr("day").expect("covid schema has a day level");
        let days = case_study.config().days as i64;
        let warmup = config.warmup_days.max(1) as i64;

        let rows_of_day = |day: i64| -> Vec<Vec<Value>> {
            relation
                .filter_indices(|r| relation.value(r, day_attr) == &Value::int(day))
                .into_iter()
                .map(|r| relation.row(r))
                .collect()
        };

        let mut warm = Relation::empty(schema.clone());
        for day in 0..warmup.min(days) {
            for row in rows_of_day(day) {
                warm.push_row(row).expect("row matches schema");
            }
        }

        let mut batches = Vec::new();
        for day in warmup..days {
            let mut batch = IngestBatch::new();
            let mut corrected_rows = Vec::new();
            let is_correction_day = config.correction_every > 0
                && (day - warmup) % config.correction_every as i64
                    == config.correction_every as i64 - 1;
            if is_correction_day {
                // Rewrite the previous day's first report 10% higher.
                if let Some(old) = rows_of_day(day - 1).into_iter().next() {
                    let mut fixed = old.clone();
                    let measure = schema.attr("confirmed").expect("covid measure");
                    let v = fixed[measure.index()].as_f64_or_zero();
                    fixed[measure.index()] = Value::float((v * 1.1).round());
                    batch.push_delete(old);
                    corrected_rows.push(fixed);
                }
            }
            for row in rows_of_day(day).into_iter().chain(corrected_rows) {
                batch.push_insert(row);
            }
            batches.push(StreamBatch { day, batch });
        }
        CovidStream {
            warm: Arc::new(warm),
            batches,
        }
    }

    /// Total number of row changes across all batches.
    pub fn total_changes(&self) -> usize {
        self.batches.iter().map(|b| b.batch.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covid::{CovidCaseStudy, CovidConfig};

    fn case_study() -> CovidCaseStudy {
        CovidCaseStudy::us(CovidConfig {
            locations: 4,
            sub_locations: 2,
            days: 12,
            seed: 7,
        })
    }

    #[test]
    fn replay_partitions_the_panel_by_day() {
        let cs = case_study();
        let stream = CovidStream::replay(
            &cs,
            StreamConfig {
                warmup_days: 5,
                correction_every: 0,
            },
        );
        assert_eq!(stream.warm.len(), 4 * 2 * 5);
        assert_eq!(stream.batches.len(), 12 - 5);
        // Applying every batch reproduces the full panel row count.
        let mut rel = (*stream.warm).clone();
        for sb in &stream.batches {
            assert!(sb.batch.deletes().is_empty());
            rel = rel.apply(&sb.batch).unwrap();
        }
        assert_eq!(rel.len(), cs.clean.len());
        assert_eq!(stream.total_changes(), cs.clean.len() - stream.warm.len());
    }

    #[test]
    fn corrections_delete_and_reinsert() {
        let cs = case_study();
        let stream = CovidStream::replay(
            &cs,
            StreamConfig {
                warmup_days: 5,
                correction_every: 3,
            },
        );
        let with_deletes: Vec<&StreamBatch> = stream
            .batches
            .iter()
            .filter(|b| !b.batch.deletes().is_empty())
            .collect();
        assert!(!with_deletes.is_empty());
        for sb in &with_deletes {
            assert_eq!(sb.batch.deletes().len(), 1);
            // the correction re-inserts a row for the *previous* day
            let day_attr = cs.schema.attr("day").unwrap();
            assert!(sb
                .batch
                .inserts()
                .iter()
                .any(|row| row[day_attr.index()] == Value::int(sb.day - 1)));
        }
        // Deletes still apply cleanly in sequence.
        let mut rel = (*stream.warm).clone();
        for sb in &stream.batches {
            rel = rel.apply(&sb.batch).unwrap();
        }
        assert_eq!(rel.len(), cs.clean.len());
    }

    #[test]
    fn warmup_is_clamped_to_one_day() {
        let cs = case_study();
        let stream = CovidStream::replay(
            &cs,
            StreamConfig {
                warmup_days: 0,
                correction_every: 0,
            },
        );
        assert_eq!(stream.warm.len(), 4 * 2);
        assert_eq!(stream.batches.len(), 11);
    }
}
