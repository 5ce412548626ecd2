//! The benchmark's input: a seeded wiki-traffic panel.
//!
//! Shaped after DYCHEM's `get_agg_data` (language × access × agent × page
//! series per day): hierarchy `site` = language → access → agent → page,
//! hierarchy `time` = week → day, one integer-valued measure `views`.
//! Every axis is a field of [`Shape`], so a panel can be resized without
//! touching the generator; the two shapes the workloads use are [`LONG`]
//! (few groups, many rows per group) and [`WIDE`] (many groups, two rows
//! per group).
//!
//! The seed plants the paper's two error classes — a (language, access,
//! agent, week) subtree whose `views` drop 60 % (systematic value error)
//! and one with half of its pages' rows missing — at seeded positions, and
//! perturbs every cell, so two seeds give two different panels of the same
//! shape and cost.
//!
//! Rows are time-major (day by day, as a feed would append them), site path
//! order within a day.

use reptile_relational::{IngestBatch, Relation, Schema, Value};
use std::sync::Arc;

/// splitmix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`label`), so adding a draw to
    /// one part of the generator never shifts another part's inputs.
    pub fn fork(seed: u64, label: u64) -> Self {
        let mut rng = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Samples ranks `0..n` with probability ∝ 1 / (rank + 1)^s.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty Zipf domain");
        let u = rng.uniform() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// Axis sizes of a panel. `pages` is per (language, access, agent) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub name: &'static str,
    pub languages: usize,
    pub accesses: usize,
    pub agents: usize,
    pub pages: usize,
    pub weeks: usize,
    pub days: usize,
}

/// 6×3×2×150 pages × 12 weeks × 7 days: 453,600 cells.
pub const LONG: Shape = Shape {
    name: "long",
    languages: 6,
    accesses: 3,
    agents: 2,
    pages: 150,
    weeks: 12,
    days: 7,
};

/// 6×3×2×1200 pages × 2 weeks × 2 days: 172,800 cells, 86,400 groups at
/// page × week level.
pub const WIDE: Shape = Shape {
    name: "wide",
    languages: 6,
    accesses: 3,
    agents: 2,
    pages: 1200,
    weeks: 2,
    days: 2,
};

impl Shape {
    /// Cells of the full cross product (before the missing-rows plant).
    pub fn cells(&self) -> usize {
        self.languages * self.accesses * self.agents * self.pages * self.weeks * self.days
    }

    /// Rows the missing-rows plant removes: half the pages of one
    /// (language, access, agent) cell, for every day of one week.
    pub fn missing_rows(&self) -> usize {
        (self.pages / 2) * self.days
    }

    /// Rows of a generated panel.
    pub fn rows(&self) -> usize {
        self.cells() - self.missing_rows()
    }

    /// Distinct (language, access, agent, week) drill paths.
    pub fn paths(&self) -> usize {
        self.languages * self.accesses * self.agents * self.weeks
    }

    pub fn describe(&self) -> String {
        format!(
            "{}x{}x{}x{} pages x {} weeks x {} days = {} rows",
            self.languages,
            self.accesses,
            self.agents,
            self.pages,
            self.weeks,
            self.days,
            self.rows()
        )
    }
}

/// One (language, access, agent, week) subtree, by axis index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subtree {
    pub language: usize,
    pub access: usize,
    pub agent: usize,
    pub week: usize,
}

const LANGUAGES: [&str; 6] = ["de", "en", "fr", "ja", "ru", "zh"];
const ACCESSES: [&str; 3] = ["AAC", "DES", "MOB"];
const AGENTS: [&str; 2] = ["AAG", "SPD"];

/// The share of `views` the value-error plant leaves.
const VALUE_ERROR_KEEP: f64 = 0.4;

/// Interned attribute values: every cell of a column clones one of these
/// `Arc`s instead of allocating its own string.
#[derive(Debug, Clone)]
pub struct Names {
    pub languages: Vec<Value>,
    /// `[language][access]`
    pub accesses: Vec<Vec<Value>>,
    /// `[language][access][agent]`
    pub agents: Vec<Vec<Vec<Value>>>,
    /// `[language][access][agent][page]`
    pub pages: Vec<Vec<Vec<Vec<Value>>>>,
    pub weeks: Vec<Value>,
    /// `[week][day]`
    pub days: Vec<Vec<Value>>,
}

fn axis_name(table: &[&str], index: usize) -> String {
    match table.get(index) {
        Some(name) => (*name).to_string(),
        None => format!("X{index:02}"),
    }
}

impl Names {
    fn new(shape: &Shape) -> Self {
        let mut names = Names {
            languages: Vec::new(),
            accesses: Vec::new(),
            agents: Vec::new(),
            pages: Vec::new(),
            weeks: Vec::new(),
            days: Vec::new(),
        };
        for l in 0..shape.languages {
            let language = axis_name(&LANGUAGES, l);
            names.languages.push(Value::str(&language));
            let mut accesses = Vec::new();
            let mut agents_of_access = Vec::new();
            let mut pages_of_access = Vec::new();
            for a in 0..shape.accesses {
                let access = format!("{language}.{}", axis_name(&ACCESSES, a));
                accesses.push(Value::str(&access));
                let mut agents = Vec::new();
                let mut pages_of_agent = Vec::new();
                for g in 0..shape.agents {
                    let agent = format!("{access}.{}", axis_name(&AGENTS, g));
                    agents.push(Value::str(&agent));
                    pages_of_agent.push(
                        (0..shape.pages)
                            .map(|p| Value::str(format!("{agent}.{:04}", p + 1)))
                            .collect(),
                    );
                }
                agents_of_access.push(agents);
                pages_of_access.push(pages_of_agent);
            }
            names.accesses.push(accesses);
            names.agents.push(agents_of_access);
            names.pages.push(pages_of_access);
        }
        for w in 0..shape.weeks {
            names.weeks.push(week_name(w));
            names
                .days
                .push((0..shape.days).map(|d| day_name(w, d)).collect());
        }
        names
    }
}

fn week_name(week: usize) -> Value {
    Value::str(format!("W{:02}", week + 1))
}

fn day_name(week: usize, day: usize) -> Value {
    Value::str(format!("W{:02}.D{}", week + 1, day + 1))
}

/// A generated panel and everything the workloads need to pose requests
/// against it.
#[derive(Debug, Clone)]
pub struct Panel {
    pub shape: Shape,
    pub seed: u64,
    pub schema: Arc<Schema>,
    pub relation: Arc<Relation>,
    pub names: Names,
    /// Subtree whose `views` were cut to 40 %.
    pub value_error: Subtree,
    /// Subtree with half of its pages' rows missing.
    pub missing: Subtree,
    missing_parity: usize,
    effects: Effects,
}

/// The panel's schema: two hierarchies and one measure.
pub fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::builder()
            .hierarchy("site", ["language", "access", "agent", "page"])
            .hierarchy("time", ["week", "day"])
            .measure("views")
            .build()
            .expect("panel schema is well-formed"),
    )
}

/// Per-axis multiplicative effects of one seed. Access and agent effects
/// stay within a few percent of 1 so that the 60 % plant, not a natural
/// level effect, is the largest deviation an analyst would see.
#[derive(Debug, Clone)]
struct Effects {
    language: Vec<f64>,
    access: Vec<f64>,
    agent: Vec<f64>,
    page: Vec<f64>,
    week: Vec<f64>,
    day: Vec<f64>,
}

impl Effects {
    fn new(shape: &Shape, seed: u64) -> Self {
        let mut rng = Rng::fork(seed, 1);
        let mut jitter = |base: f64, spread: f64| base * (1.0 + spread * (rng.uniform() - 0.5));
        Effects {
            language: (0..shape.languages)
                .map(|l| jitter(1.0 / (1.0 + 0.15 * l as f64), 0.04))
                .collect(),
            access: (0..shape.accesses)
                .map(|a| jitter(1.0 + 0.03 * (a as f64 - 1.0), 0.02))
                .collect(),
            agent: (0..shape.agents)
                .map(|g| jitter(1.0 - 0.03 * g as f64, 0.02))
                .collect(),
            page: (0..shape.pages)
                .map(|p| jitter(900.0 / (1.0 + p as f64).powf(0.35), 0.10))
                .collect(),
            week: (0..shape.weeks)
                .map(|w| jitter(1.0 + 0.004 * w as f64, 0.01))
                .collect(),
            day: (0..shape.days)
                .map(|d| jitter(if d >= 5 { 0.93 } else { 1.0 }, 0.02))
                .collect(),
        }
    }
}

impl Panel {
    /// Generate the panel of `shape` for `seed`.
    pub fn generate(shape: Shape, seed: u64) -> Panel {
        let schema = schema();
        let names = Names::new(&shape);
        let effects = Effects::new(&shape, seed);

        // Two plants on different languages and different weeks, so that the
        // complaint tuple of one never contains the other.
        let mut plant_rng = Rng::fork(seed, 2);
        let value_error = Subtree {
            language: plant_rng.below(shape.languages),
            access: plant_rng.below(shape.accesses),
            agent: plant_rng.below(shape.agents),
            week: plant_rng.below(shape.weeks),
        };
        let missing = Subtree {
            language: (value_error.language + 1 + plant_rng.below(shape.languages - 1))
                % shape.languages,
            access: plant_rng.below(shape.accesses),
            agent: plant_rng.below(shape.agents),
            week: (value_error.week + 1 + plant_rng.below(shape.weeks - 1)) % shape.weeks,
        };
        // The missing half: every other page, starting at a seeded parity.
        assert!(
            shape.pages.is_multiple_of(2),
            "half the pages: an even page count"
        );
        let missing_parity = plant_rng.below(2);

        let mut noise = Rng::fork(seed, 3);
        let mut relation = Relation::empty(schema.clone());
        for w in 0..shape.weeks {
            for d in 0..shape.days {
                for l in 0..shape.languages {
                    for a in 0..shape.accesses {
                        for g in 0..shape.agents {
                            let here = Subtree {
                                language: l,
                                access: a,
                                agent: g,
                                week: w,
                            };
                            let cell = effects.language[l]
                                * effects.access[a]
                                * effects.agent[g]
                                * effects.week[w]
                                * effects.day[d];
                            for p in 0..shape.pages {
                                // One draw per cell of the cross product,
                                // kept or not: the noise of every other cell
                                // is independent of the plants' positions.
                                let u = noise.uniform();
                                if here == missing && p % 2 == missing_parity {
                                    continue;
                                }
                                let mut views = cell * effects.page[p] * (0.94 + 0.12 * u);
                                if here == value_error {
                                    views *= VALUE_ERROR_KEEP;
                                }
                                relation
                                    .push_row(vec![
                                        names.languages[l].clone(),
                                        names.accesses[l][a].clone(),
                                        names.agents[l][a][g].clone(),
                                        names.pages[l][a][g][p].clone(),
                                        names.weeks[w].clone(),
                                        names.days[w][d].clone(),
                                        Value::int(views.round().max(1.0) as i64),
                                    ])
                                    .expect("row matches the panel schema");
                            }
                        }
                    }
                }
            }
        }
        Panel {
            shape,
            seed,
            schema,
            relation: Arc::new(relation),
            names,
            value_error,
            missing,
            missing_parity,
            effects,
        }
    }

    /// Whether the missing-rows plant removed `page` of `path`'s week.
    pub fn page_is_missing(&self, path: Subtree, page: usize) -> bool {
        path == self.missing && page % 2 == self.missing_parity
    }

    /// `(language, week)` key values of a subtree's top-level tuple.
    pub fn language_week(&self, language: usize, week: usize) -> Vec<Value> {
        vec![
            self.names.languages[language].clone(),
            self.names.weeks[week].clone(),
        ]
    }
}

/// Rows a correction batch deletes and re-inserts.
pub const CORRECTION_ROWS: usize = 50;

/// The seeded ingest feed of `ingest_refresh`: batches alternate between an
/// *append* (one language's pages for a new day — grows the `time` path
/// set) and a *correction* (delete + re-insert [`CORRECTION_ROWS`] rows of
/// the value-error subtree with their `views` repaired, or broken again on
/// later passes — the path set is unchanged).
#[derive(Debug, Clone)]
pub struct Feed {
    panel: Arc<Panel>,
    /// The value-error subtree's rows in relation order, with the `views`
    /// each currently holds and the value a correction swaps in.
    subtree: Vec<(Vec<Value>, i64, i64)>,
    batches: usize,
}

impl Feed {
    pub fn new(panel: &Arc<Panel>) -> Feed {
        let relation = &panel.relation;
        let plant = panel.value_error;
        let agent = &panel.names.agents[plant.language][plant.access][plant.agent];
        let week = &panel.names.weeks[plant.week];
        let attr = |name: &str| panel.schema.attr(name).expect("panel attribute");
        let (agent_attr, week_attr, views_attr) = (attr("agent"), attr("week"), attr("views"));
        let subtree = (0..relation.len())
            .filter(|&r| {
                relation.value(r, agent_attr) == agent && relation.value(r, week_attr) == week
            })
            .map(|r| {
                let broken = relation
                    .value(r, views_attr)
                    .as_i64()
                    .expect("integer views");
                let repaired = (broken as f64 / VALUE_ERROR_KEEP).round() as i64;
                (relation.row(r), broken, repaired)
            })
            .collect();
        Feed {
            panel: panel.clone(),
            subtree,
            batches: 0,
        }
    }

    /// The next batch: appends at even positions, corrections at odd ones.
    pub fn next_batch(&mut self) -> IngestBatch {
        let position = self.batches / 2;
        let append = self.batches.is_multiple_of(2);
        self.batches += 1;
        if append {
            self.append(position)
        } else {
            self.correction(position)
        }
    }

    fn append(&self, position: usize) -> IngestBatch {
        let (shape, names, effects) = (&self.panel.shape, &self.panel.names, &self.panel.effects);
        let l = position % shape.languages;
        let new_day = position / shape.languages;
        let (w, d) = (shape.weeks + new_day / shape.days, new_day % shape.days);
        let mut noise = Rng::fork(self.panel.seed, 1000 + position as u64);
        let mut batch = IngestBatch::new();
        for a in 0..shape.accesses {
            for g in 0..shape.agents {
                let cell = effects.language[l]
                    * effects.access[a]
                    * effects.agent[g]
                    * effects.week[shape.weeks - 1]
                    * effects.day[d];
                for p in 0..shape.pages {
                    let views = cell * effects.page[p] * (0.94 + 0.12 * noise.uniform());
                    batch.push_insert(vec![
                        names.languages[l].clone(),
                        names.accesses[l][a].clone(),
                        names.agents[l][a][g].clone(),
                        names.pages[l][a][g][p].clone(),
                        week_name(w),
                        day_name(w, d),
                        Value::int(views.round().max(1.0) as i64),
                    ]);
                }
            }
        }
        batch
    }

    fn correction(&mut self, position: usize) -> IngestBatch {
        let chunks = self.subtree.len() / CORRECTION_ROWS;
        let start = (position % chunks) * CORRECTION_ROWS;
        let views_index = self.panel.schema.arity() - 1;
        let mut batch = IngestBatch::new();
        for (row, current, other) in &mut self.subtree[start..start + CORRECTION_ROWS] {
            batch.push_delete(row.clone());
            std::mem::swap(current, other);
            row[views_index] = Value::int(*current);
            batch.push_insert(row.clone());
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Shape = Shape {
        name: "tiny",
        languages: 3,
        accesses: 2,
        agents: 2,
        pages: 6,
        weeks: 3,
        days: 2,
    };

    #[test]
    fn shapes_have_the_documented_row_counts() {
        assert_eq!(LONG.cells(), 453_600);
        assert_eq!(LONG.rows(), 453_600 - 75 * 7);
        assert_eq!(LONG.paths(), 432);
        assert_eq!(WIDE.cells(), 172_800);
        assert_eq!(WIDE.rows(), 172_800 - 600 * 2);
        // page x week groups of the wide panel's training view
        assert_eq!(
            WIDE.languages * WIDE.accesses * WIDE.agents * WIDE.pages * WIDE.weeks,
            86_400
        );
    }

    #[test]
    fn generated_panel_matches_its_shape() {
        let panel = Panel::generate(TINY, 7);
        assert_eq!(panel.relation.len(), TINY.rows());
        assert_ne!(panel.value_error.language, panel.missing.language);
        assert_ne!(panel.value_error.week, panel.missing.week);
        for hierarchy in panel.schema.hierarchies() {
            reptile_relational::validate_hierarchy(&panel.relation, hierarchy)
                .expect("child values determine their parents");
        }
    }

    #[test]
    fn same_seed_same_panel_and_other_seed_other_panel() {
        let a = Panel::generate(TINY, 11);
        let b = Panel::generate(TINY, 11);
        let c = Panel::generate(TINY, 12);
        let rows = |p: &Panel| {
            (0..p.relation.len())
                .map(|r| p.relation.row(r))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&a), rows(&b));
        assert_ne!(rows(&a), rows(&c));
    }

    #[test]
    fn feed_alternates_appends_and_corrections_that_apply() {
        let shape = Shape {
            pages: 2 * CORRECTION_ROWS,
            ..TINY
        };
        let panel = Arc::new(Panel::generate(shape, 9));
        let mut feed = Feed::new(&panel);
        let mut again = Feed::new(&panel);
        let mut relation = (*panel.relation).clone();
        let time = panel.schema.hierarchy("time").unwrap().clone();
        for step in 0..8 {
            let batch = feed.next_batch();
            assert_eq!(batch.inserts(), again.next_batch().inserts());
            if step % 2 == 0 {
                assert_eq!(batch.deletes().len(), 0);
                assert_eq!(
                    batch.inserts().len(),
                    shape.accesses * shape.agents * shape.pages
                );
            } else {
                assert_eq!(batch.deletes().len(), CORRECTION_ROWS);
                assert_eq!(batch.inserts().len(), CORRECTION_ROWS);
            }
            // every delete names a row that exists: corrections track what
            // earlier corrections wrote
            relation = relation.apply(&batch).expect("batch applies");
            reptile_relational::validate_hierarchy(&relation, &time).unwrap();
        }
        assert_eq!(
            relation.len(),
            panel.relation.len() + 4 * shape.accesses * shape.agents * shape.pages
        );
    }

    #[test]
    fn zipf_is_deterministic_and_head_heavy() {
        let zipf = Zipf::new(432, 1.0);
        let draw = |seed| {
            let mut rng = Rng::fork(seed, 0);
            (0..2000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let sample = draw(5);
        assert!(sample.iter().all(|&r| r < 432));
        let head = sample.iter().filter(|&&r| r < 43).count();
        // H(43)/H(432) = 0.65: the top tenth of the paths draws about two
        // thirds of the sessions.
        assert!((1100..1500).contains(&head), "head draws: {head}");
    }
}
