//! Seeded SNB-like graph generator.
//!
//! Scale factor `sf` plays the role of LDBC's SF: entity counts grow
//! linearly in it (persons ≈ 1000·sf). Distributions mimic the benchmark
//! qualitatively: `Knows` degrees are preferential-attachment skewed,
//! message counts per person are geometric-ish, message locations
//! correlate with the author's country, and timestamps span 2009–2013
//! (the Appendix-B workload filters on 2010–2012).

use crate::schema::snb_schema;
use pgraph::datetime::to_epoch;
use pgraph::graph::{Graph, GraphBuilder, VertexId};
use pgraph::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Elements (vertices + edges) emitted between two
/// [`GraphSink::flush_chunk`] calls by the streaming generator.
pub const STREAM_CHUNK: usize = 8192;

/// Streaming load target: receives vertices and edges one at a time, in
/// emission order. [`GraphBuilder`] is the canonical sink; other
/// implementations can count, sample, or forward chunks to a loader
/// without the generator ever materializing the element stream.
pub trait GraphSink {
    /// Adds a vertex of `vtype` and returns its id (ids must be handed
    /// out densely in emission order — the generator derives contiguous
    /// id ranges from them instead of remembering every id).
    fn vertex(&mut self, vtype: &str, attrs: &[(&str, Value)]) -> VertexId;
    /// Adds an edge of `etype`.
    fn edge(&mut self, etype: &str, src: VertexId, dst: VertexId, attrs: &[(&str, Value)]);
    /// Chunk boundary: [`STREAM_CHUNK`] elements were emitted since the
    /// previous call. Buffering sinks flush here; the default is a no-op.
    fn flush_chunk(&mut self) {}
}

impl GraphSink for GraphBuilder {
    fn vertex(&mut self, vtype: &str, attrs: &[(&str, Value)]) -> VertexId {
        GraphBuilder::vertex(self, vtype, attrs).expect("generator emits schema-valid vertices")
    }
    fn edge(&mut self, etype: &str, src: VertexId, dst: VertexId, attrs: &[(&str, Value)]) {
        GraphBuilder::edge(self, etype, src, dst, attrs).expect("generator emits schema-valid edges");
    }
}

/// What the streaming generator produced, plus its own memory footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenReport {
    /// Vertices emitted.
    pub vertices: u64,
    /// Edges emitted.
    pub edges: u64,
    /// High-water mark of the generator's *own* bookkeeping, in bytes —
    /// everything it keeps besides what the sink stores. Constant in the
    /// scale factor (the point of the streaming path: no `O(V)` person
    /// table, no `O(E)` attachment pool, no full message list).
    pub aux_peak_bytes: u64,
    /// `flush_chunk` boundaries emitted.
    pub chunks: u64,
}

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct SnbParams {
    /// Scale factor; persons ≈ `1000 · sf` (min 30).
    pub sf: f64,
    pub seed: u64,
}

impl SnbParams {
    pub fn new(sf: f64, seed: u64) -> Self {
        SnbParams { sf, seed }
    }

    /// Number of persons at this scale factor.
    pub fn persons(&self) -> usize {
        ((1000.0 * self.sf).round() as usize).max(30)
    }
}

const BROWSERS: [&str; 4] = ["Firefox", "Chrome", "Safari", "IE"];

/// Generates the graph; deterministic per `(sf, seed)`.
pub fn generate(params: SnbParams) -> Graph {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut b = GraphBuilder::new(snb_schema());
    let n_person = params.persons();
    let n_country = 20usize;
    let n_city = 60usize;
    let n_company = 40usize;
    let n_tag = 80usize;
    let n_forum = (n_person / 3).max(4);

    // Places and organizations.
    let countries: Vec<VertexId> = (0..n_country)
        .map(|i| b.vertex("Country", &[("name", Value::from(format!("country{i}")))]).unwrap())
        .collect();
    let cities: Vec<VertexId> = (0..n_city)
        .map(|i| b.vertex("City", &[("name", Value::from(format!("city{i}")))]).unwrap())
        .collect();
    let city_country: Vec<usize> = (0..n_city).map(|i| i % n_country).collect();
    for (i, &c) in cities.iter().enumerate() {
        b.edge("PartOf", c, countries[city_country[i]], &[]).unwrap();
    }
    let companies: Vec<VertexId> = (0..n_company)
        .map(|i| b.vertex("Company", &[("name", Value::from(format!("company{i}")))]).unwrap())
        .collect();
    let company_country: Vec<usize> = (0..n_company).map(|_| rng.gen_range(0..n_country)).collect();
    for (i, &c) in companies.iter().enumerate() {
        b.edge("CompanyIn", c, countries[company_country[i]], &[]).unwrap();
    }
    let tags: Vec<VertexId> = (0..n_tag)
        .map(|i| b.vertex("Tag", &[("name", Value::from(format!("tag{i}")))]).unwrap())
        .collect();

    // Persons.
    let mut person_city = Vec::with_capacity(n_person);
    let persons: Vec<VertexId> = (0..n_person)
        .map(|i| {
            let gender = if rng.gen_bool(0.5) { "male" } else { "female" };
            let browser = BROWSERS[zipf4(&mut rng)];
            let by = rng.gen_range(1950..2000);
            let bm = rng.gen_range(1..=12u32);
            let bd = rng.gen_range(1..=28u32);
            let v = b
                .vertex(
                    "Person",
                    &[
                        ("id", Value::Int(i as i64)),
                        ("firstName", Value::from(format!("fn{i}"))),
                        ("lastName", Value::from(format!("ln{}", i % 97))),
                        ("gender", Value::from(gender)),
                        ("browser", Value::from(browser)),
                        ("birthday", Value::DateTime(to_epoch(by, bm, bd))),
                        ("creationDate", Value::DateTime(to_epoch(2009, 1, 1))),
                    ],
                )
                .unwrap();
            let city = rng.gen_range(0..n_city);
            person_city.push(city);
            b.edge("LivesIn", v, cities[city], &[]).unwrap();
            v
        })
        .collect();

    // WorkAt: 0–2 companies per person.
    for &p in &persons {
        for _ in 0..rng.gen_range(0..=2usize) {
            let c = rng.gen_range(0..n_company);
            b.edge(
                "WorkAt",
                p,
                companies[c],
                &[("workFrom", Value::Int(rng.gen_range(1990..2015)))],
            )
            .unwrap();
        }
    }

    // Knows: undirected, preferential-attachment skewed, avg degree ~8.
    let mut pool: Vec<usize> = vec![0, 1];
    b.edge(
        "Knows",
        persons[0],
        persons[1],
        &[("since", Value::DateTime(to_epoch(2009, 6, 1)))],
    )
    .unwrap();
    for i in 2..n_person {
        let k = 1 + (rng.gen::<f64>().powi(2) * 7.0) as usize; // skewed 1..8
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        while chosen.len() < k.min(i) {
            let j = pool[rng.gen_range(0..pool.len())];
            if j != i && !chosen.contains(&j) {
                chosen.push(j);
            }
        }
        for j in chosen {
            let y = rng.gen_range(2009..2013);
            let m = rng.gen_range(1..=12u32);
            b.edge(
                "Knows",
                persons[i],
                persons[j],
                &[("since", Value::DateTime(to_epoch(y, m, 1)))],
            )
            .unwrap();
            pool.push(j);
            pool.push(i);
        }
    }

    // Forums with members.
    let forums: Vec<VertexId> = (0..n_forum)
        .map(|i| {
            b.vertex(
                "Forum",
                &[
                    ("title", Value::from(format!("forum{i}"))),
                    ("creationDate", Value::DateTime(to_epoch(2009, 2, 1))),
                ],
            )
            .unwrap()
        })
        .collect();
    for &f in &forums {
        let members = rng.gen_range(4..=16usize).min(n_person);
        for _ in 0..members {
            let p = rng.gen_range(0..n_person);
            let y = rng.gen_range(2009..2013);
            let m = rng.gen_range(1..=12u32);
            let d = rng.gen_range(1..=28u32);
            b.edge(
                "HasMember",
                f,
                persons[p],
                &[("joinDate", Value::DateTime(to_epoch(y, m, d)))],
            )
            .unwrap();
        }
    }

    // Messages: ~12 per person on average, geometric-ish.
    let mut messages: Vec<VertexId> = Vec::new();
    let mut msg_id = 0i64;
    for (pi, &p) in persons.iter().enumerate() {
        let count = sample_geometric(&mut rng, 12.0).min(60);
        for _ in 0..count {
            let y = rng.gen_range(2009..2014);
            let m = rng.gen_range(1..=12u32);
            let d = rng.gen_range(1..=28u32);
            let length = 1 + (rng.gen::<f64>().powi(3) * 199.0) as i64;
            let v = b
                .vertex(
                    "Message",
                    &[
                        ("id", Value::Int(msg_id)),
                        ("creationDate", Value::DateTime(to_epoch(y, m, d))),
                        ("length", Value::Int(length)),
                        ("browser", Value::from(BROWSERS[zipf4(&mut rng)])),
                        ("isPost", Value::Bool(rng.gen_bool(0.4))),
                    ],
                )
                .unwrap();
            msg_id += 1;
            b.edge("HasCreator", v, p, &[]).unwrap();
            // Location correlates with the author's country 70% of the time.
            let country = if rng.gen_bool(0.7) {
                city_country[person_city[pi]]
            } else {
                rng.gen_range(0..n_country)
            };
            b.edge("MsgIn", v, countries[country], &[]).unwrap();
            for _ in 0..rng.gen_range(1..=3usize) {
                let t = zipf_index(&mut rng, n_tag);
                b.edge("HasTag", v, tags[t], &[]).unwrap();
            }
            if !messages.is_empty() && rng.gen_bool(0.3) {
                let parent = messages[rng.gen_range(0..messages.len())];
                b.edge("ReplyOf", v, parent, &[]).unwrap();
            }
            if rng.gen_bool(0.5) {
                let f = forums[rng.gen_range(0..n_forum)];
                b.edge("ContainerOf", f, v, &[]).unwrap();
            }
            messages.push(v);
        }
    }

    // Likes: ~10 per person.
    if !messages.is_empty() {
        for &p in &persons {
            for _ in 0..rng.gen_range(5..=15usize) {
                let m = messages[rng.gen_range(0..messages.len())];
                let y = rng.gen_range(2009..2014);
                let mo = rng.gen_range(1..=12u32);
                b.edge(
                    "Likes",
                    p,
                    m,
                    &[("creationDate", Value::DateTime(to_epoch(y, mo, 1)))],
                )
                .unwrap();
            }
        }
    }

    b.build()
}

/// Counts emissions and inserts chunk boundaries in front of a sink.
struct Emitter<'s, S: GraphSink + ?Sized> {
    sink: &'s mut S,
    vertices: u64,
    edges: u64,
    since_flush: usize,
    chunks: u64,
}

impl<'s, S: GraphSink + ?Sized> Emitter<'s, S> {
    fn tick(&mut self) {
        self.since_flush += 1;
        if self.since_flush >= STREAM_CHUNK {
            self.since_flush = 0;
            self.chunks += 1;
            self.sink.flush_chunk();
        }
    }
    fn vertex(&mut self, vtype: &str, attrs: &[(&str, Value)]) -> VertexId {
        self.vertices += 1;
        let v = self.sink.vertex(vtype, attrs);
        self.tick();
        v
    }
    fn edge(&mut self, etype: &str, src: VertexId, dst: VertexId, attrs: &[(&str, Value)]) {
        self.edges += 1;
        self.sink.edge(etype, src, dst, attrs);
        self.tick();
    }
}

/// Deterministic per-person RNG: lets a later phase re-derive a person's
/// attributes (their city, for message-location correlation) without a
/// scale-sized side table.
fn person_rng(seed: u64, i: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1))
}

/// Streams an SNB-like graph into `sink` without materializing any
/// scale-proportional intermediate state; deterministic per `(sf, seed)`.
///
/// Entity distributions qualitatively match [`generate`] (skewed `Knows`
/// degrees, geometric-ish message counts, correlated message locations)
/// but the element stream itself differs: every scale-sized side table
/// the eager generator keeps is replaced by a bounded-state equivalent —
///
/// * persons, forums, and messages occupy **contiguous id ranges** (the
///   sink hands ids out densely), so edge targets are sampled from a
///   range instead of a remembered `Vec`;
/// * preferential attachment's `O(E)` endpoint pool becomes a
///   quadratically rank-biased pick over `[0, i)` (early persons stay
///   the hubs);
/// * per-person attributes needed again later are re-derived from
///   a per-person seeded RNG (`person_rng`) instead of being stored.
///
/// The returned [`GenReport`] carries the generator's auxiliary
/// high-water mark; `streamed_generation_is_deterministic_and_scales`
/// asserts it stays flat as `sf` grows.
pub fn generate_into<S: GraphSink + ?Sized>(params: SnbParams, sink: &mut S) -> GenReport {
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x5eed_11dc);
    let mut em = Emitter { sink, vertices: 0, edges: 0, since_flush: 0, chunks: 0 };
    let n_person = params.persons();
    let n_country = 20usize;
    let n_city = 60usize;
    let n_company = 40usize;
    let n_tag = 80usize;
    let n_forum = (n_person / 3).max(4);

    // Places, organizations, tags: the only remembered id tables, all
    // constant-size regardless of scale factor.
    let countries: Vec<VertexId> = (0..n_country)
        .map(|i| em.vertex("Country", &[("name", Value::from(format!("country{i}")))]))
        .collect();
    let cities: Vec<VertexId> = (0..n_city)
        .map(|i| em.vertex("City", &[("name", Value::from(format!("city{i}")))]))
        .collect();
    let city_country: Vec<usize> = (0..n_city).map(|i| i % n_country).collect();
    for (i, &c) in cities.iter().enumerate() {
        em.edge("PartOf", c, countries[city_country[i]], &[]);
    }
    let companies: Vec<VertexId> = (0..n_company)
        .map(|i| em.vertex("Company", &[("name", Value::from(format!("company{i}")))]))
        .collect();
    for &c in &companies {
        let country = rng.gen_range(0..n_country);
        em.edge("CompanyIn", c, countries[country], &[]);
    }
    let tags: Vec<VertexId> = (0..n_tag)
        .map(|i| em.vertex("Tag", &[("name", Value::from(format!("tag{i}")))]))
        .collect();
    let aux_peak_bytes = ((countries.len() + cities.len() + companies.len() + tags.len())
        * std::mem::size_of::<VertexId>()
        + city_country.len() * std::mem::size_of::<usize>()) as u64;

    // Persons: a contiguous id range. Attributes come from the per-
    // person RNG so the message phase can re-derive the city.
    let mut first_person = VertexId(0);
    for i in 0..n_person {
        let mut prng = person_rng(params.seed, i);
        let gender = if prng.gen_bool(0.5) { "male" } else { "female" };
        let browser = BROWSERS[zipf4(&mut prng)];
        let by = prng.gen_range(1950..2000);
        let bm = prng.gen_range(1..=12u32);
        let bd = prng.gen_range(1..=28u32);
        let city = prng.gen_range(0..n_city);
        let v = em.vertex(
            "Person",
            &[
                ("id", Value::Int(i as i64)),
                ("firstName", Value::from(format!("fn{i}"))),
                ("lastName", Value::from(format!("ln{}", i % 97))),
                ("gender", Value::from(gender)),
                ("browser", Value::from(browser)),
                ("birthday", Value::DateTime(to_epoch(by, bm, bd))),
                ("creationDate", Value::DateTime(to_epoch(2009, 1, 1))),
            ],
        );
        if i == 0 {
            first_person = v;
        }
        em.edge("LivesIn", v, cities[city], &[]);
        for _ in 0..rng.gen_range(0..=2usize) {
            let c = rng.gen_range(0..n_company);
            em.edge(
                "WorkAt",
                v,
                companies[c],
                &[("workFrom", Value::Int(rng.gen_range(1990..2015)))],
            );
        }
    }
    let person_at = |i: usize| VertexId(first_person.0 + i as u32);

    // Knows: skewed toward early persons (the preferential-attachment
    // pool replaced by a quadratic rank bias over `[0, i)` — same hub
    // structure, O(1) generator state).
    for i in 1..n_person {
        let k = (1 + (rng.gen::<f64>().powi(2) * 7.0) as usize).min(i);
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        let mut attempts = 0;
        while chosen.len() < k && attempts < 8 * k {
            attempts += 1;
            let r: f64 = rng.gen();
            let j = ((r * r) * i as f64) as usize % i;
            if !chosen.contains(&j) {
                chosen.push(j);
            }
        }
        for j in chosen {
            let y = rng.gen_range(2009..2013);
            let m = rng.gen_range(1..=12u32);
            em.edge(
                "Knows",
                person_at(i),
                person_at(j),
                &[("since", Value::DateTime(to_epoch(y, m, 1)))],
            );
        }
    }

    // Forums: another contiguous range.
    let mut first_forum = VertexId(0);
    for i in 0..n_forum {
        let v = em.vertex(
            "Forum",
            &[
                ("title", Value::from(format!("forum{i}"))),
                ("creationDate", Value::DateTime(to_epoch(2009, 2, 1))),
            ],
        );
        if i == 0 {
            first_forum = v;
        }
        let members = rng.gen_range(4..=16usize).min(n_person);
        for _ in 0..members {
            let p = rng.gen_range(0..n_person);
            let y = rng.gen_range(2009..2013);
            let m = rng.gen_range(1..=12u32);
            let d = rng.gen_range(1..=28u32);
            em.edge(
                "HasMember",
                v,
                person_at(p),
                &[("joinDate", Value::DateTime(to_epoch(y, m, d)))],
            );
        }
    }
    let forum_at = |i: usize| VertexId(first_forum.0 + i as u32);

    // Messages: contiguous range; ReplyOf parents are sampled from the
    // already-emitted prefix of the range instead of a remembered list.
    let mut first_msg: Option<VertexId> = None;
    let mut emitted_msgs = 0u32;
    let mut msg_id = 0i64;
    for pi in 0..n_person {
        let count = sample_geometric(&mut rng, 12.0).min(60);
        let person_city = {
            let mut prng = person_rng(params.seed, pi);
            // Skip the draws before the city (gender, browser, birthday).
            let _ = prng.gen_bool(0.5);
            let _ = zipf4(&mut prng);
            let _: i32 = prng.gen_range(1950..2000);
            let _: u32 = prng.gen_range(1..=12u32);
            let _: u32 = prng.gen_range(1..=28u32);
            prng.gen_range(0..n_city)
        };
        for _ in 0..count {
            let y = rng.gen_range(2009..2014);
            let m = rng.gen_range(1..=12u32);
            let d = rng.gen_range(1..=28u32);
            let length = 1 + (rng.gen::<f64>().powi(3) * 199.0) as i64;
            let v = em.vertex(
                "Message",
                &[
                    ("id", Value::Int(msg_id)),
                    ("creationDate", Value::DateTime(to_epoch(y, m, d))),
                    ("length", Value::Int(length)),
                    ("browser", Value::from(BROWSERS[zipf4(&mut rng)])),
                    ("isPost", Value::Bool(rng.gen_bool(0.4))),
                ],
            );
            msg_id += 1;
            let base = *first_msg.get_or_insert(v);
            em.edge("HasCreator", v, person_at(pi), &[]);
            let country = if rng.gen_bool(0.7) {
                city_country[person_city]
            } else {
                rng.gen_range(0..n_country)
            };
            em.edge("MsgIn", v, countries[country], &[]);
            for _ in 0..rng.gen_range(1..=3usize) {
                let t = zipf_index(&mut rng, n_tag);
                em.edge("HasTag", v, tags[t], &[]);
            }
            if emitted_msgs > 0 && rng.gen_bool(0.3) {
                let parent = VertexId(base.0 + rng.gen_range(0..emitted_msgs));
                em.edge("ReplyOf", v, parent, &[]);
            }
            if rng.gen_bool(0.5) {
                let f = forum_at(rng.gen_range(0..n_forum));
                em.edge("ContainerOf", f, v, &[]);
            }
            emitted_msgs += 1;
        }
    }

    // Likes: uniform over the whole message range.
    if let Some(base) = first_msg {
        for pi in 0..n_person {
            for _ in 0..rng.gen_range(5..=15usize) {
                let m = VertexId(base.0 + rng.gen_range(0..emitted_msgs));
                let y = rng.gen_range(2009..2014);
                let mo = rng.gen_range(1..=12u32);
                em.edge(
                    "Likes",
                    person_at(pi),
                    m,
                    &[("creationDate", Value::DateTime(to_epoch(y, mo, 1)))],
                );
            }
        }
    }

    GenReport { vertices: em.vertices, edges: em.edges, aux_peak_bytes, chunks: em.chunks }
}

/// Streams a graph through a [`GraphBuilder`] sink and finalizes it:
/// the scale-capable entry point for SF10-class graphs that the eager
/// [`generate`]'s side tables would bloat.
pub fn generate_streamed(params: SnbParams) -> (Graph, GenReport) {
    let mut b = GraphBuilder::new(snb_schema());
    let report = generate_into(params, &mut b);
    (b.build(), report)
}

/// Zipf-ish pick among 4 browsers (rank-biased).
fn zipf4(rng: &mut StdRng) -> usize {
    let r: f64 = rng.gen();
    if r < 0.48 {
        0
    } else if r < 0.72 {
        1
    } else if r < 0.88 {
        2
    } else {
        3
    }
}

/// Rank-biased tag index: low indices are much more popular.
fn zipf_index(rng: &mut StdRng, n: usize) -> usize {
    let r: f64 = rng.gen();
    ((r * r) * n as f64) as usize % n
}

/// Geometric-ish sample with the given mean.
fn sample_geometric(rng: &mut StdRng, mean: f64) -> usize {
    let u: f64 = rng.gen::<f64>().max(1e-12);
    (-u.ln() * mean) as usize + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = generate(SnbParams::new(0.05, 7));
        let c = generate(SnbParams::new(0.05, 7));
        assert_eq!(a.vertex_count(), c.vertex_count());
        assert_eq!(a.edge_count(), c.edge_count());
    }

    #[test]
    fn scales_with_sf() {
        let small = generate(SnbParams::new(0.03, 1));
        let big = generate(SnbParams::new(0.1, 1));
        assert!(big.vertex_count() > small.vertex_count());
        assert!(big.edge_count() > small.edge_count());
    }

    #[test]
    fn person_count_matches_params() {
        let p = SnbParams::new(0.05, 3);
        let g = generate(p);
        let pt = g.schema().vertex_type_id("Person").unwrap();
        assert_eq!(g.vertices_of_type(pt).len(), p.persons());
    }

    #[test]
    fn knows_is_connected_enough() {
        // Preferential attachment links every new person to someone.
        let g = generate(SnbParams::new(0.05, 5));
        let (_, comps) = pgraph::algo::weakly_connected_components(&g);
        // Single giant component plus possibly isolated tags/places that
        // happen to be untouched; persons themselves form one component.
        assert!(comps < g.vertex_count() / 2);
    }

    /// Counting sink: proves the generator runs without any graph store.
    struct CountingSink {
        next: u32,
        vertices: u64,
        edges: u64,
        flushes: u64,
    }

    impl GraphSink for CountingSink {
        fn vertex(&mut self, _vtype: &str, _attrs: &[(&str, Value)]) -> VertexId {
            let v = VertexId(self.next);
            self.next += 1;
            self.vertices += 1;
            v
        }
        fn edge(&mut self, _e: &str, _s: VertexId, _d: VertexId, _a: &[(&str, Value)]) {
            self.edges += 1;
        }
        fn flush_chunk(&mut self) {
            self.flushes += 1;
        }
    }

    #[test]
    fn streamed_generation_is_deterministic_and_scales() {
        let (a, ra) = generate_streamed(SnbParams::new(0.05, 7));
        let (b, rb) = generate_streamed(SnbParams::new(0.05, 7));
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(ra, rb);
        assert_eq!(ra.vertices, a.vertex_count() as u64);
        assert_eq!(ra.edges, a.edge_count() as u64);
        let (big, rbig) = generate_streamed(SnbParams::new(0.2, 7));
        assert!(big.vertex_count() > a.vertex_count());
        // The whole point: auxiliary state does not grow with scale.
        assert_eq!(ra.aux_peak_bytes, rbig.aux_peak_bytes);
        assert!(rbig.aux_peak_bytes < 16 * 1024, "{}", rbig.aux_peak_bytes);
    }

    #[test]
    fn streamed_matches_counting_sink_and_chunks() {
        let params = SnbParams::new(0.05, 7);
        let mut sink = CountingSink { next: 0, vertices: 0, edges: 0, flushes: 0 };
        let r = generate_into(params, &mut sink);
        assert_eq!(r.vertices, sink.vertices);
        assert_eq!(r.edges, sink.edges);
        assert_eq!(r.chunks, sink.flushes);
        // ~30 persons → few hundred elements; raise sf to force chunking.
        let mut sink = CountingSink { next: 0, vertices: 0, edges: 0, flushes: 0 };
        let r = generate_into(SnbParams::new(0.2, 7), &mut sink);
        assert!(r.chunks >= 1, "SF 0.2 must cross at least one chunk boundary");
    }

    #[test]
    fn streamed_graph_serves_the_snb_queries() {
        use gsql_core::Engine;
        let (g, _) = generate_streamed(SnbParams::new(0.05, 31));
        let pt = g.schema().vertex_type_id("Person").unwrap();
        assert!(!g.vertices_of_type(pt).is_empty());
        let p = Value::Vertex(g.vertices_of_type(pt)[0]);
        let out = Engine::new(&g)
            .run_text(&crate::queries::ic5(3), &[("p", p), ("minDate", Value::DateTime(0))])
            .unwrap();
        assert!(!out.prints.is_empty());
    }

    #[test]
    fn timestamps_span_the_workload_window() {
        let g = generate(SnbParams::new(0.05, 9));
        let mt = g.schema().vertex_type_id("Message").unwrap();
        let mut years: std::collections::BTreeSet<i64> = Default::default();
        for &m in g.vertices_of_type(mt) {
            let ts = match g.vertex_attr_by_name(m, "creationDate").unwrap().into_owned() {
                Value::DateTime(t) => t,
                other => panic!("{other:?}"),
            };
            years.insert(pgraph::datetime::year(ts));
        }
        for y in 2010..=2012 {
            assert!(years.contains(&y), "no messages in {y}");
        }
    }
}
