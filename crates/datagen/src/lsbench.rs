//! The LSBench-like social-media stream generator.
//!
//! The Linked Stream Benchmark generates an RDF stream of social-media
//! activity scaled by a user count; the paper uses 0.1M/1M/10M users with
//! ~21M initial triples at the smallest scale. This generator reproduces
//! the *structural* properties the evaluation depends on at laptop scale:
//!
//! * a fixed entity/relation schema ([`crate::schema::social_schema`]),
//! * skewed one-to-many relations (bounded-Pareto out-degrees and
//!   preferential attachment for `knows`/`likes`) — the source of
//!   SJ-Tree's partial-solution explosion,
//! * a timestamp-ordered edge list split into `g0` and a ~10% insertion
//!   stream, matching the paper's `|Δg| / |g0|` ratio.

use tfx_graph::{LabelInterner, LabelSet, VertexId};

use crate::dataset::{split_into_dataset, Dataset};
use crate::rng::Pcg32;
use crate::schema::{social_schema, Schema};

/// Configuration for [`generate`].
#[derive(Clone, Debug)]
pub struct LsBenchConfig {
    /// Number of users (the LSBench scale factor).
    pub users: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of edges that form the insertion stream (paper: ~0.1).
    pub stream_frac: f64,
}

impl Default for LsBenchConfig {
    fn default() -> Self {
        LsBenchConfig { users: 1000, seed: 2018, stream_frac: 0.1 }
    }
}

impl LsBenchConfig {
    /// Scale the dataset by a user count.
    pub fn with_users(users: usize) -> Self {
        LsBenchConfig { users, ..Self::default() }
    }
}

struct TypeIds {
    user: usize,
    post: usize,
    comment: usize,
    photo: usize,
    channel: usize,
    tag: usize,
    city: usize,
}

/// Generates an LSBench-like dataset.
pub fn generate(cfg: &LsBenchConfig) -> Dataset {
    assert!(cfg.users >= 10, "need at least 10 users");
    let mut interner = LabelInterner::new();
    let schema = social_schema(&mut interner);
    let t = TypeIds { user: 0, post: 1, comment: 2, photo: 3, channel: 4, tag: 5, city: 6 };
    let mut rng = Pcg32::with_stream(cfg.seed, 0x15BE7C);

    let rel_label = |s: &Schema, src: usize, dst: usize, nth: usize| {
        s.relations()
            .iter()
            .filter(|r| r.src_type == src && r.dst_type == dst)
            .nth(nth)
            .expect("relation exists in social schema")
            .label
    };
    let knows = rel_label(&schema, t.user, t.user, 0);
    let follows = rel_label(&schema, t.user, t.channel, 0);
    let creator_post = rel_label(&schema, t.user, t.post, 0);
    let creator_comment = rel_label(&schema, t.user, t.comment, 0);
    let creator_photo = rel_label(&schema, t.user, t.photo, 0);
    let likes = rel_label(&schema, t.user, t.post, 1);
    let located = rel_label(&schema, t.user, t.city, 0);
    let reply = rel_label(&schema, t.comment, t.post, 0);
    let posted_in = rel_label(&schema, t.post, t.channel, 0);
    let post_tag = rel_label(&schema, t.post, t.tag, 0);
    let photo_tag = rel_label(&schema, t.photo, t.tag, 0);
    let taken_at = rel_label(&schema, t.photo, t.city, 0);

    // Entity pools. Counts scale with the user count, with fixed-size
    // dictionary entities (channels, tags, cities) growing sublinearly.
    let n_users = cfg.users;
    let n_channels = (n_users / 20).max(4);
    let n_tags = (n_users / 10).max(8);
    let n_cities = (n_users / 50).max(4);

    let mut vertex_labels: Vec<LabelSet> = Vec::new();
    let mut vertex_types: Vec<usize> = Vec::new();
    let new_vertex = |ty: usize,
                      vertex_labels: &mut Vec<LabelSet>,
                      vertex_types: &mut Vec<usize>,
                      schema: &Schema| {
        vertex_labels.push(schema.type_label_set(ty));
        vertex_types.push(ty);
        VertexId((vertex_labels.len() - 1) as u32)
    };

    let users: Vec<VertexId> = (0..n_users)
        .map(|_| new_vertex(t.user, &mut vertex_labels, &mut vertex_types, &schema))
        .collect();
    let channels: Vec<VertexId> = (0..n_channels)
        .map(|_| new_vertex(t.channel, &mut vertex_labels, &mut vertex_types, &schema))
        .collect();
    let tags: Vec<VertexId> = (0..n_tags)
        .map(|_| new_vertex(t.tag, &mut vertex_labels, &mut vertex_types, &schema))
        .collect();
    let cities: Vec<VertexId> = (0..n_cities)
        .map(|_| new_vertex(t.city, &mut vertex_labels, &mut vertex_types, &schema))
        .collect();

    let mut edges: Vec<(VertexId, tfx_graph::LabelId, VertexId)> = Vec::new();
    // Preferential-attachment pool for `knows`: every edge feeds both
    // endpoints back, so high-degree users keep attracting edges.
    let mut knows_pool: Vec<VertexId> = users.clone();

    for &u in &users {
        // Friendships (heavy-tailed).
        let n_friends = rng.pareto_count(1.2, 0.9, 60);
        for _ in 0..n_friends {
            let f = *rng.pick(&knows_pool);
            if f != u {
                edges.push((u, knows, f));
                knows_pool.push(u);
                knows_pool.push(f);
            }
        }
        // Channel subscriptions.
        for _ in 0..rng.pareto_count(1.0, 0.7, 12) {
            edges.push((u, follows, *rng.pick(&channels)));
        }
        // Home city.
        edges.push((u, located, *rng.pick(&cities)));

        // Content: posts with tags/channels/likes/comments, photos.
        let n_posts = rng.pareto_count(1.0, 0.8, 25);
        for _ in 0..n_posts {
            let p = new_vertex(t.post, &mut vertex_labels, &mut vertex_types, &schema);
            edges.push((u, creator_post, p));
            edges.push((p, posted_in, *rng.pick(&channels)));
            for _ in 0..rng.pareto_count(0.8, 0.7, 6) {
                edges.push((p, post_tag, *rng.pick(&tags)));
            }
            // Likes come from the preferential pool (popular users like a
            // lot and popular posts... kept simple: uniform over pool).
            for _ in 0..rng.pareto_count(0.7, 1.0, 40) {
                edges.push((*rng.pick(&knows_pool), likes, p));
            }
            for _ in 0..rng.pareto_count(0.5, 0.9, 15) {
                let c = new_vertex(t.comment, &mut vertex_labels, &mut vertex_types, &schema);
                edges.push((*rng.pick(&knows_pool), creator_comment, c));
                edges.push((c, reply, p));
            }
        }
        let n_photos = rng.pareto_count(0.6, 0.8, 12);
        for _ in 0..n_photos {
            let ph = new_vertex(t.photo, &mut vertex_labels, &mut vertex_types, &schema);
            edges.push((u, creator_photo, ph));
            edges.push((ph, taken_at, *rng.pick(&cities)));
            for _ in 0..rng.pareto_count(0.8, 0.6, 5) {
                edges.push((ph, photo_tag, *rng.pick(&tags)));
            }
        }
    }

    // Dedup exact duplicate triples (the graph rejects them anyway) while
    // keeping first-occurrence order, then shuffle lightly within a window
    // to interleave entity timelines like a real stream.
    let mut seen = rustc_hash::FxHashSet::default();
    edges.retain(|e| seen.insert(*e));
    window_shuffle(&mut edges, 512, &mut rng);

    split_into_dataset(edges, vertex_labels, vertex_types, cfg.stream_frac, interner, schema)
}

/// Shuffles within consecutive windows: preserves global "time" ordering
/// (entities created earlier stream earlier) while interleaving activity.
fn window_shuffle<T>(items: &mut [T], window: usize, rng: &mut Pcg32) {
    let mut i = 0;
    while i < items.len() {
        let end = (i + window).min(items.len());
        rng.shuffle(&mut items[i..end]);
        i = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfx_graph::Dir;

    #[test]
    fn deterministic() {
        let cfg = LsBenchConfig { users: 50, seed: 7, stream_frac: 0.1 };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.g0.vertex_count(), b.g0.vertex_count());
        assert_eq!(a.g0.edge_count(), b.g0.edge_count());
        assert_eq!(a.stream.ops(), b.stream.ops());
    }

    #[test]
    fn stream_fraction_roughly_holds() {
        let d = generate(&LsBenchConfig { users: 200, seed: 1, stream_frac: 0.1 });
        let total = d.g0.edge_count() + d.stream.insert_count();
        let frac = d.stream.insert_count() as f64 / total as f64;
        assert!((0.08..=0.12).contains(&frac), "stream fraction {frac}");
        assert!(total > 2000, "200 users should generate thousands of edges, got {total}");
    }

    #[test]
    fn labels_cover_schema_types() {
        let d = generate(&LsBenchConfig { users: 50, seed: 3, stream_frac: 0.1 });
        let user = d.interner.get("User").unwrap();
        let post = d.interner.get("Post").unwrap();
        let n_users = d.g0.vertices().filter(|&v| d.g0.labels(v).contains(user)).count();
        let n_posts = d.g0.vertices().filter(|&v| d.g0.labels(v).contains(post)).count();
        assert_eq!(n_users, 50);
        assert!(n_posts > 20);
        assert!(d.interner.get("knows").is_some());
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        let d = generate(&LsBenchConfig { users: 300, seed: 5, stream_frac: 0.1 });
        let g = d.final_graph();
        let mut degs: Vec<usize> =
            g.vertices().map(|v| g.degree(v, Dir::Out) + g.degree(v, Dir::In)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let max = degs[0];
        let median = degs[degs.len() / 2];
        assert!(max >= 20 * median.max(1), "max {max} vs median {median}");
    }

    #[test]
    fn stream_replays_cleanly() {
        let d = generate(&LsBenchConfig { users: 50, seed: 9, stream_frac: 0.1 });
        let mut g = d.g0.clone();
        for op in &d.stream {
            assert!(g.apply(op), "stream op must change the graph: {op:?}");
        }
    }

    #[test]
    fn append_deletions_matches_rate() {
        let mut d = generate(&LsBenchConfig { users: 50, seed: 9, stream_frac: 0.1 });
        let ins = d.stream.insert_count();
        d.append_deletions(0.5, 77);
        assert_eq!(d.stream.insert_count(), ins);
        let expect = ((ins as f64) * 0.5).round() as usize;
        assert_eq!(d.stream.delete_count(), expect);
        // Deletions reference previously inserted edges → replay works.
        let mut g = d.g0.clone();
        for op in &d.stream {
            assert!(g.apply(op));
        }
    }
}
