//! Recommendation training for NGCF's real use case (§I: "NGCF is
//! popularly used in recommendation systems"): Bayesian Personalized
//! Ranking over user–item bipartite graphs.
//!
//! The GNN produces an embedding per node; a (user, positive-item,
//! negative-item) triple is scored by inner products and optimized with
//! the BPR loss `−ln σ(e_u·e_p − e_u·e_n)`, back-propagated through the
//! whole NAPA pipeline via
//! [`GraphTensor::train_batch_with_loss`].

use crate::data::GraphData;
use crate::trainer::GraphTensor;
use gt_graph::VId;
use gt_tensor::dense::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A batch of BPR triples over a bipartite graph whose users are ids
/// `[0, num_users)` and items are `[num_users, V)`.
#[derive(Debug, Clone)]
pub struct BprBatch {
    /// Users, one per triple.
    pub users: Vec<VId>,
    /// Positive (observed) items.
    pub pos: Vec<VId>,
    /// Negative (sampled, unobserved) items.
    pub neg: Vec<VId>,
}

impl BprBatch {
    /// Number of triples.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when the batch has no triples.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The seed vertices the GNN must embed: users ++ pos ++ neg.
    pub fn seeds(&self) -> Vec<VId> {
        let mut s = Vec::with_capacity(3 * self.len());
        s.extend_from_slice(&self.users);
        s.extend_from_slice(&self.pos);
        s.extend_from_slice(&self.neg);
        s
    }
}

/// Sample `n` BPR triples: a user with at least one observed item, one of
/// its items as the positive, and a uniform non-observed item as negative.
pub fn sample_bpr_batch(data: &GraphData, num_users: usize, n: usize, seed: u64) -> BprBatch {
    assert!(num_users > 0 && num_users < data.num_vertices());
    let num_items = data.num_vertices() - num_users;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut users = Vec::with_capacity(n);
    let mut pos = Vec::with_capacity(n);
    let mut neg = Vec::with_capacity(n);
    let mut guard = 0;
    while users.len() < n && guard < 100 * n {
        guard += 1;
        let u = rng.gen_range(0..num_users as VId);
        // Observed items of u = its in-neighbors that are items (the
        // bipartite generator symmetrizes, so in-neighbors suffice).
        let items: Vec<VId> = data
            .graph
            .srcs(u)
            .iter()
            .copied()
            .filter(|&v| (v as usize) >= num_users)
            .collect();
        if items.is_empty() {
            continue;
        }
        let p = items[rng.gen_range(0..items.len())];
        // Rejection-sample a negative.
        let mut nneg = 0;
        loop {
            let cand = (num_users + rng.gen_range(0..num_items)) as VId;
            if !items.contains(&cand) || nneg > 20 {
                users.push(u);
                pos.push(p);
                neg.push(cand);
                break;
            }
            nneg += 1;
        }
    }
    BprBatch { users, pos, neg }
}

/// σ(x), numerically stable.
fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// BPR loss and its gradient w.r.t. the embedding matrix. `rows` maps the
/// embedding matrix's rows to original vertex ids.
pub fn bpr_loss(embeddings: &Matrix, rows: &[VId], batch: &BprBatch) -> (f32, Matrix) {
    let index: HashMap<VId, usize> = rows
        .iter()
        .take(embeddings.rows())
        .enumerate()
        .map(|(i, &v)| (v, i))
        .collect();
    let row_of = |v: VId| {
        *index
            .get(&v)
            .expect("triple vertex missing from batch output")
    };
    let dim = embeddings.cols();
    let mut grad = Matrix::zeros(embeddings.rows(), dim);
    let mut loss = 0.0f32;
    let n = batch.len() as f32;
    for ((&u, &p), &ng) in batch.users.iter().zip(&batch.pos).zip(&batch.neg) {
        let (ru, rp, rn) = (row_of(u), row_of(p), row_of(ng));
        let eu: Vec<f32> = embeddings.row(ru).to_vec();
        let ep: Vec<f32> = embeddings.row(rp).to_vec();
        let en: Vec<f32> = embeddings.row(rn).to_vec();
        let x: f32 = eu
            .iter()
            .zip(ep.iter().zip(&en))
            .map(|(&u, (&p, &q))| u * (p - q))
            .sum();
        loss += -(sigmoid(x).max(1e-30)).ln();
        let coef = (sigmoid(x) - 1.0) / n; // dL/dx, averaged
        for k in 0..dim {
            grad.row_mut(ru)[k] += coef * (ep[k] - en[k]);
            grad.row_mut(rp)[k] += coef * eu[k];
            grad.row_mut(rn)[k] -= coef * eu[k];
        }
    }
    (loss / n, grad)
}

/// One BPR training step through the full GNN pipeline. Returns the loss.
pub fn train_bpr_batch(trainer: &mut GraphTensor, data: &GraphData, batch: &BprBatch) -> f32 {
    let seeds = batch.seeds();
    trainer
        .train_batch_with_loss(data, &seeds, |emb, rows| bpr_loss(emb, rows, batch))
        .loss
}

/// Fraction of held-out triples the model ranks correctly
/// (`e_u·e_p > e_u·e_n`) — AUC on the sampled triples.
pub fn ranking_accuracy(trainer: &mut GraphTensor, data: &GraphData, batch: &BprBatch) -> f64 {
    let seeds = batch.seeds();
    let emb = trainer.infer_batch(data, &seeds);
    // Seeds map to the first rows in order (batch prefix of the id space),
    // but duplicates collapse — rebuild the map like bpr_loss does.
    let n = batch.len();
    let mut correct = 0usize;
    // Deduplicated prefix mapping: first occurrence wins.
    let mut index: HashMap<VId, usize> = HashMap::new();
    let mut next = 0usize;
    for &v in &seeds {
        index.entry(v).or_insert_with(|| {
            let i = next;
            next += 1;
            i
        });
    }
    for ((&u, &p), &ng) in batch.users.iter().zip(&batch.pos).zip(&batch.neg) {
        let eu = emb.row(index[&u]);
        let ep = emb.row(index[&p]);
        let en = emb.row(index[&ng]);
        let sp: f32 = eu.iter().zip(ep).map(|(&a, &b)| a * b).sum();
        let sn: f32 = eu.iter().zip(en).map(|(&a, &b)| a * b).sum();
        if sp > sn {
            correct += 1;
        }
    }
    correct as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::trainer::GtVariant;
    use gt_graph::{generators, EmbeddingTable};
    use gt_sample::SamplerConfig;
    use gt_sim::SystemSpec;

    fn bipartite_data(users: usize, items: usize, edges: usize) -> GraphData {
        let coo = generators::bipartite(users, items, edges, 3);
        let (graph, _) = gt_graph::convert::coo_to_csr(&coo);
        let n = graph.num_vertices();
        let features = EmbeddingTable::random(n, 16, 5);
        GraphData::new(graph, features, vec![0; n], 1)
    }

    fn trainer(out_dim: usize) -> GraphTensor {
        let mut t = GraphTensor::new(
            GtVariant::Dynamic,
            ModelConfig::ngcf(2, 16, out_dim),
            SystemSpec::tiny(),
        );
        t.sampler = SamplerConfig {
            fanout: 4,
            layers: 2,
            seed: 7,
            ..Default::default()
        };
        t.lr = 0.1;
        t
    }

    #[test]
    fn bpr_batch_seeds_are_triples() {
        let d = bipartite_data(40, 20, 300);
        let b = sample_bpr_batch(&d, 40, 16, 1);
        assert_eq!(b.len(), 16);
        assert_eq!(b.seeds().len(), 48);
        for (&u, (&p, &n)) in b.users.iter().zip(b.pos.iter().zip(&b.neg)) {
            assert!((u as usize) < 40);
            assert!((p as usize) >= 40);
            assert!((n as usize) >= 40);
        }
    }

    #[test]
    fn bpr_gradient_matches_finite_differences() {
        let b = BprBatch {
            users: vec![0, 1],
            pos: vec![2, 3],
            neg: vec![3, 2],
        };
        let rows: Vec<VId> = vec![0, 1, 2, 3];
        let e0 = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f32) * 0.1 - 0.5).collect());
        let (_, grad) = bpr_loss(&e0, &rows, &b);
        let eps = 1e-2f32;
        for i in 0..e0.len() {
            let mut p = e0.clone();
            p.data_mut()[i] += eps;
            let mut m = e0.clone();
            m.data_mut()[i] -= eps;
            let (lp, _) = bpr_loss(&p, &rows, &b);
            let (lm, _) = bpr_loss(&m, &rows, &b);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad.data()[i]).abs() < 1e-3,
                "elem {i}: {num} vs {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn bpr_training_improves_ranking() {
        let d = bipartite_data(60, 30, 600);
        let mut t = trainer(16);
        t.lr = 0.3;
        let eval = sample_bpr_batch(&d, 60, 64, 999);
        let before = ranking_accuracy(&mut t, &d, &eval);
        let mut loss_first = 0.0;
        let mut loss_last = 0.0;
        for step in 0..100 {
            let b = sample_bpr_batch(&d, 60, 64, step);
            let loss = train_bpr_batch(&mut t, &d, &b);
            assert!(loss.is_finite());
            if step == 0 {
                loss_first = loss;
            }
            loss_last = loss;
        }
        let after = ranking_accuracy(&mut t, &d, &eval);
        assert!(
            loss_last < loss_first,
            "BPR loss did not drop: {loss_first} → {loss_last}"
        );
        assert!(
            after > before.max(0.55),
            "ranking did not improve: {before} → {after}"
        );
    }
}
