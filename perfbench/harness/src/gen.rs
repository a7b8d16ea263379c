//! Seeded instance generation. The program under test only ever sees
//! the `.dl` text and script frames built here.

use std::fmt::Write as _;

/// The win–move program every workload evaluates.
pub const PROGRAM: &str = "win(X) :- move(X, Y), not win(Y).\n";

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A win–move game graph over named positions.
pub struct Game {
    pub names: Vec<String>,
    pub moves: Vec<(u32, u32)>,
    /// Odd 3-cycles: the positions the well-founded model and every
    /// tie-breaking run leave undefined.
    pub odd: Vec<u32>,
    /// Pocket-chain links `(b_k, a_{k+1})`: the edges a write may flap.
    pub links: Vec<(u32, u32)>,
    /// Independent draw pockets `(x, y)` (the outcome instance only).
    pub pockets: Vec<(u32, u32)>,
}

impl Game {
    fn new() -> Game {
        Game {
            names: Vec::new(),
            moves: Vec::new(),
            odd: Vec::new(),
            links: Vec::new(),
            pockets: Vec::new(),
        }
    }

    fn node(&mut self, name: String) -> u32 {
        self.names.push(name);
        (self.names.len() - 1) as u32
    }

    /// The database text: one `move(x, y).` fact per line.
    pub fn database(&self) -> String {
        let mut out = String::with_capacity(self.moves.len() * 24);
        for &(x, y) in &self.moves {
            let _ = writeln!(
                out,
                "move({}, {}).",
                self.names[x as usize], self.names[y as usize]
            );
        }
        out
    }

    pub fn position_count(&self) -> usize {
        self.names.len()
    }
}

/// Sizes of the main instance (the CLI, point-read and churn workloads).
pub const DAG_NODES: usize = 12_000;
pub const POCKET_TREES: usize = 64;
pub const POCKETS_PER_TREE: usize = 64;
pub const ODD_CYCLES: usize = 500;

/// The main instance: a random acyclic region (decided positions), a
/// forest of pocket chains (ties) and isolated odd 3-cycles (undefined).
/// `shrink` divides the region sizes and the number of chains and
/// cycles (1 is full size).
pub fn main_instance(seed: u64, shrink: usize) -> Game {
    let mut rng = Rng::new(seed);
    let mut g = Game::new();
    let dag_nodes = DAG_NODES / shrink;
    let dag: Vec<u32> = (0..dag_nodes).map(|i| g.node(format!("d{i}"))).collect();
    for i in 0..dag_nodes {
        // Edges only point forward, so the region is acyclic and every
        // position in it is won or lost. About a fifth of the positions
        // have no move at all (lost), which seeds the retrograde pass.
        let out = match rng.below(10) {
            0 | 1 => 0,
            2..=4 => 2,
            5..=7 => 3,
            _ => 4,
        };
        for _ in 0..out {
            let span = (dag_nodes - i - 1).min(400);
            if span == 0 {
                break;
            }
            let j = i + 1 + rng.below(span);
            g.moves.push((dag[i], dag[j]));
        }
    }
    for t in 0..POCKET_TREES / shrink {
        let mut prev_b: Option<u32> = None;
        for k in 0..POCKETS_PER_TREE {
            let a = g.node(format!("p{t}a{k}"));
            let b = g.node(format!("p{t}b{k}"));
            g.moves.push((a, b));
            g.moves.push((b, a));
            if let Some(pb) = prev_b {
                g.moves.push((pb, a));
                g.links.push((pb, a));
            }
            prev_b = Some(b);
        }
    }
    for c in 0..ODD_CYCLES / shrink {
        let ids: Vec<u32> = (0..3).map(|i| g.node(format!("o{c}n{i}"))).collect();
        for i in 0..3 {
            g.moves.push((ids[i], ids[(i + 1) % 3]));
        }
        g.odd.extend_from_slice(&ids);
    }
    g
}

/// Sizes of the outcome-enumeration instance.
pub const CHAIN_LEN: usize = 60;
pub const DRAW_POCKETS: usize = 10;
pub const CHAIN_SHORTCUTS: usize = 20;

/// A decided chain plus independent draw pockets: `2^DRAW_POCKETS`
/// tie scripts, each giving a distinct total outcome.
pub fn outcome_instance(seed: u64) -> Game {
    let mut rng = Rng::new(seed);
    let mut g = Game::new();
    let chain: Vec<u32> = (0..CHAIN_LEN).map(|i| g.node(format!("c{i}"))).collect();
    for w in chain.windows(2) {
        g.moves.push((w[0], w[1]));
    }
    // Seeded forward shortcuts keep the chain acyclic and decided while
    // varying which positions are won; their number is fixed, so every
    // seed gives an instance of the same size.
    for k in 0..CHAIN_SHORTCUTS {
        let from = k * (CHAIN_LEN - 6) / CHAIN_SHORTCUTS + rng.below(2);
        g.moves.push((chain[from], chain[from + 2 + rng.below(4)]));
    }
    for p in 0..DRAW_POCKETS {
        let x = g.node(format!("q{p}x"));
        let y = g.node(format!("q{p}y"));
        g.moves.push((x, y));
        g.moves.push((y, x));
        g.pockets.push((x, y));
    }
    g
}

/// Zipf-like skew over `n` items: item `i` has weight `1 / (i + 1)^s`.
pub struct Skewed {
    cdf: Vec<f64>,
}

impl Skewed {
    pub fn new(n: usize, s: f64) -> Skewed {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect::<Vec<_>>();
        let total = acc;
        Skewed {
            cdf: cdf.into_iter().map(|c| c / total).collect(),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One request of a server workload.
#[derive(Clone, Debug)]
pub enum Op {
    /// `? win(p)`.
    Point(u32),
    /// `? wf`: the whole well-founded model.
    Model,
    /// `? outcomes N`.
    Outcomes(usize),
    /// Flap one pocket-chain link, then read its target in the same
    /// frame.
    Write { from: u32, to: u32, insert: bool },
}

impl Op {
    /// The `script` frame body.
    pub fn frame(&self, names: &[String]) -> String {
        match *self {
            Op::Point(p) => format!("? win({})\n", names[p as usize]),
            Op::Model => "? wf\n".to_owned(),
            Op::Outcomes(n) => format!("? outcomes {n}\n"),
            Op::Write { from, to, insert } => format!(
                "{}move({}, {}).\n? win({})\n",
                if insert { '+' } else { '-' },
                names[from as usize],
                names[to as usize],
                names[to as usize]
            ),
        }
    }
}

/// Point reads on skewed positions, with a `? wf` every so often
/// (`model_share`) and a link flap every so often (`write_share`).
/// Successive writes walk a seeded permutation of the links, so a link
/// is flapped again only after every other link has been: two writes in
/// flight at once never touch the same fact.
pub fn ops(game: &Game, seed: u64, n: usize, model_share: f64, write_share: f64) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ 0x5eed_0ff7_a3e5);
    let mut order: Vec<u32> = (0..game.position_count() as u32).collect();
    shuffle(&mut order, &mut rng);
    let skew = Skewed::new(order.len(), 0.9);
    let mut links: Vec<(u32, u32)> = game.links.clone();
    shuffle(&mut links, &mut rng);
    let mut writes = 0usize;
    (0..n)
        .map(|_| {
            let u = rng.unit();
            if u < write_share && !links.is_empty() {
                let (from, to) = links[writes % links.len()];
                let insert = (writes / links.len()) % 2 == 1;
                writes += 1;
                Op::Write { from, to, insert }
            } else if u < write_share + model_share {
                Op::Model
            } else {
                Op::Point(order[skew.sample(&mut rng)])
            }
        })
        .collect()
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}
