//! The independent answer checks: win–move played as a game. A
//! retrograde solver labels every position won, lost or drawn without
//! touching the engine; the well-founded model of
//! `win(X) :- move(X, Y), not win(Y)` is exactly that labelling.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::gen::Game;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value {
    Won,
    Lost,
    Drawn,
}

/// Retrograde analysis: a position with no move is lost; a position
/// with a move to a lost position is won; a position all of whose moves
/// reach won positions is lost; whatever is left is drawn.
pub fn solve(n: usize, moves: &[(u32, u32)]) -> Vec<Option<Value>> {
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut open = vec![0usize; n];
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(moves.len());
    for &(x, y) in moves {
        if seen.insert((x, y)) {
            preds[y as usize].push(x);
            open[x as usize] += 1;
        }
    }
    let mut value: Vec<Option<Value>> = vec![None; n];
    let mut queue: Vec<u32> = Vec::new();
    for (p, &deg) in open.iter().enumerate() {
        if deg == 0 {
            value[p] = Some(Value::Lost);
            queue.push(p as u32);
        }
    }
    while let Some(y) = queue.pop() {
        let lost = value[y as usize] == Some(Value::Lost);
        for &x in &preds[y as usize] {
            let x = x as usize;
            if value[x].is_some() {
                continue;
            }
            if lost {
                value[x] = Some(Value::Won);
                queue.push(x as u32);
            } else {
                open[x] -= 1;
                if open[x] == 0 {
                    value[x] = Some(Value::Lost);
                    queue.push(x as u32);
                }
            }
        }
    }
    value
}

/// The game, its solution and a name index, built once per instance.
pub struct Oracle {
    pub game: Game,
    pub value: Vec<Value>,
    index: HashMap<String, u32>,
    succ: Vec<Vec<u32>>,
}

impl Oracle {
    pub fn new(game: Game) -> Oracle {
        let value = solve(game.position_count(), &game.moves)
            .into_iter()
            .map(|v| v.unwrap_or(Value::Drawn))
            .collect();
        let index = game
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        let mut succ = vec![Vec::new(); game.position_count()];
        for &(x, y) in &game.moves {
            succ[x as usize].push(y);
        }
        Oracle {
            game,
            value,
            index,
            succ,
        }
    }

    pub fn name(&self, p: u32) -> &str {
        &self.game.names[p as usize]
    }

    pub fn count(&self, v: Value) -> usize {
        self.value.iter().filter(|&&x| x == v).count()
    }

    /// The expected reply line to `? win(p)`.
    pub fn point_ok(&self, p: u32, reply: &str) -> bool {
        let line = reply.trim_end();
        let Some(rest) = line.strip_prefix(&format!("win({}): ", self.name(p))) else {
            return false;
        };
        match self.value[p as usize] {
            Value::Won => rest == "true",
            Value::Drawn => rest == "undefined",
            // A position without moves has no ground `win` atom.
            Value::Lost => rest == "false" || rest == "false (not in the ground atom space)",
        }
    }

    /// Checks a `? wf` reply: the true `win` facts are the won
    /// positions, every `move` fact is listed, and the undefined count is
    /// the number of drawn positions.
    pub fn wf_ok(&self, reply: &str) -> Result<(), String> {
        let mut won = BTreeSet::new();
        let mut moves = 0usize;
        let mut undefined = 0usize;
        for line in reply.lines() {
            if let Some(name) = line.strip_prefix("win(").and_then(|r| r.strip_suffix(").")) {
                won.insert(name.to_owned());
            } else if line.starts_with("move(") {
                moves += 1;
            } else if let Some(rest) = line.strip_prefix("% partial model: ") {
                undefined = rest
                    .split_whitespace()
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("bad line {line:?}"))?;
            } else if !line.trim().is_empty() {
                return Err(format!("unexpected line {line:?}"));
            }
        }
        let expected: BTreeSet<String> = (0..self.value.len() as u32)
            .filter(|&p| self.value[p as usize] == Value::Won)
            .map(|p| self.name(p).to_owned())
            .collect();
        if won != expected {
            return Err(format!(
                "won set differs: {} reported, {} expected",
                won.len(),
                expected.len()
            ));
        }
        let distinct: HashSet<&(u32, u32)> = self.game.moves.iter().collect();
        if moves != distinct.len() {
            return Err(format!("{moves} move facts, expected {}", distinct.len()));
        }
        if undefined != self.count(Value::Drawn) {
            return Err(format!(
                "{undefined} undefined, expected {}",
                self.count(Value::Drawn)
            ));
        }
        Ok(())
    }

    /// Checks one tie-breaking model given as its true `win` positions
    /// and its undefined-atom count: it agrees with the game wherever the
    /// game decides, leaves exactly the odd-cycle positions undefined, and
    /// satisfies the three-valued fixpoint condition at every position
    /// (Lemma 2 on the tie-broken ones).
    pub fn tb_ok(&self, won: &HashSet<String>, undefined: usize) -> Result<(), String> {
        #[derive(Clone, Copy, PartialEq)]
        enum T {
            True,
            False,
            Undef,
        }
        let odd: HashSet<u32> = self.game.odd.iter().copied().collect();
        if undefined != odd.len() {
            return Err(format!("{undefined} undefined, expected {}", odd.len()));
        }
        let mut truth = vec![T::False; self.value.len()];
        for name in won {
            let Some(&p) = self.index.get(name) else {
                return Err(format!("unknown position {name}"));
            };
            if odd.contains(&p) {
                return Err(format!("odd-cycle position {name} is true"));
            }
            truth[p as usize] = T::True;
        }
        for &p in &odd {
            truth[p as usize] = T::Undef;
        }
        for p in 0..self.value.len() {
            let agrees = match self.value[p] {
                Value::Won => truth[p] == T::True,
                Value::Lost => truth[p] == T::False,
                Value::Drawn => true,
            };
            if !agrees {
                return Err(format!("{} disagrees with the game", self.name(p as u32)));
            }
            // win(p) = OR over moves of NOT win(q), in Kleene logic.
            let mut derived = T::False;
            for &q in &self.succ[p] {
                match truth[q as usize] {
                    T::False => derived = T::True,
                    T::Undef if derived == T::False => derived = T::Undef,
                    _ => {}
                }
            }
            if derived != truth[p] {
                return Err(format!("fixpoint fails at {}", self.name(p as u32)));
            }
        }
        Ok(())
    }

    /// Checks a `? outcomes N` reply against the `2^k` choices of winner
    /// in the instance's `k` independent pockets, compared as a set.
    pub fn outcomes_ok(&self, reply: &str) -> Result<(), String> {
        let mut header = None;
        let mut seen: BTreeSet<BTreeSet<String>> = BTreeSet::new();
        let mut listed = 0usize;
        for line in reply.lines() {
            if let Some(rest) = line.strip_prefix("% outcome ") {
                let (_, body) = rest
                    .split_once(": {")
                    .ok_or_else(|| format!("bad outcome line {line:.80}"))?;
                if !rest.contains("(total)") {
                    return Err(format!("partial outcome {line:.80}"));
                }
                let body = body.strip_suffix('}').unwrap_or(body);
                let won: BTreeSet<String> = body
                    .split(", ")
                    .filter_map(|f| f.strip_prefix("win(").and_then(|r| r.strip_suffix(')')))
                    .map(str::to_owned)
                    .collect();
                seen.insert(won);
                listed += 1;
            } else if line.starts_with("% ") && line.contains("distinct outcome(s)") {
                header = Some(line.to_owned());
            }
        }
        let k = self.game.pockets.len();
        let expected_count = 1usize << k;
        let header = header.ok_or("no outcome header")?;
        if header.contains("truncated") || listed != expected_count || seen.len() != listed {
            return Err(format!(
                "{listed} outcomes ({} distinct), expected {expected_count}: {header}",
                seen.len()
            ));
        }
        let decided: BTreeSet<String> = (0..self.value.len() as u32)
            .filter(|&p| self.value[p as usize] == Value::Won)
            .map(|p| self.name(p).to_owned())
            .collect();
        let mut expected: BTreeSet<BTreeSet<String>> = BTreeSet::new();
        for mask in 0..expected_count {
            let mut won = decided.clone();
            for (i, &(x, y)) in self.game.pockets.iter().enumerate() {
                let w = if mask >> i & 1 == 1 { x } else { y };
                won.insert(self.name(w).to_owned());
            }
            expected.insert(won);
        }
        if seen != expected {
            return Err("outcome set differs from the 2^k pocket choices".to_owned());
        }
        Ok(())
    }
}
