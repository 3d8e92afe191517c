//! C4.5 decision tree (the Weka **J48** equivalent).
//!
//! Implements the parts of Quinlan's C4.5 the paper's workload needs:
//!
//! * numeric attributes with threshold splits chosen by **gain ratio**
//!   (with the `log2(m)/|D|` continuous-split penalty),
//! * **missing values** by fractional instance weighting at train time
//!   and probability-weighted descent at prediction time — essential
//!   here, since different vantage-point combinations produce different
//!   missing columns,
//! * **error-based pruning** with the standard confidence-factor 0.25
//!   upper bound (Weka's `addErrs`),
//! * an interpretable dump ([`DecisionTree::to_text`]) and per-feature
//!   importance scores used for the paper's Table 4 feature ranking.
//!
//! # Training engine
//!
//! [`C45Trainer::fit`] uses a columnar, pre-sorted engine (the
//! Weka/SLIQ "sorted index" representation): each feature's row
//! indices are sorted **once per fit**, and every tree node filters
//! its parent's sorted sequences by membership instead of
//! re-collecting and re-sorting feature columns per node. This drops
//! the per-node cost from `O(features · n log n)` to
//! `O(features · n)` and removes all per-candidate allocations from
//! the split sweep. Candidate splits for different features are
//! evaluated in parallel across OS threads ([`C45Config::threads`]);
//! the search is deterministic, so the trained tree is **bit-identical
//! for any thread count** (ties between equally-scored splits resolve
//! to the lowest feature index, matching a serial left-to-right scan).
//! [`C45Trainer::fit_seed_reference`] keeps the original
//! per-node-sort implementation as a semantics oracle for tests and
//! benchmarks.

use crate::dataset::Dataset;
use crate::error::ModelParseError;
use crate::info::entropy_of_counts;

/// Depth cap for deserialised trees: bounds parser recursion and the
/// recursive `Drop`/`predict` walks on adversarial inputs. Far above
/// anything training can produce (`C45Config::max_depth` defaults
/// to 60).
const MAX_DESERIALIZED_DEPTH: usize = 512;

/// Training configuration (defaults match J48's `-C 0.25 -M 2`).
#[derive(Debug, Clone, Copy)]
pub struct C45Config {
    /// Minimum total instance weight per branch.
    pub min_leaf: f64,
    /// Pruning confidence factor (lower prunes more).
    pub cf: f64,
    /// Depth cap (safety net; C4.5 has none).
    pub max_depth: usize,
    /// Disable error-based pruning (unpruned J48 `-U`).
    pub unpruned: bool,
    /// Worker threads for the presort and split search (0 =
    /// available parallelism, 1 = serial). The result is identical
    /// for every value. Fits inside a parallel cross-validation run
    /// serially whatever this says
    /// ([`cross_validate_threads`](crate::cv::cross_validate_threads)
    /// puts its folds on the threads instead).
    pub threads: usize,
}

impl Default for C45Config {
    fn default() -> Self {
        C45Config {
            min_leaf: 2.0,
            cf: 0.25,
            max_depth: 60,
            unpruned: false,
            threads: 0,
        }
    }
}

/// A tree node.
#[derive(Debug, Clone)]
pub enum Node {
    /// Terminal node carrying the training class distribution.
    Leaf {
        /// Class weights seen at this leaf.
        dist: Vec<f64>,
    },
    /// Binary threshold split on a numeric feature.
    Split {
        /// Feature column index.
        feat: usize,
        /// Values `< thr` go low.
        thr: f64,
        /// Low branch.
        lo: Box<Node>,
        /// High branch.
        hi: Box<Node>,
        /// Fraction of known-valued training weight that went low
        /// (routes missing values).
        lo_frac: f64,
        /// Training class distribution at this node (for pruning and
        /// fallback).
        dist: Vec<f64>,
        /// Weighted information gain achieved (feature importance).
        gain_w: f64,
    },
}

/// A trained C4.5 model.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    root: Node,
    n_classes: usize,
    /// Feature names (for dumps and importances).
    pub feature_names: Vec<String>,
    /// Class names.
    pub class_names: Vec<String>,
}

fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for i in 1..v.len() {
        if v[i] > v[best] {
            best = i;
        }
    }
    best
}

impl DecisionTree {
    /// The root node (read-only; the compiled-tree flattener walks it).
    pub(crate) fn root(&self) -> &Node {
        &self.root
    }

    /// Reassemble a tree from parts — the compiled-tree → pointer-tree
    /// direction of the round-trip.
    pub(crate) fn from_parts(
        root: Node,
        n_classes: usize,
        feature_names: Vec<String>,
        class_names: Vec<String>,
    ) -> DecisionTree {
        DecisionTree {
            root,
            n_classes,
            feature_names,
            class_names,
        }
    }

    /// Class distribution predicted for an instance (missing values
    /// descend both branches, weighted).
    pub fn predict_dist(&self, x: &[f64]) -> Vec<f64> {
        fn go(node: &Node, x: &[f64], w: f64, out: &mut [f64]) {
            match node {
                Node::Leaf { dist } => {
                    let total: f64 = dist.iter().sum();
                    if total > 0.0 {
                        for (o, d) in out.iter_mut().zip(dist) {
                            *o += w * d / total;
                        }
                    }
                }
                Node::Split {
                    feat,
                    thr,
                    lo,
                    hi,
                    lo_frac,
                    ..
                } => {
                    let v = x[*feat];
                    if v.is_nan() {
                        go(lo, x, w * lo_frac, out);
                        go(hi, x, w * (1.0 - lo_frac), out);
                    } else if v < *thr {
                        go(lo, x, w, out);
                    } else {
                        go(hi, x, w, out);
                    }
                }
            }
        }
        let mut out = vec![0.0; self.n_classes];
        go(&self.root, x, 1.0, &mut out);
        out
    }

    /// Predicted class.
    pub fn predict(&self, x: &[f64]) -> usize {
        argmax(&self.predict_dist(x))
    }

    /// Node count.
    pub fn size(&self) -> usize {
        fn count(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { lo, hi, .. } => 1 + count(lo) + count(hi),
            }
        }
        count(&self.root)
    }

    /// Tree depth.
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { lo, hi, .. } => 1 + d(lo).max(d(hi)),
            }
        }
        d(&self.root)
    }

    /// Total weighted information gain contributed by each feature —
    /// the ranking used to reproduce the paper's Table 4.
    pub fn feature_importance(&self) -> Vec<f64> {
        fn acc(n: &Node, imp: &mut [f64]) {
            if let Node::Split {
                feat,
                gain_w,
                lo,
                hi,
                ..
            } = n
            {
                imp[*feat] += gain_w;
                acc(lo, imp);
                acc(hi, imp);
            }
        }
        let mut imp = vec![0.0; self.feature_names.len()];
        acc(&self.root, &mut imp);
        imp
    }

    /// Indices of the features used by at least one split, ascending —
    /// the tree-relevant schema subset that degraded-telemetry
    /// coverage is scored against (a selected feature the pruned tree
    /// never routes on cannot hurt a diagnosis by going missing).
    pub fn features_used(&self) -> Vec<usize> {
        fn walk(n: &Node, seen: &mut Vec<bool>) {
            if let Node::Split { feat, lo, hi, .. } = n {
                seen[*feat] = true;
                walk(lo, seen);
                walk(hi, seen);
            }
        }
        let mut seen = vec![false; self.feature_names.len()];
        walk(&self.root, &mut seen);
        seen.iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i))
            .collect()
    }

    /// [`DecisionTree::predict_dist`] plus a trace of how much of the
    /// prediction weight descended through at least one missing-value
    /// fallback (`lo_frac`-weighted both-branch descent). 0.0 means
    /// the instance answered every split it reached; 1.0 means every
    /// path routed around missing data — the prediction is the
    /// training prior of the regions the instance could not
    /// disambiguate.
    pub fn predict_dist_traced(&self, x: &[f64]) -> (Vec<f64>, f64) {
        fn go(node: &Node, x: &[f64], w: f64, via_missing: bool, out: &mut [f64], miss: &mut f64) {
            match node {
                Node::Leaf { dist } => {
                    let total: f64 = dist.iter().sum();
                    if total > 0.0 {
                        for (o, d) in out.iter_mut().zip(dist) {
                            *o += w * d / total;
                        }
                        if via_missing {
                            *miss += w;
                        }
                    }
                }
                Node::Split {
                    feat,
                    thr,
                    lo,
                    hi,
                    lo_frac,
                    ..
                } => {
                    let v = x[*feat];
                    if v.is_nan() {
                        go(lo, x, w * lo_frac, true, out, miss);
                        go(hi, x, w * (1.0 - lo_frac), true, out, miss);
                    } else if v < *thr {
                        go(lo, x, w, via_missing, out, miss);
                    } else {
                        go(hi, x, w, via_missing, out, miss);
                    }
                }
            }
        }
        let mut out = vec![0.0; self.n_classes];
        let mut miss = 0.0;
        go(&self.root, x, 1.0, false, &mut out, &mut miss);
        // Weight reaching empty leaves contributes to neither sum;
        // normalise the trace against the weight that did land.
        let landed: f64 = out.iter().sum();
        let miss_frac = if landed > 0.0 {
            (miss / landed).clamp(0.0, 1.0)
        } else {
            1.0
        };
        (out, miss_frac)
    }

    /// Serialise to a line-oriented text format (dependency-free model
    /// persistence; see [`DecisionTree::deserialize`]).
    ///
    /// Writes the **v2 indexed format**: after the header, class and
    /// feature lines, a `nodes\t<n>` line announces an explicit node
    /// table; each node line is `<id>\t<body>` with split bodies
    /// referencing their children by id. Node 0 is the root and ids
    /// are assigned in pre-order. The explicit table lets the parser
    /// validate every child reference (range, cycles, sharing) before
    /// building anything.
    pub fn serialize(&self) -> String {
        fn node(n: &Node, next_id: &mut usize, out: &mut Vec<String>) -> usize {
            let id = *next_id;
            *next_id += 1;
            out.push(String::new()); // reserve the slot; filled below
            let body = match n {
                Node::Leaf { dist } => {
                    let mut s = String::from("L");
                    for d in dist {
                        s.push(' ');
                        s.push_str(&format!("{d:?}"));
                    }
                    s
                }
                Node::Split {
                    feat,
                    thr,
                    lo,
                    hi,
                    lo_frac,
                    dist,
                    gain_w,
                } => {
                    let lo_id = node(lo, next_id, out);
                    let hi_id = node(hi, next_id, out);
                    let mut s = format!("S {feat} {thr:?} {lo_frac:?} {gain_w:?} {lo_id} {hi_id}");
                    for d in dist {
                        s.push(' ');
                        s.push_str(&format!("{d:?}"));
                    }
                    s
                }
            };
            out[id] = format!("{id}\t{body}");
            id
        }
        let mut table = Vec::new();
        let mut next = 0usize;
        node(&self.root, &mut next, &mut table);
        let mut s = String::from("vqd-tree v2\n");
        s.push_str(&format!("classes\t{}\n", self.class_names.join("\t")));
        s.push_str(&format!("features\t{}\n", self.feature_names.join("\t")));
        s.push_str(&format!("nodes\t{}\n", table.len()));
        for line in table {
            s.push_str(&line);
            s.push('\n');
        }
        s
    }

    /// Parse a model serialised by [`DecisionTree::serialize`].
    ///
    /// Accepts both the current v2 indexed format and the legacy v1
    /// pre-order format. Malformed input of any shape — truncated
    /// files, bad tokens, out-of-range feature or node indices, cyclic
    /// or shared child references, class-count mismatches, non-finite
    /// splits — returns a [`ModelParseError`] naming the offending
    /// line and field; the parser never panics and its work is bounded
    /// by the input size.
    pub fn deserialize(text: &str) -> Result<DecisionTree, ModelParseError> {
        let lines: Vec<&str> = text.lines().collect();
        let version = match lines.first() {
            Some(&"vqd-tree v1") => 1,
            Some(&"vqd-tree v2") => 2,
            Some(other) => {
                return Err(ModelParseError::at(
                    1,
                    "header",
                    format!("expected \"vqd-tree v1\" or \"vqd-tree v2\", got {other:?}"),
                ))
            }
            None => return Err(ModelParseError::at(0, "file", "empty input")),
        };
        let classes: Vec<String> = lines
            .get(1)
            .and_then(|l| l.strip_prefix("classes\t"))
            .ok_or_else(|| ModelParseError::at(2, "classes", "missing classes line"))?
            .split('\t')
            .map(str::to_string)
            .collect();
        let features: Vec<String> = lines
            .get(2)
            .and_then(|l| l.strip_prefix("features\t"))
            .ok_or_else(|| ModelParseError::at(3, "features", "missing features line"))?
            .split('\t')
            .map(str::to_string)
            .collect();
        if classes.is_empty() || classes.iter().any(|c| c.is_empty()) {
            return Err(ModelParseError::at(2, "classes", "empty class name"));
        }
        let root = match version {
            1 => parse_v1(&lines, features.len(), classes.len())?,
            _ => parse_v2(&lines, features.len(), classes.len())?,
        };
        Ok(DecisionTree {
            root,
            n_classes: classes.len(),
            feature_names: features,
            class_names: classes,
        })
    }

    /// Human-readable dump (the "not a black box" property the paper
    /// highlights).
    pub fn to_text(&self) -> String {
        fn fmt(n: &Node, names: &[String], classes: &[String], ind: usize, s: &mut String) {
            let pad = "  ".repeat(ind);
            match n {
                Node::Leaf { dist } => {
                    let total: f64 = dist.iter().sum();
                    let c = argmax(dist);
                    s.push_str(&format!(
                        "{pad}=> {} ({total:.1})\n",
                        classes.get(c).map(String::as_str).unwrap_or("?")
                    ));
                }
                Node::Split {
                    feat, thr, lo, hi, ..
                } => {
                    s.push_str(&format!("{pad}{} < {thr:.4}:\n", names[*feat]));
                    fmt(lo, names, classes, ind + 1, s);
                    s.push_str(&format!("{pad}{} >= {thr:.4}:\n", names[*feat]));
                    fmt(hi, names, classes, ind + 1, s);
                }
            }
        }
        let mut s = String::new();
        fmt(
            &self.root,
            &self.feature_names,
            &self.class_names,
            0,
            &mut s,
        );
        s
    }
}

/// Parse one `f64` token, requiring it to be finite.
fn parse_finite(tok: Option<&str>, line: usize, field: &str) -> Result<f64, ModelParseError> {
    let t = tok.ok_or_else(|| ModelParseError::at(line, field, "missing value"))?;
    let v: f64 = t
        .parse()
        .map_err(|_| ModelParseError::at(line, field, format!("bad float {t:?}")))?;
    if !v.is_finite() {
        return Err(ModelParseError::at(
            line,
            field,
            format!("non-finite value {v}"),
        ));
    }
    Ok(v)
}

/// Parse the trailing class distribution of a node body: exactly
/// `n_classes` finite, non-negative weights.
fn parse_dist<'a>(
    tok: impl Iterator<Item = &'a str>,
    n_classes: usize,
    line: usize,
) -> Result<Vec<f64>, ModelParseError> {
    let mut dist = Vec::with_capacity(n_classes);
    for t in tok {
        let v = parse_finite(Some(t), line, "dist")?;
        if v < 0.0 {
            return Err(ModelParseError::at(
                line,
                "dist",
                format!("negative class weight {v}"),
            ));
        }
        dist.push(v);
    }
    if dist.len() != n_classes {
        return Err(ModelParseError::at(
            line,
            "dist",
            format!(
                "class-count mismatch: {} weights for {} classes",
                dist.len(),
                n_classes
            ),
        ));
    }
    Ok(dist)
}

/// Parse the `feat thr lo_frac gain_w` head of a split body.
fn parse_split_head<'a>(
    tok: &mut impl Iterator<Item = &'a str>,
    nf: usize,
    line: usize,
) -> Result<(usize, f64, f64, f64), ModelParseError> {
    let feat_tok = tok
        .next()
        .ok_or_else(|| ModelParseError::at(line, "feat", "missing value"))?;
    let feat: usize = feat_tok
        .parse()
        .map_err(|_| ModelParseError::at(line, "feat", format!("bad index {feat_tok:?}")))?;
    if feat >= nf {
        return Err(ModelParseError::at(
            line,
            "feat",
            format!("feature index {feat} out of range ({nf} features)"),
        ));
    }
    let thr = parse_finite(tok.next(), line, "thr")?;
    let lo_frac = parse_finite(tok.next(), line, "lo_frac")?;
    if !(0.0..=1.0).contains(&lo_frac) {
        return Err(ModelParseError::at(
            line,
            "lo_frac",
            format!("missing-value fraction {lo_frac} outside [0, 1]"),
        ));
    }
    let gain_w = parse_finite(tok.next(), line, "gain_w")?;
    Ok((feat, thr, lo_frac, gain_w))
}

/// Legacy v1 pre-order parser: node lines follow the features line,
/// splits listing their two children immediately after themselves.
/// Recursion is capped at [`MAX_DESERIALIZED_DEPTH`], so adversarially
/// deep chains of `S` lines error out instead of overflowing the
/// stack.
fn parse_v1(lines: &[&str], nf: usize, n_classes: usize) -> Result<Node, ModelParseError> {
    fn parse(
        lines: &[&str],
        pos: &mut usize,
        nf: usize,
        n_classes: usize,
        depth: usize,
    ) -> Result<Node, ModelParseError> {
        if depth > MAX_DESERIALIZED_DEPTH {
            return Err(ModelParseError::at(
                *pos + 1,
                "tree",
                format!("tree deeper than {MAX_DESERIALIZED_DEPTH} (corrupt or adversarial)"),
            ));
        }
        let line_no = *pos + 1; // 1-based for messages
        let line = lines
            .get(*pos)
            .ok_or_else(|| ModelParseError::at(line_no, "tree", "unexpected end of tree"))?;
        *pos += 1;
        let mut tok = line.split(' ');
        match tok.next() {
            Some("L") => Ok(Node::Leaf {
                dist: parse_dist(tok, n_classes, line_no)?,
            }),
            Some("S") => {
                let (feat, thr, lo_frac, gain_w) = parse_split_head(&mut tok, nf, line_no)?;
                let dist = parse_dist(tok, n_classes, line_no)?;
                let lo = Box::new(parse(lines, pos, nf, n_classes, depth + 1)?);
                let hi = Box::new(parse(lines, pos, nf, n_classes, depth + 1)?);
                Ok(Node::Split {
                    feat,
                    thr,
                    lo,
                    hi,
                    lo_frac,
                    dist,
                    gain_w,
                })
            }
            other => Err(ModelParseError::at(
                line_no,
                "node",
                format!("bad node tag {other:?}"),
            )),
        }
    }
    let mut pos = 3;
    let root = parse(lines, &mut pos, nf, n_classes, 0)?;
    if pos < lines.len() && lines[pos..].iter().any(|l| !l.is_empty()) {
        return Err(ModelParseError::at(
            pos + 1,
            "tree",
            "trailing data after the tree",
        ));
    }
    Ok(root)
}

/// Untyped node-table entry of the v2 format, before linking.
enum RawNode {
    Leaf(Vec<f64>),
    Split {
        feat: usize,
        thr: f64,
        lo_frac: f64,
        gain_w: f64,
        lo: usize,
        hi: usize,
        dist: Vec<f64>,
    },
}

/// v2 indexed parser: a `nodes\t<n>` line announces the table, node
/// lines are `<id>\t<body>` with children referenced by id, node 0 is
/// the root. Every reference is validated — range, sharing, cycles,
/// unreachable entries — before the tree is linked.
fn parse_v2(lines: &[&str], nf: usize, n_classes: usize) -> Result<Node, ModelParseError> {
    let count_line = lines
        .get(3)
        .and_then(|l| l.strip_prefix("nodes\t"))
        .ok_or_else(|| ModelParseError::at(4, "nodes", "missing nodes line"))?;
    let n: usize = count_line
        .parse()
        .map_err(|_| ModelParseError::at(4, "nodes", format!("bad node count {count_line:?}")))?;
    if n == 0 {
        return Err(ModelParseError::at(4, "nodes", "empty node table"));
    }
    if lines.len() < 4 + n {
        return Err(ModelParseError::at(
            lines.len(),
            "nodes",
            format!(
                "node table truncated: {} of {n} node lines present",
                lines.len() - 4
            ),
        ));
    }
    if lines[4 + n..].iter().any(|l| !l.is_empty()) {
        return Err(ModelParseError::at(
            4 + n + 1,
            "nodes",
            "trailing data after the node table",
        ));
    }
    let mut table: Vec<RawNode> = Vec::with_capacity(n);
    for (i, line) in lines[4..4 + n].iter().enumerate() {
        let line_no = 5 + i; // 1-based
        let (id_tok, body) = line.split_once('\t').ok_or_else(|| {
            ModelParseError::at(line_no, "node", "missing <id>\\t<body> separator")
        })?;
        let id: usize = id_tok
            .parse()
            .map_err(|_| ModelParseError::at(line_no, "node", format!("bad id {id_tok:?}")))?;
        if id != i {
            return Err(ModelParseError::at(
                line_no,
                "node",
                format!("node id {id} out of order (expected {i})"),
            ));
        }
        let mut tok = body.split(' ');
        let raw = match tok.next() {
            Some("L") => RawNode::Leaf(parse_dist(tok, n_classes, line_no)?),
            Some("S") => {
                let (feat, thr, lo_frac, gain_w) = parse_split_head(&mut tok, nf, line_no)?;
                let mut child = |field: &str| -> Result<usize, ModelParseError> {
                    let t = tok
                        .next()
                        .ok_or_else(|| ModelParseError::at(line_no, field, "missing child id"))?;
                    let c: usize = t.parse().map_err(|_| {
                        ModelParseError::at(line_no, field, format!("bad child id {t:?}"))
                    })?;
                    if c >= n {
                        return Err(ModelParseError::at(
                            line_no,
                            field,
                            format!("child id {c} out of range ({n} nodes)"),
                        ));
                    }
                    Ok(c)
                };
                let lo = child("lo_id")?;
                let hi = child("hi_id")?;
                RawNode::Split {
                    feat,
                    thr,
                    lo_frac,
                    gain_w,
                    lo,
                    hi,
                    dist: parse_dist(tok, n_classes, line_no)?,
                }
            }
            other => {
                return Err(ModelParseError::at(
                    line_no,
                    "node",
                    format!("bad node tag {other:?}"),
                ))
            }
        };
        table.push(raw);
    }
    // Link from the root. Each node may be consumed exactly once: a
    // repeat visit is a cycle or a shared child, both rejected — so the
    // walk terminates after at most `n` steps by construction.
    fn link(
        table: &[RawNode],
        used: &mut [bool],
        id: usize,
        depth: usize,
    ) -> Result<Node, ModelParseError> {
        let line_no = 5 + id;
        if used[id] {
            return Err(ModelParseError::at(
                line_no,
                "node",
                format!("node {id} referenced more than once (cycle or shared child)"),
            ));
        }
        used[id] = true;
        if depth > MAX_DESERIALIZED_DEPTH {
            return Err(ModelParseError::at(
                line_no,
                "tree",
                format!("tree deeper than {MAX_DESERIALIZED_DEPTH} (corrupt or adversarial)"),
            ));
        }
        match &table[id] {
            RawNode::Leaf(dist) => Ok(Node::Leaf { dist: dist.clone() }),
            RawNode::Split {
                feat,
                thr,
                lo_frac,
                gain_w,
                lo,
                hi,
                dist,
            } => Ok(Node::Split {
                feat: *feat,
                thr: *thr,
                lo_frac: *lo_frac,
                gain_w: *gain_w,
                dist: dist.clone(),
                lo: Box::new(link(table, used, *lo, depth + 1)?),
                hi: Box::new(link(table, used, *hi, depth + 1)?),
            }),
        }
    }
    let mut used = vec![false; n];
    let root = link(&table, &mut used, 0, 0)?;
    if let Some(orphan) = used.iter().position(|&u| !u) {
        return Err(ModelParseError::at(
            5 + orphan,
            "node",
            format!("node {orphan} unreachable from the root"),
        ));
    }
    Ok(root)
}

/// Inverse standard-normal CDF (Beasley–Springer–Moro approximation).
fn norm_quantile(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    let a = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    let b = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    let c = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    let d = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let plow = 0.02425;
    if p < plow {
        let q = (-2.0 * p.ln()).sqrt();
        (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
            / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    } else if p <= 1.0 - plow {
        let q = p - 0.5;
        let r = q * q;
        (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    } else {
        -norm_quantile(1.0 - p)
    }
}

/// Weka's `Stats.addErrs`: extra errors charged to a leaf by the
/// binomial upper confidence bound.
fn add_errs(n: f64, e: f64, cf: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    if e < 1.0 {
        let base = n * (1.0 - cf.powf(1.0 / n));
        if e <= 0.0 {
            return base;
        }
        return base + e * (add_errs(n, 1.0, cf) - base);
    }
    if e + 0.5 >= n {
        return (n - e).max(0.0);
    }
    let z = norm_quantile(1.0 - cf);
    let f = (e + 0.5) / n;
    let r = (f + z * z / (2.0 * n) + z * (f / n - f * f / n + z * z / (4.0 * n * n)).sqrt())
        / (1.0 + z * z / n);
    (r * n - e).max(0.0)
}

/// C4.5 trainer.
#[derive(Debug, Clone, Copy, Default)]
pub struct C45Trainer {
    /// Configuration.
    pub cfg: C45Config,
}

/// Resolve a thread-count knob (0 = available parallelism).
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Winning candidate of one feature's split sweep.
#[derive(Debug, Clone, Copy)]
struct FeatSplit {
    ratio: f64,
    thr: f64,
    gain: f64,
    lo_w: f64,
    known_w: f64,
}

/// One node's working set in the pre-sorted representation: the member
/// rows (compact ids + fractional weights, in parent order) and, per
/// feature, the member rows with a known value for that feature in
/// ascending value order. Children filter these sequences — order is
/// preserved, so no node ever sorts.
struct NodeCtx {
    rows: Vec<(u32, f64)>,
    order: Vec<Vec<u32>>,
}

/// Reusable per-worker buffers for the split sweep: one contiguous
/// gather of a feature's (value, class, weight) triples plus the three
/// class-count vectors. Reuse keeps the sweep allocation-free.
struct Scratch {
    gathered: Vec<(f64, u32, f64)>,
    known_dist: Vec<f64>,
    left: Vec<f64>,
    right: Vec<f64>,
    /// Integer twins of `known_dist`/`left`, used by the unit-weight
    /// sweep specialisation (see [`Engine::eval_feature`]).
    known_dist_i: Vec<u32>,
    left_i: Vec<u32>,
}

impl Scratch {
    fn new(n_classes: usize) -> Scratch {
        Scratch {
            gathered: Vec::new(),
            known_dist: vec![0.0; n_classes],
            left: vec![0.0; n_classes],
            right: vec![0.0; n_classes],
            known_dist_i: vec![0; n_classes],
            left_i: vec![0; n_classes],
        }
    }
}

/// Columnar training state shared by every node of one `fit` call.
///
/// `cols` is a column-major copy of the training rows (compact row ids
/// `0..rows.len()` in the order the caller passed them), `y` the class
/// per compact id. `-0.0` is normalised to `+0.0` in the copy so that
/// the total order used for pre-sorting agrees exactly with the `<`
/// comparisons of the split sweep.
struct Engine {
    cfg: C45Config,
    cols: Vec<Vec<f64>>,
    y: Vec<u32>,
    n_classes: usize,
    threads: usize,
    /// Observability snapshot taken once at fit start; when false the
    /// split-search timing below is skipped entirely (no clock reads).
    obs_on: bool,
    /// Cumulative wall time spent in [`Engine::best_split`], ns.
    split_ns: std::sync::atomic::AtomicU64,
    /// Number of split searches performed.
    split_calls: std::sync::atomic::AtomicU64,
}

impl Engine {
    /// Per-feature sorted compact-id sequences for the root node.
    /// Sorted by (value, compact id): stable with respect to the
    /// caller's row order, exactly like a stable per-node sort.
    fn presort(&self) -> Vec<Vec<u32>> {
        let nf = self.cols.len();
        let sort_one = |j: usize| -> Vec<u32> {
            let col = &self.cols[j];
            let mut idx: Vec<u32> = (0..col.len() as u32)
                .filter(|&c| !col[c as usize].is_nan())
                .collect();
            idx.sort_unstable_by(|&a, &b| {
                col[a as usize].total_cmp(&col[b as usize]).then(a.cmp(&b))
            });
            idx
        };
        if self.threads <= 1 || nf < 2 {
            return (0..nf).map(sort_one).collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let out: Vec<std::sync::Mutex<Vec<u32>>> =
            (0..nf).map(|_| std::sync::Mutex::new(Vec::new())).collect();
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(nf) {
                s.spawn(|| loop {
                    let j = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if j >= nf {
                        break;
                    }
                    *out[j]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = sort_one(j);
                });
            }
        });
        out.into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            })
            .collect()
    }

    fn dist_of(&self, rows: &[(u32, f64)]) -> Vec<f64> {
        let mut d = vec![0.0; self.n_classes];
        for &(c, w) in rows {
            d[self.y[c as usize] as usize] += w;
        }
        d
    }

    fn build(
        &self,
        ctx: NodeCtx,
        depth: usize,
        weights: &mut [f64],
        side: &mut [u8],
        scratch: &mut Scratch,
    ) -> Node {
        let dist = self.dist_of(&ctx.rows);
        let total: f64 = dist.iter().sum();
        let pure = dist.iter().filter(|&&w| w > 0.0).count() <= 1;
        if pure || total < 2.0 * self.cfg.min_leaf || depth >= self.cfg.max_depth {
            return Node::Leaf { dist };
        }
        for &(c, w) in &ctx.rows {
            weights[c as usize] = w;
        }
        let best = if self.obs_on {
            let t0 = std::time::Instant::now();
            let b = self.best_split(&ctx, weights, total, scratch);
            self.split_ns.fetch_add(
                t0.elapsed().as_nanos() as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
            self.split_calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            b
        } else {
            self.best_split(&ctx, weights, total, scratch)
        };
        for &(c, _) in &ctx.rows {
            weights[c as usize] = 0.0;
        }
        let Some((feat, thr, gain_w, lo_frac)) = best else {
            return Node::Leaf { dist };
        };
        // Partition the member rows (parent order preserved), recording
        // each member's side in a compact per-row byte so the
        // per-feature filtering below reads one byte instead of
        // re-deriving the comparison from the split column.
        const LO: u8 = 0;
        const HI: u8 = 1;
        const BOTH: u8 = 2;
        let split_col = &self.cols[feat];
        let mut lo_rows = Vec::with_capacity(ctx.rows.len());
        let mut hi_rows = Vec::with_capacity(ctx.rows.len());
        for &(c, w) in &ctx.rows {
            let v = split_col[c as usize];
            if v.is_nan() {
                side[c as usize] = BOTH;
                if lo_frac > 0.0 {
                    lo_rows.push((c, w * lo_frac));
                }
                if lo_frac < 1.0 {
                    hi_rows.push((c, w * (1.0 - lo_frac)));
                }
            } else if v < thr {
                side[c as usize] = LO;
                lo_rows.push((c, w));
            } else {
                side[c as usize] = HI;
                hi_rows.push((c, w));
            }
        }
        if lo_rows.is_empty() || hi_rows.is_empty() {
            return Node::Leaf { dist };
        }
        // Filter each feature's sorted sequence into the children;
        // order is preserved, so children never sort either.
        let nf = ctx.order.len();
        let mut lo_order: Vec<Vec<u32>> = Vec::with_capacity(nf);
        let mut hi_order: Vec<Vec<u32>> = Vec::with_capacity(nf);
        for list in &ctx.order {
            let mut lo_list = Vec::with_capacity(list.len().min(lo_rows.len()));
            let mut hi_list = Vec::with_capacity(list.len().min(hi_rows.len()));
            for &c in list {
                match side[c as usize] {
                    LO => lo_list.push(c),
                    HI => hi_list.push(c),
                    _ => {
                        if lo_frac > 0.0 {
                            lo_list.push(c);
                        }
                        if lo_frac < 1.0 {
                            hi_list.push(c);
                        }
                    }
                }
            }
            lo_order.push(lo_list);
            hi_order.push(hi_list);
        }
        drop(ctx);
        let lo = Box::new(self.build(
            NodeCtx {
                rows: lo_rows,
                order: lo_order,
            },
            depth + 1,
            weights,
            side,
            scratch,
        ));
        let hi = Box::new(self.build(
            NodeCtx {
                rows: hi_rows,
                order: hi_order,
            },
            depth + 1,
            weights,
            side,
            scratch,
        ));
        Node::Split {
            feat,
            thr,
            lo,
            hi,
            lo_frac,
            dist,
            gain_w,
        }
    }

    /// Best (feature, threshold, weighted gain, lo fraction) by gain
    /// ratio over the pre-sorted sequences. Feature sweeps are
    /// independent; large nodes fan them out across threads. The merge
    /// scans candidates in feature order with a strict `>`, so ties
    /// resolve to the lowest feature index no matter how many threads
    /// ran — the result is identical to a serial scan.
    fn best_split(
        &self,
        ctx: &NodeCtx,
        weights: &[f64],
        total: f64,
        scratch: &mut Scratch,
    ) -> Option<(usize, f64, f64, f64)> {
        let nf = ctx.order.len();
        let work: usize = ctx.order.iter().map(Vec::len).sum();
        let evals: Vec<Option<FeatSplit>> =
            if self.threads > 1 && nf >= 2 && work * self.n_classes > 64 * 1024 {
                let next = std::sync::atomic::AtomicUsize::new(0);
                let slots: Vec<std::sync::Mutex<Option<FeatSplit>>> =
                    (0..nf).map(|_| std::sync::Mutex::new(None)).collect();
                std::thread::scope(|s| {
                    for _ in 0..self.threads.min(nf) {
                        s.spawn(|| {
                            let mut local = Scratch::new(self.n_classes);
                            loop {
                                let j = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                if j >= nf {
                                    break;
                                }
                                *slots[j]
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner) =
                                    self.eval_feature(j, &ctx.order[j], weights, total, &mut local);
                            }
                        });
                    }
                });
                slots
                    .into_iter()
                    .map(|m| {
                        m.into_inner()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                    })
                    .collect()
            } else {
                (0..nf)
                    .map(|j| self.eval_feature(j, &ctx.order[j], weights, total, scratch))
                    .collect()
            };
        let mut best: Option<(usize, f64, f64, f64)> = None;
        let mut best_ratio = 0.0f64;
        for (feat, eval) in evals.into_iter().enumerate() {
            let Some(e) = eval else { continue };
            if e.ratio > best_ratio {
                best_ratio = e.ratio;
                best = Some((feat, e.thr, e.gain * total, e.lo_w / e.known_w));
            }
        }
        best
    }

    /// Sweep one feature's sorted member sequence for its best
    /// threshold. Arithmetically step-for-step identical to the seed
    /// implementation's per-node sweep (same accumulation order), minus
    /// the per-node sort and the per-candidate allocations: a pre-pass
    /// over the sorted ids computes the known-weight totals, then the
    /// sweep runs over the same ids (the fast unit-weight variant reads
    /// the columns in place; the weighted variant copies the triples
    /// into contiguous scratch first).
    fn eval_feature(
        &self,
        feat: usize,
        list: &[u32],
        weights: &[f64],
        total: f64,
        scratch: &mut Scratch,
    ) -> Option<FeatSplit> {
        if list.len() < 4 {
            return None;
        }
        // Pre-pass. `known_w` and `known_dist` are independent
        // accumulators, each summed in list order — the same order the
        // seed implementation uses in its two separate passes, so the
        // sums are bit-identical.
        for d in scratch.known_dist.iter_mut() {
            *d = 0.0;
        }
        let mut known_w = 0.0;
        let mut unit_weights = true;
        let col = &self.cols[feat];
        for &c in list {
            let ci = c as usize;
            let (y, w) = (self.y[ci], weights[ci]);
            known_w += w;
            unit_weights &= w == 1.0;
            scratch.known_dist[y as usize] += w;
        }
        if known_w < 2.0 * self.cfg.min_leaf {
            return None;
        }
        // Clamped: float cancellation in `total - known_w` must not
        // feed a negative count into `entropy_of_counts` (NaN gain).
        let miss_w = (total - known_w).max(0.0);
        let frac_known = known_w / total;
        let h = entropy_of_counts(&scratch.known_dist);
        if h == 0.0 {
            return None;
        }
        // Sweep over the contiguous gather. `left`/`right` are reused
        // across candidates — the seed implementation allocated
        // `right` per candidate.
        let mut candidates = 0u32;
        let mut feat_best: Option<(f64, f64, f64)> = None; // (thr, gain, lo_w)
        let min_leaf = self.cfg.min_leaf;
        if unit_weights && known_w < crate::info::LOG_TABLE_LEN as f64 {
            // Unit-weight specialisation: every weight in this node is
            // exactly 1.0 (no fractional missing-value split above us),
            // so the left/right class counts are exact small integers
            // and `entropy_of_counts` would take its table branch on
            // every candidate. Inline that branch — identical table
            // lookups, identical add/divide order — and keep the
            // counts in `u32`s. Bit-identical gains, no per-candidate
            // function calls and no gather copy.
            let (klogk, logk) = crate::info::log_tables();
            for (li, &d) in scratch.known_dist_i.iter_mut().zip(&scratch.known_dist) {
                *li = d as u32;
            }
            for l in scratch.left_i.iter_mut() {
                *l = 0;
            }
            let known_n = list.len() as u32;
            let mut lo_n = 0u32;
            for i in 0..list.len() - 1 {
                let ci = list[i] as usize;
                let (v, y) = (col[ci], self.y[ci]);
                scratch.left_i[y as usize] += 1;
                lo_n += 1;
                let v_next = col[list[i + 1] as usize];
                if v == v_next {
                    continue;
                }
                candidates += 1;
                let left_w = lo_n as f64;
                let right_w = known_w - left_w;
                if left_w < min_leaf || right_w < min_leaf {
                    continue;
                }
                let (mut s_l, mut s_r) = (0.0, 0.0);
                let (mut nz_l, mut nz_r) = (0u32, 0u32);
                for (&lc_u, &kd_u) in scratch.left_i.iter().zip(&scratch.known_dist_i) {
                    let lc = lc_u as usize;
                    let rc = (kd_u - lc_u) as usize;
                    s_l += klogk[lc];
                    s_r += klogk[rc];
                    nz_l += (lc > 0) as u32;
                    nz_r += (rc > 0) as u32;
                }
                let h_l = if nz_l <= 1 {
                    0.0
                } else {
                    logk[lo_n as usize] - s_l / left_w
                };
                let h_r = if nz_r <= 1 {
                    0.0
                } else {
                    logk[(known_n - lo_n) as usize] - s_r / right_w
                };
                let h_split = (left_w * h_l + right_w * h_r) / known_w;
                let gain = frac_known * (h - h_split);
                if feat_best
                    .map(|(_, best_g, _)| gain > best_g)
                    .unwrap_or(true)
                {
                    feat_best = Some(((v + v_next) / 2.0, gain, left_w));
                }
            }
        } else {
            // Weighted sweep: gather the triples into contiguous
            // scratch first (the weights make the entropy counts
            // fractional, so the generic entropy path applies).
            scratch.gathered.clear();
            scratch.gathered.reserve(list.len());
            for &c in list {
                let ci = c as usize;
                scratch.gathered.push((col[ci], self.y[ci], weights[ci]));
            }
            for l in scratch.left.iter_mut() {
                *l = 0.0;
            }
            let mut left_w = 0.0;
            let g = &scratch.gathered;
            for i in 0..g.len() - 1 {
                let (v, y, w) = g[i];
                scratch.left[y as usize] += w;
                left_w += w;
                let v_next = g[i + 1].0;
                if v == v_next {
                    continue;
                }
                candidates += 1;
                let right_w = known_w - left_w;
                if left_w < self.cfg.min_leaf || right_w < self.cfg.min_leaf {
                    continue;
                }
                for (r, (&t, &l)) in scratch
                    .right
                    .iter_mut()
                    .zip(scratch.known_dist.iter().zip(&scratch.left))
                {
                    *r = t - l;
                }
                let h_split = (left_w * entropy_of_counts(&scratch.left)
                    + right_w * entropy_of_counts(&scratch.right))
                    / known_w;
                let gain = frac_known * (h - h_split);
                if feat_best
                    .map(|(_, best_g, _)| gain > best_g)
                    .unwrap_or(true)
                {
                    feat_best = Some(((v + v_next) / 2.0, gain, left_w));
                }
            }
        }
        let (thr, mut gain, lo_w) = feat_best?;
        if candidates == 0 {
            return None;
        }
        // C4.5 continuous-attribute penalty.
        gain -= (candidates as f64).log2() / list.len() as f64;
        if gain <= 1e-9 {
            return None;
        }
        // Split info over {lo, hi, missing} shares of total weight.
        let hi_w = known_w - lo_w;
        let si = entropy_of_counts(&[lo_w, hi_w, miss_w]);
        if si <= 1e-9 {
            return None;
        }
        Some(FeatSplit {
            ratio: gain / si,
            thr,
            gain,
            lo_w,
            known_w,
        })
    }
}

impl C45Trainer {
    /// Train on the rows `rows` of `data` (pass `0..len` for all;
    /// row indices must be distinct).
    ///
    /// Uses the columnar pre-sorted engine (see the module docs): each
    /// feature is sorted once, nodes filter the sorted sequences, and
    /// the per-node split search runs across [`C45Config::threads`]
    /// worker threads. The trained tree is bit-identical for every
    /// thread count, and matches [`C45Trainer::fit_seed_reference`].
    pub fn fit(&self, data: &Dataset, rows: &[usize]) -> DecisionTree {
        debug_assert!(
            {
                let mut seen = std::collections::HashSet::new();
                rows.iter().all(|r| seen.insert(*r))
            },
            "fit requires distinct row indices"
        );
        assert!(
            rows.len() < u32::MAX as usize,
            "row count exceeds u32 range"
        );
        let nf = data.n_features();
        // Column-major copy of the training rows, compact ids in
        // caller order; -0.0 normalised so value ties are exact.
        let cols: Vec<Vec<f64>> = (0..nf)
            .map(|j| {
                rows.iter()
                    .map(|&r| {
                        let v = data.x[r][j];
                        if v == 0.0 {
                            0.0
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect();
        let y: Vec<u32> = rows.iter().map(|&r| data.y[r] as u32).collect();
        let obs_on = vqd_obs::enabled();
        let fit_t0 = obs_on.then(std::time::Instant::now);
        let engine = Engine {
            cfg: self.cfg,
            cols,
            y,
            n_classes: data.n_classes(),
            threads: resolve_threads(self.cfg.threads),
            obs_on,
            split_ns: std::sync::atomic::AtomicU64::new(0),
            split_calls: std::sync::atomic::AtomicU64::new(0),
        };
        let order = engine.presort();
        let root_rows: Vec<(u32, f64)> = (0..rows.len() as u32).map(|c| (c, 1.0)).collect();
        let mut weights = vec![0.0; rows.len()];
        let mut side = vec![0u8; rows.len()];
        let mut scratch = Scratch::new(data.n_classes());
        let mut root = engine.build(
            NodeCtx {
                rows: root_rows,
                order,
            },
            0,
            &mut weights,
            &mut side,
            &mut scratch,
        );
        if !self.cfg.unpruned {
            prune(&mut root, self.cfg.cf);
        }
        let tree = DecisionTree {
            root,
            n_classes: data.n_classes(),
            feature_names: data.features.clone(),
            class_names: data.classes.clone(),
        };
        if let Some(t0) = fit_t0 {
            let r = vqd_obs::recorder();
            r.counter_add("ml.fit.count", 1);
            r.counter_add(
                "ml.fit.split_searches",
                engine
                    .split_calls
                    .load(std::sync::atomic::Ordering::Relaxed),
            );
            r.hist_record("ml.fit.rows", rows.len() as f64);
            r.hist_record("ml.fit.nodes", tree.size() as f64);
            r.hist_record("ml.fit.depth", tree.depth() as f64);
            r.hist_record("ml.fit.wall_ms", t0.elapsed().as_secs_f64() * 1e3);
            r.hist_record(
                "ml.fit.split_search_ms",
                engine.split_ns.load(std::sync::atomic::Ordering::Relaxed) as f64 / 1e6,
            );
        }
        tree
    }

    /// The seed's original training path: per-node column collection
    /// and sorting, serial split search. Kept as the semantics oracle —
    /// [`C45Trainer::fit`] must produce byte-identical trees — and as
    /// the baseline for the `micro` benchmark's before/after
    /// comparison.
    pub fn fit_seed_reference(&self, data: &Dataset, rows: &[usize]) -> DecisionTree {
        let weighted: Vec<(usize, f64)> = rows.iter().map(|&r| (r, 1.0)).collect();
        let mut root = self.build_rowwise(data, &weighted, 0);
        if !self.cfg.unpruned {
            prune(&mut root, self.cfg.cf);
        }
        DecisionTree {
            root,
            n_classes: data.n_classes(),
            feature_names: data.features.clone(),
            class_names: data.classes.clone(),
        }
    }

    fn dist(&self, data: &Dataset, rows: &[(usize, f64)]) -> Vec<f64> {
        let mut d = vec![0.0; data.n_classes()];
        for &(r, w) in rows {
            d[data.y[r]] += w;
        }
        d
    }

    fn build_rowwise(&self, data: &Dataset, rows: &[(usize, f64)], depth: usize) -> Node {
        let dist = self.dist(data, rows);
        let total: f64 = dist.iter().sum();
        let pure = dist.iter().filter(|&&w| w > 0.0).count() <= 1;
        if pure || total < 2.0 * self.cfg.min_leaf || depth >= self.cfg.max_depth {
            return Node::Leaf { dist };
        }
        let Some(best) = self.best_split_rowwise(data, rows, total) else {
            return Node::Leaf { dist };
        };
        let (feat, thr, gain_w, lo_frac) = best;
        // Partition.
        let mut lo_rows = Vec::new();
        let mut hi_rows = Vec::new();
        for &(r, w) in rows {
            let v = data.x[r][feat];
            if v.is_nan() {
                if lo_frac > 0.0 {
                    lo_rows.push((r, w * lo_frac));
                }
                if lo_frac < 1.0 {
                    hi_rows.push((r, w * (1.0 - lo_frac)));
                }
            } else if v < thr {
                lo_rows.push((r, w));
            } else {
                hi_rows.push((r, w));
            }
        }
        if lo_rows.is_empty() || hi_rows.is_empty() {
            return Node::Leaf { dist };
        }
        let lo = Box::new(self.build_rowwise(data, &lo_rows, depth + 1));
        let hi = Box::new(self.build_rowwise(data, &hi_rows, depth + 1));
        Node::Split {
            feat,
            thr,
            lo,
            hi,
            lo_frac,
            dist,
            gain_w,
        }
    }

    /// Best (feature, threshold, weighted gain, lo fraction) by gain
    /// ratio — the seed's per-node collect-and-sort search.
    fn best_split_rowwise(
        &self,
        data: &Dataset,
        rows: &[(usize, f64)],
        total: f64,
    ) -> Option<(usize, f64, f64, f64)> {
        let n_classes = data.n_classes();
        let mut best: Option<(usize, f64, f64, f64)> = None;
        let mut best_ratio = 0.0f64;
        for feat in 0..data.n_features() {
            let mut known: Vec<(f64, usize, f64)> = rows
                .iter()
                .filter_map(|&(r, w)| {
                    let v = data.x[r][feat];
                    (!v.is_nan()).then_some((v, data.y[r], w))
                })
                .collect();
            if known.len() < 4 {
                continue;
            }
            known.sort_by(|a, b| a.0.total_cmp(&b.0));
            let known_w: f64 = known.iter().map(|k| k.2).sum();
            if known_w < 2.0 * self.cfg.min_leaf {
                continue;
            }
            let miss_w = (total - known_w).max(0.0);
            let frac_known = known_w / total;
            let mut known_dist = vec![0.0; n_classes];
            for &(_, c, w) in &known {
                known_dist[c] += w;
            }
            let h = entropy_of_counts(&known_dist);
            if h == 0.0 {
                continue;
            }
            // Sweep.
            let mut left = vec![0.0; n_classes];
            let mut left_w = 0.0;
            let mut candidates = 0u32;
            let mut feat_best: Option<(f64, f64, f64)> = None; // (thr, gain, lo_w)
            for i in 0..known.len() - 1 {
                left[known[i].1] += known[i].2;
                left_w += known[i].2;
                if known[i].0 == known[i + 1].0 {
                    continue;
                }
                candidates += 1;
                let right_w = known_w - left_w;
                if left_w < self.cfg.min_leaf || right_w < self.cfg.min_leaf {
                    continue;
                }
                let right: Vec<f64> = known_dist.iter().zip(&left).map(|(&t, &l)| t - l).collect();
                let h_split = (left_w * entropy_of_counts(&left)
                    + right_w * entropy_of_counts(&right))
                    / known_w;
                let gain = frac_known * (h - h_split);
                if feat_best.map(|(_, g, _)| gain > g).unwrap_or(true) {
                    let thr = (known[i].0 + known[i + 1].0) / 2.0;
                    feat_best = Some((thr, gain, left_w));
                }
            }
            let Some((thr, mut gain, lo_w)) = feat_best else {
                continue;
            };
            if candidates == 0 {
                continue;
            }
            // C4.5 continuous-attribute penalty.
            gain -= (candidates as f64).log2() / known.len() as f64;
            if gain <= 1e-9 {
                continue;
            }
            // Split info over {lo, hi, missing} shares of total weight.
            let hi_w = known_w - lo_w;
            let si = entropy_of_counts(&[lo_w, hi_w, miss_w]);
            if si <= 1e-9 {
                continue;
            }
            let ratio = gain / si;
            if ratio > best_ratio {
                best_ratio = ratio;
                best = Some((feat, thr, gain * total, lo_w / known_w));
            }
        }
        best
    }
}

/// Bottom-up error-based pruning. Returns the node's predicted errors.
pub(crate) fn prune(node: &mut Node, cf: f64) -> f64 {
    let (leaf_pred, dist) = match node {
        Node::Leaf { dist } => {
            let total: f64 = dist.iter().sum();
            let err = total - dist[argmax(dist)];
            return err + add_errs(total, err, cf);
        }
        Node::Split { dist, .. } => {
            let total: f64 = dist.iter().sum();
            let err = total - dist[argmax(dist)];
            (err + add_errs(total, err, cf), dist.clone())
        }
    };
    let subtree_pred = match node {
        Node::Split { lo, hi, .. } => prune(lo, cf) + prune(hi, cf),
        Node::Leaf { .. } => unreachable!(),
    };
    if leaf_pred <= subtree_pred + 0.1 {
        *node = Node::Leaf { dist };
        leaf_pred
    } else {
        subtree_pred
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_simnet::rng::SimRng;

    fn dataset(features: &[&str], classes: &[&str]) -> Dataset {
        Dataset::new(
            features.iter().map(|s| s.to_string()).collect(),
            classes.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn learns_simple_threshold() {
        let mut d = dataset(&["x"], &["lo", "hi"]);
        for i in 0..100 {
            let v = i as f64 / 10.0;
            d.push(vec![v], usize::from(v >= 5.0));
        }
        let tree = C45Trainer::default().fit(&d, &(0..100).collect::<Vec<_>>());
        assert_eq!(tree.predict(&[2.0]), 0);
        assert_eq!(tree.predict(&[8.0]), 1);
        assert!(tree.size() <= 5, "size {}", tree.size());
    }

    #[test]
    fn picks_informative_feature() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut d = dataset(&["noise", "signal"], &["a", "b"]);
        for _ in 0..300 {
            let c = rng.index(2);
            let signal = c as f64 * 10.0 + rng.normal(0.0, 1.0);
            let noise = rng.normal(0.0, 5.0);
            d.push(vec![noise, signal], c);
        }
        let rows: Vec<usize> = (0..d.len()).collect();
        let tree = C45Trainer::default().fit(&d, &rows);
        let imp = tree.feature_importance();
        assert!(imp[1] > imp[0] * 5.0, "importances {imp:?}");
        // Accuracy on training data is near perfect.
        let correct = rows
            .iter()
            .filter(|&&r| tree.predict(&d.x[r]) == d.y[r])
            .count();
        assert!(correct as f64 / rows.len() as f64 > 0.95);
    }

    #[test]
    fn handles_missing_values() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut d = dataset(&["a", "b"], &["x", "y"]);
        for i in 0..400 {
            let c = i % 2;
            let a = if rng.chance(0.3) {
                f64::NAN
            } else {
                c as f64 * 4.0 + rng.normal(0.0, 0.5)
            };
            let b = c as f64 * 4.0 + rng.normal(0.0, 0.5);
            d.push(vec![a, b], c);
        }
        let rows: Vec<usize> = (0..d.len()).collect();
        let tree = C45Trainer::default().fit(&d, &rows);
        // Predict with the first feature missing entirely.
        assert_eq!(tree.predict(&[f64::NAN, 0.1]), 0);
        assert_eq!(tree.predict(&[f64::NAN, 4.1]), 1);
    }

    #[test]
    fn pruning_shrinks_noisy_tree() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut d = dataset(&["x", "n1", "n2"], &["a", "b"]);
        for _ in 0..500 {
            let c = rng.index(2);
            // x is weakly predictive; n1/n2 are pure noise.
            let x = c as f64 + rng.normal(0.0, 0.8);
            d.push(vec![x, rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)], c);
        }
        let rows: Vec<usize> = (0..d.len()).collect();
        let unpruned = C45Trainer {
            cfg: C45Config {
                unpruned: true,
                ..Default::default()
            },
        }
        .fit(&d, &rows);
        let pruned = C45Trainer::default().fit(&d, &rows);
        assert!(
            pruned.size() < unpruned.size(),
            "pruned {} unpruned {}",
            pruned.size(),
            unpruned.size()
        );
    }

    #[test]
    fn multiclass_bands() {
        let mut d = dataset(&["v"], &["low", "mid", "high"]);
        for i in 0..300 {
            let v = i as f64 / 10.0;
            let c = if v < 10.0 {
                0
            } else if v < 20.0 {
                1
            } else {
                2
            };
            d.push(vec![v], c);
        }
        let rows: Vec<usize> = (0..d.len()).collect();
        let tree = C45Trainer::default().fit(&d, &rows);
        assert_eq!(tree.predict(&[5.0]), 0);
        assert_eq!(tree.predict(&[15.0]), 1);
        assert_eq!(tree.predict(&[25.0]), 2);
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn dump_mentions_feature_names() {
        let mut d = dataset(&["rssi"], &["good", "bad"]);
        for i in 0..50 {
            d.push(vec![-(i as f64)], usize::from(i >= 25));
        }
        let tree = C45Trainer::default().fit(&d, &(0..50).collect::<Vec<_>>());
        let txt = tree.to_text();
        assert!(txt.contains("rssi"), "{txt}");
        assert!(txt.contains("good") && txt.contains("bad"), "{txt}");
    }

    #[test]
    fn serialization_round_trips() {
        let mut rng = SimRng::seed_from_u64(12);
        let mut d = dataset(&["a", "b", "c"], &["x", "y", "z"]);
        for _ in 0..300 {
            let c = rng.index(3);
            d.push(
                vec![
                    c as f64 * 3.0 + rng.normal(0.0, 0.8),
                    rng.normal(0.0, 1.0),
                    if rng.chance(0.2) {
                        f64::NAN
                    } else {
                        c as f64 - 1.0
                    },
                ],
                c,
            );
        }
        let rows: Vec<usize> = (0..d.len()).collect();
        let tree = C45Trainer::default().fit(&d, &rows);
        let text = tree.serialize();
        let back = DecisionTree::deserialize(&text).unwrap();
        assert_eq!(back.size(), tree.size());
        assert_eq!(back.feature_names, tree.feature_names);
        assert_eq!(back.class_names, tree.class_names);
        // Identical predictions, including missing-value paths.
        for probe in [
            vec![0.0, 0.0, f64::NAN],
            vec![3.0, -1.0, 0.0],
            vec![f64::NAN, f64::NAN, f64::NAN],
            vec![6.0, 2.0, 1.0],
        ] {
            assert_eq!(back.predict(&probe), tree.predict(&probe));
            let da = tree.predict_dist(&probe);
            let db = back.predict_dist(&probe);
            for (x, y) in da.iter().zip(&db) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(DecisionTree::deserialize("nope").is_err());
        assert!(DecisionTree::deserialize("").is_err());
        assert!(DecisionTree::deserialize("vqd-tree v1\nclasses\ta\n").is_err());
        assert!(
            DecisionTree::deserialize(
                "vqd-tree v1\nclasses\ta\tb\nfeatures\tf\nS 9 0.5 0.5 1.0 1 2\nL 1 2\nL 2 1\n"
            )
            .is_err(),
            "out-of-range feature index must fail"
        );
    }

    #[test]
    fn deserialize_reads_legacy_v1() {
        let v1 = "vqd-tree v1\nclasses\ta\tb\nfeatures\tf\n\
                  S 0 0.5 0.5 1.0 3.0 3.0\nL 3.0 0.0\nL 0.0 3.0\n";
        let tree = DecisionTree::deserialize(v1).unwrap();
        assert_eq!(tree.size(), 3);
        assert_eq!(tree.predict(&[0.0]), 0);
        assert_eq!(tree.predict(&[1.0]), 1);
        // Re-serialising writes v2; semantics survive the upgrade.
        let back = DecisionTree::deserialize(&tree.serialize()).unwrap();
        assert!(tree.serialize().starts_with("vqd-tree v2\n"));
        assert_eq!(back.predict(&[0.0]), 0);
        assert_eq!(back.predict(&[1.0]), 1);
    }

    fn v2(nodes: &str) -> String {
        let n = nodes.lines().count();
        format!("vqd-tree v2\nclasses\ta\tb\nfeatures\tf\nnodes\t{n}\n{nodes}")
    }

    #[test]
    fn deserialize_errors_name_line_and_field() {
        // Cycle: node 1 is its own child.
        let err = DecisionTree::deserialize(&v2(
            "0\tS 0 0.5 0.5 1.0 1 2 3.0 3.0\n1\tS 0 0.7 0.5 1.0 1 2 1.0 1.0\n2\tL 0.0 3.0",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("more than once"), "{err}");
        // Out-of-range child id, error names the line.
        let err = DecisionTree::deserialize(&v2("0\tS 0 0.5 0.5 1.0 1 7 3.0 3.0\n1\tL 3.0 0.0"))
            .unwrap_err();
        assert_eq!(err.line, 5);
        assert_eq!(err.field, "hi_id");
        // Truncated table.
        let err = DecisionTree::deserialize(
            "vqd-tree v2\nclasses\ta\tb\nfeatures\tf\nnodes\t3\n0\tL 1.0 1.0\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Class-count mismatch in a leaf dist.
        let err = DecisionTree::deserialize(&v2("0\tL 1.0 1.0 1.0")).unwrap_err();
        assert!(err.to_string().contains("class-count mismatch"), "{err}");
        // Unreachable node.
        let err = DecisionTree::deserialize(&v2("0\tL 1.0 1.0\n1\tL 2.0 0.0")).unwrap_err();
        assert!(err.to_string().contains("unreachable"), "{err}");
        // Non-finite threshold.
        let err = DecisionTree::deserialize(&v2(
            "0\tS 0 NaN 0.5 1.0 1 2 3.0 3.0\n1\tL 3.0 0.0\n2\tL 0.0 3.0",
        ))
        .unwrap_err();
        assert_eq!(err.field, "thr");
    }

    #[test]
    fn deserialize_depth_capped_no_overflow() {
        // 100k-deep v1 chain of splits: must error, not blow the stack.
        let mut s = String::from("vqd-tree v1\nclasses\ta\tb\nfeatures\tf\n");
        for _ in 0..100_000 {
            s.push_str("S 0 0.5 0.5 1.0 2.0 2.0\nL 1.0 0.0\n");
        }
        s.push_str("L 0.0 1.0\n");
        let err = DecisionTree::deserialize(&s).unwrap_err();
        assert!(err.to_string().contains("deeper"), "{err}");
    }

    #[test]
    fn features_used_reports_split_features_only() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut d = dataset(&["noise", "signal"], &["a", "b"]);
        for _ in 0..200 {
            let c = rng.index(2);
            d.push(vec![rng.normal(0.0, 1.0), c as f64 * 8.0], c);
        }
        let tree = C45Trainer::default().fit(&d, &(0..200).collect::<Vec<_>>());
        assert_eq!(tree.features_used(), vec![1]);
    }

    #[test]
    fn traced_prediction_reports_missing_descent() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut d = dataset(&["x"], &["a", "b"]);
        for _ in 0..200 {
            let c = rng.index(2);
            d.push(vec![c as f64 * 4.0 + rng.normal(0.0, 0.5)], c);
        }
        let tree = C45Trainer::default().fit(&d, &(0..200).collect::<Vec<_>>());
        let (dist, miss) = tree.predict_dist_traced(&[0.1]);
        assert_eq!(miss, 0.0, "known value must not trace as missing");
        assert!(dist[0] > dist[1]);
        let (dist_m, miss_m) = tree.predict_dist_traced(&[f64::NAN]);
        assert!(miss_m > 0.99, "all-missing descent must trace as missing");
        // The all-missing distribution is (close to) the training prior.
        assert!((dist_m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn add_errs_monotone() {
        // More observed errors → more predicted extra errors... the
        // bound narrows with n.
        let a = add_errs(100.0, 0.0, 0.25);
        let b = add_errs(100.0, 10.0, 0.25);
        assert!(b > 0.0 && a > 0.0);
        let big_n = add_errs(10000.0, 0.0, 0.25);
        assert!(big_n / 10000.0 < a / 100.0);
    }

    #[test]
    fn norm_quantile_sane() {
        assert!((norm_quantile(0.75) - 0.6744898).abs() < 1e-4);
        assert!((norm_quantile(0.5)).abs() < 1e-9);
        assert!((norm_quantile(0.975) - 1.959964).abs() < 1e-4);
    }
}
