//! Correctness checks.  They run outside the timed regions; every failed
//! check counts as a failed operation.

use std::collections::HashMap;

use zerber_base::MergedListId;
use zerber_corpus::{DocId, GroupId, TermId};
use zerber_crypto::MasterKey;
use zerber_index::InvertedIndex;
use zerber_protocol::{ClientQueryOutcome, QueryRequest, QueryResponse, WireElement};
use zerber_r::{OrderedElement, RstfModel};
use zerber_store::ListStore;
use zerber_workload::TestBed;

use crate::setup::NewDoc;

/// A merged multi-term ranking and its per-term outcomes, as
/// `Client::query_multi` returns them.
pub type MultiOutcome = (Vec<(DocId, f64)>, Vec<ClientQueryOutcome>);

#[derive(Debug, Clone, Copy)]
struct Entry {
    trs: f64,
    rel: f64,
    doc: DocId,
    group: GroupId,
}

/// Plaintext top-k over the corpus plus every inserted document.
///
/// The server ranks by TRS, so a term's expected top-k is the first `k`
/// visible postings in TRS order — the plaintext top-k by relevance wherever
/// the term's RSTF is strictly increasing, and the paper's random order for
/// terms unseen in training.  Postings tied on TRS at the k-th place may
/// come back in either order, so any of them may fill the last places.
pub struct Reference {
    plain: InvertedIndex,
    model: RstfModel,
    groups: HashMap<DocId, GroupId>,
    k: usize,
    /// Each term's postings in descending TRS order (invalidated by inserts).
    cache: HashMap<TermId, Vec<Entry>>,
}

impl Reference {
    pub fn new(bed: &TestBed, k: usize) -> Self {
        Reference {
            plain: bed.plain_index.clone(),
            model: bed.model.clone(),
            groups: bed.corpus.docs().map(|(id, d)| (id, d.group)).collect(),
            k,
            cache: HashMap::new(),
        }
    }

    /// Adds an inserted document.
    pub fn insert(&mut self, doc: &NewDoc) {
        self.plain.insert_document(doc.doc, &doc.terms);
        self.groups.insert(doc.doc, doc.group);
        for (term, _) in &doc.terms {
            self.cache.remove(term);
        }
    }

    fn entries(&mut self, term: TermId) -> &[Entry] {
        let (plain, model, groups) = (&self.plain, &self.model, &self.groups);
        self.cache.entry(term).or_insert_with(|| {
            let mut entries: Vec<Entry> = plain
                .posting_list(term)
                .map(|list| {
                    list.iter()
                        .map(|p| Entry {
                            trs: model.transform(term, p.doc, p.score),
                            rel: p.score,
                            doc: p.doc,
                            group: groups[&p.doc],
                        })
                        .collect()
                })
                .unwrap_or_default();
            entries.sort_by(|a, b| b.trs.total_cmp(&a.trs));
            entries
        })
    }

    /// Checks one term's ranked results for a user holding `groups`.
    pub fn check_term(
        &mut self,
        groups: &[GroupId],
        term: TermId,
        results: &[(DocId, f64)],
    ) -> bool {
        let k = self.k;
        let mut visible = self
            .entries(term)
            .iter()
            .filter(|e| groups.contains(&e.group));
        let mut candidates: Vec<Entry> = visible.by_ref().take(k).copied().collect();
        if results.len() != candidates.len() {
            return false;
        }
        let Some(tau) = candidates.last().map(|e| e.trs) else {
            return true;
        };
        let strict = candidates.iter().filter(|e| e.trs > tau).count();
        candidates.extend(visible.take_while(|e| e.trs == tau));
        let mut seen: Vec<DocId> = Vec::with_capacity(results.len());
        let mut above = 0;
        for &(doc, rel) in results {
            let Some(e) = candidates.iter().find(|e| e.doc == doc) else {
                return false;
            };
            if e.rel.to_bits() != rel.to_bits() || seen.contains(&doc) {
                return false;
            }
            seen.push(doc);
            above += usize::from(e.trs > tau);
        }
        above == strict && is_ranked(results)
    }

    /// Checks a multi-term outcome: every term's results against the
    /// plaintext, and the merged ranking against merging those results the
    /// way `Client::query_multi` merges.
    pub fn check_query(
        &mut self,
        groups: &[GroupId],
        terms: &[TermId],
        outcome: &MultiOutcome,
    ) -> bool {
        let (merged, per_term) = outcome;
        per_term.len() == terms.len()
            && terms
                .iter()
                .zip(per_term)
                .all(|(&term, out)| self.check_term(groups, term, &out.results))
            && *merged == merge(per_term, self.k)
    }
}

/// Descending relevance, ties by ascending document id.
fn is_ranked(results: &[(DocId, f64)]) -> bool {
    results
        .windows(2)
        .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0))
}

/// Sums relevance per document across terms (in term order) and keeps the
/// best `k`, ties by ascending document id.
pub fn merge(per_term: &[ClientQueryOutcome], k: usize) -> Vec<(DocId, f64)> {
    let mut acc: HashMap<DocId, f64> = HashMap::new();
    for outcome in per_term {
        for &(doc, rel) in &outcome.results {
            *acc.entry(doc).or_insert(0.0) += rel;
        }
    }
    let mut merged: Vec<(DocId, f64)> = acc.into_iter().collect();
    merged.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    merged.truncate(k);
    merged
}

/// The response an initial request (offset 0, no cursor) must receive: the
/// first `count` elements of its list visible to `groups`.
pub fn expected_initial(
    list: &[OrderedElement],
    groups: &[GroupId],
    count: usize,
) -> QueryResponse {
    let visible = list.iter().filter(|e| groups.contains(&e.group));
    QueryResponse {
        elements: visible
            .clone()
            .take(count)
            .map(WireElement::from_element)
            .collect(),
        visible_total: visible.count() as u64,
        cursor: 0,
    }
}

/// Expected responses of a request stream, from list snapshots.
pub fn expected_responses(
    store: &dyn ListStore,
    requests: &[(QueryRequest, Vec<GroupId>)],
) -> Vec<QueryResponse> {
    let mut lists: HashMap<u64, Vec<OrderedElement>> = HashMap::new();
    requests
        .iter()
        .map(|(request, groups)| {
            let list = lists.entry(request.list).or_insert_with(|| {
                store
                    .snapshot_list(MergedListId(request.list))
                    .expect("requests address existing lists")
            });
            expected_initial(list, groups, request.count as usize)
        })
        .collect()
}

/// Every list of a store, in list order.
pub fn snapshot(store: &dyn ListStore) -> Vec<Vec<OrderedElement>> {
    (0..store.num_lists() as u64)
        .map(|l| {
            store
                .snapshot_list(MergedListId(l))
                .expect("list ids are dense")
        })
        .collect()
}

/// Lists whose snapshots differ.
pub fn differing_lists(a: &[Vec<OrderedElement>], b: &[Vec<OrderedElement>]) -> usize {
    a.len().abs_diff(b.len()) + a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Lists whose contents differ between two indexes built by the same
/// operations, where inserted elements may carry different nonces: elements
/// must agree in TRS and group, and their ciphertexts must open to the same
/// payload.
pub fn differing_content(
    a: &[Vec<OrderedElement>],
    b: &[Vec<OrderedElement>],
    master: &MasterKey,
) -> usize {
    let same = |list: usize, x: &OrderedElement, y: &OrderedElement| {
        if x == y {
            return true;
        }
        if x.trs.to_bits() != y.trs.to_bits() || x.group != y.group {
            return false;
        }
        let keys = master.group_keys(x.group.0);
        let id = MergedListId(list as u64);
        match (x.sealed.open(&keys, id), y.sealed.open(&keys, id)) {
            (Ok(p), Ok(q)) => p == q,
            _ => false,
        }
    };
    a.len().abs_diff(b.len())
        + a.iter()
            .zip(b)
            .enumerate()
            .filter(|(l, (x, y))| {
                x.len() != y.len() || x.iter().zip(y.iter()).any(|(p, q)| !same(*l, p, q))
            })
            .count()
}
