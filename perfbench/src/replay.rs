//! The traced client: the same protocol as `Client::query_multi` and
//! `Client::insert_document`, built from the public calls underneath them so
//! that each layer can be timed.  The traced run checks that it returns
//! exactly what the real client returns on the same operations.

use std::collections::HashMap;

use zerber_base::{EncryptedElement, MergePlan, MergedListId, PostingPayload};
use zerber_corpus::{GroupId, TermId};
use zerber_crypto::{DeterministicRng, GroupKeys};
use zerber_protocol::{
    AuthToken, ClientQueryOutcome, IndexServer, InsertRequest, ProtocolError, QueryRequest,
    QueryResponse,
};
use zerber_r::RstfModel;

use crate::check::{merge, MultiOutcome};
use crate::setup::NewDoc;
use crate::trace::{Kind, Tracer};

/// Per-call authentication times, measured on the server's own ACL.
#[derive(Debug, Clone, Copy)]
pub struct AclCost {
    pub authenticate_ns: u64,
    pub check_member_ns: u64,
}

/// Counts the traced client makes while it works.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientCounts {
    pub queries: u64,
    pub opens: u64,
    pub kept: u64,
    pub docs: u64,
    /// Authentications attributed to server calls.
    pub auths: u64,
}

/// Times one server call and attributes `auths` authentications of
/// `per_call_ns` each to it.
pub fn server_call<R>(
    tracer: &Tracer,
    kind: Kind,
    auths: u64,
    per_call_ns: u64,
    counts: &mut ClientCounts,
    f: impl FnOnce() -> R,
) -> R {
    let open = tracer.open(kind);
    let out = f();
    let span = tracer.close(open);
    if auths > 0 {
        tracer.attribute(&span, Kind::Acl, auths * per_call_ns);
        counts.auths += auths;
    }
    out
}

/// One term's retrieval state (mirrors the client's per-term run).
struct Run {
    term: TermId,
    list: u64,
    results: Vec<(zerber_corpus::DocId, f64)>,
    offset: u64,
    cursor: u64,
    requests: usize,
    elements_received: usize,
    bytes_sent: usize,
    bytes_received: usize,
    visible_total: u64,
    done: bool,
}

/// A traced group member: query and insert with per-layer spans.
pub struct TracedClient<'a> {
    pub tracer: &'a Tracer,
    pub server: &'a IndexServer,
    pub plan: &'a MergePlan,
    pub user: String,
    pub token: AuthToken,
    pub keys: HashMap<GroupId, GroupKeys>,
    pub k: usize,
    pub acl: AclCost,
    pub rng: DeterministicRng,
    pub counts: ClientCounts,
    /// Responses kept for the codec measurement (up to `keep_responses`).
    pub responses: Vec<QueryResponse>,
    pub keep_responses: usize,
}

impl TracedClient<'_> {
    fn finished(&self, run: &Run) -> bool {
        run.done || run.results.len() >= self.k || run.offset >= run.visible_total
    }

    fn next_request(&self, run: &Run) -> QueryRequest {
        QueryRequest {
            user: self.user.clone(),
            list: run.list,
            offset: run.offset,
            cursor: run.cursor,
            count: (self.k << run.requests.min(30)) as u32,
            k: self.k as u32,
        }
    }

    fn absorb(
        &mut self,
        run: &mut Run,
        request: &QueryRequest,
        response: QueryResponse,
    ) -> Result<(), ProtocolError> {
        let client = self.tracer.open(Kind::Client);
        let list = MergedListId(run.list);
        run.bytes_sent += request.encoded_bytes();
        run.bytes_received += response.encoded_bytes();
        run.requests += 1;
        run.elements_received += response.elements.len();
        run.visible_total = response.visible_total;
        run.cursor = response.cursor;
        let mut result = Ok(());
        for wire in &response.elements {
            let Some(keys) = self.keys.get(&wire.group) else {
                continue;
            };
            let sealed = EncryptedElement {
                group: wire.group,
                ciphertext: wire.ciphertext.clone(),
            };
            self.counts.opens += 1;
            let payload = match self.tracer.span(Kind::Open, || sealed.open(keys, list)) {
                Ok(payload) => payload,
                Err(e) => {
                    result = Err(ProtocolError::Core(e.to_string()));
                    break;
                }
            };
            if payload.term == run.term {
                run.results.push((payload.doc, payload.relevance()));
                self.counts.kept += 1;
                if run.results.len() == self.k {
                    break;
                }
            }
        }
        if result.is_ok() {
            run.offset += response.elements.len() as u64;
            if response.elements.is_empty() {
                run.done = true;
            }
        }
        if self.responses.len() < self.keep_responses {
            self.responses.push(response);
        }
        self.tracer.close(client);
        result
    }

    fn release(&mut self, run: &mut Run) {
        if run.cursor != 0 {
            let (server, user, cursor) = (self.server, &self.user, run.cursor);
            server_call(
                self.tracer,
                Kind::ServerRead,
                0,
                0,
                &mut self.counts,
                || server.close_cursor(cursor, user),
            );
            run.cursor = 0;
        }
    }

    fn drive(&mut self, run: &mut Run) -> Result<(), ProtocolError> {
        let mut result = Ok(());
        while !self.finished(run) {
            let request = self.tracer.span(Kind::Client, || self.next_request(run));
            let (server, token, per_call) = (self.server, &self.token, self.acl.authenticate_ns);
            let response = server_call(
                self.tracer,
                Kind::ServerRead,
                1,
                per_call,
                &mut self.counts,
                || server.handle_query(&request, token),
            );
            if let Err(e) = response.and_then(|r| self.absorb(run, &request, r)) {
                result = Err(e);
                break;
            }
        }
        self.release(run);
        result
    }

    /// A multi-term top-k query, as `Client::query_multi` runs it.
    pub fn query(&mut self, terms: &[TermId]) -> Result<MultiOutcome, ProtocolError> {
        let op = self.tracer.open(Kind::Op);
        let out = self.query_inner(terms);
        self.tracer.close(op);
        self.counts.queries += 1;
        out
    }

    fn query_inner(&mut self, terms: &[TermId]) -> Result<MultiOutcome, ProtocolError> {
        let prep = self.tracer.open(Kind::Client);
        let runs: Result<Vec<Run>, ProtocolError> = terms
            .iter()
            .map(|&term| {
                let list = self
                    .plan
                    .list_of(term)
                    .map_err(|e| ProtocolError::InvalidRequest(e.to_string()))?;
                Ok(Run {
                    term,
                    list: list.0,
                    results: Vec::with_capacity(self.k),
                    offset: 0,
                    cursor: 0,
                    requests: 0,
                    elements_received: 0,
                    bytes_sent: 0,
                    bytes_received: 0,
                    visible_total: u64::MAX,
                    done: false,
                })
            })
            .collect();
        let initial: Vec<QueryRequest> = match &runs {
            Ok(runs) => runs.iter().map(|run| self.next_request(run)).collect(),
            Err(_) => Vec::new(),
        };
        self.tracer.close(prep);
        let mut runs = runs?;

        let (server, token, per_call) = (self.server, &self.token, self.acl.authenticate_ns);
        let responses = server_call(
            self.tracer,
            Kind::ServerRead,
            1,
            per_call,
            &mut self.counts,
            || server.handle_query_batch(&initial, token),
        )?;
        let mut error = None;
        for ((run, request), response) in runs.iter_mut().zip(&initial).zip(responses) {
            match response {
                Ok(response) => {
                    run.cursor = response.cursor;
                    if error.is_none() {
                        if let Err(e) = self.absorb(run, request, response) {
                            error = Some(e);
                        }
                    }
                }
                Err(e) => {
                    if error.is_none() {
                        error = Some(e);
                    }
                }
            }
        }
        let mut per_term = Vec::with_capacity(terms.len());
        for mut run in runs {
            if error.is_none() {
                if let Err(e) = self.drive(&mut run) {
                    error = Some(e);
                    continue;
                }
                per_term.push(self.tracer.span(Kind::Client, || finish(run, self.k)));
            } else {
                self.release(&mut run);
            }
        }
        if let Some(e) = error {
            return Err(e);
        }
        let merged = self.tracer.span(Kind::Client, || merge(&per_term, self.k));
        Ok((merged, per_term))
    }

    /// A document insert, as `Client::insert_document` runs it.
    pub fn insert(&mut self, model: &RstfModel, doc: &NewDoc) -> Result<usize, ProtocolError> {
        let op = self.tracer.open(Kind::Op);
        let out = self.insert_inner(model, doc);
        self.tracer.close(op);
        self.counts.docs += 1;
        out
    }

    fn insert_inner(&mut self, model: &RstfModel, doc: &NewDoc) -> Result<usize, ProtocolError> {
        let prep = self.tracer.open(Kind::ClientInsert);
        let keys = self.keys.get(&doc.group).cloned();
        let doc_len: u32 = doc.terms.iter().map(|&(_, c)| c).sum();
        self.tracer.close(prep);
        let keys = keys.ok_or(ProtocolError::AccessDenied {
            user: self.user.clone(),
            group: doc.group.0,
        })?;
        let mut inserted = 0;
        for &(term, tf) in &doc.terms {
            let prep = self.tracer.open(Kind::ClientInsert);
            let list = self.plan.list_of(term);
            let payload = PostingPayload {
                term,
                doc: doc.doc,
                tf,
                doc_len,
            };
            self.tracer.close(prep);
            let list = list.map_err(|e| ProtocolError::InvalidRequest(e.to_string()))?;
            let rng = &mut self.rng;
            let sealed = self
                .tracer
                .span(Kind::Seal, || {
                    EncryptedElement::seal(&payload, doc.group, &keys, list, rng)
                })
                .map_err(|e| ProtocolError::Core(e.to_string()))?;
            let trs = self.tracer.span(Kind::Transform, || {
                model.transform(term, doc.doc, payload.relevance())
            });
            let request = self.tracer.span(Kind::ClientInsert, || InsertRequest {
                user: self.user.clone(),
                list: list.0,
                group: doc.group,
                trs,
                ciphertext: sealed.ciphertext,
            });
            let (server, token, per_call) = (self.server, &self.token, self.acl.check_member_ns);
            server_call(
                self.tracer,
                Kind::ServerInsert,
                1,
                per_call,
                &mut self.counts,
                || server.handle_insert(&request, token),
            )?;
            inserted += 1;
        }
        Ok(inserted)
    }
}

/// Sorts a run's results into the client's outcome.
fn finish(mut run: Run, k: usize) -> ClientQueryOutcome {
    run.results
        .sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let satisfied = run.results.len() >= k;
    ClientQueryOutcome {
        results: run.results,
        requests: run.requests,
        elements_received: run.elements_received,
        bytes_sent: run.bytes_sent,
        bytes_received: run.bytes_received,
        satisfied,
    }
}
